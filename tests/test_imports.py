"""Every import in the library is used, and so is every private helper.

An import is unused when the name it binds is never read in its module, is
not listed in ``__all__`` and carries no ``# noqa``.  A ``# noqa`` counts only
on a line that binds exactly that one name, so a marker on a multi-name
statement, or on the opening line of a parenthesised one, exempts nothing.
A private module-level name (one leading underscore) is orphaned when no
module of the library reads it: no load of the name, no attribute of that
name and no ``from ... import`` of it.  Tests do not count as readers, so a
deletion cannot leave a helper behind that only a test still calls.  A
public module-level name is unread unless a library module reads it in that
sense, ``tetra.__all__`` lists it or ``tests/test_acceptance.py`` imports it.

The library reaches ``numpy.linalg`` (LAPACK) at the sites listed in
``LAPACK_SITES`` only, which keeps eigensolvers off the solve path, and
``cli.run`` alone writes a document's ``command`` and ``provenance``.  The
synthesis lifts and the lift helpers they evaluate (``NO_MATMUL``) contain no
``@``.  The domain layer (``DOMAIN``) imports no NumPy-backed module at module
level, so the commands that use only it never load NumPy; nor does ``musyn``,
whose ``mu_diag`` is plain complex arithmetic.
"""
import ast
import pathlib
from collections import Counter

import pytest

SRC = sorted((pathlib.Path(__file__).parent.parent / "src" / "tetra").glob("*.py"))
ACCEPTANCE = pathlib.Path(__file__).parent / "test_acceptance.py"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            per_line = Counter(alias.lineno for alias in node.names)
            for alias in node.names:
                marked = "# noqa" in lines[alias.lineno - 1]
                if not (marked and per_line[alias.lineno] == 1):
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    exported = dunder_all(tree)
    return sorted(
        f"line {line}: {name}" for name, line in bound.items()
        if name not in read and name not in exported
    )


def dunder_all(tree: ast.Module) -> set[str]:
    """The names a module's ``__all__`` lists."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return exported


def module_names(tree: ast.Module, private: bool = True) -> dict[str, int]:
    """Private (or, without ``private``, public) names bound at module
    level by a definition or an assignment, with the line binding each."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        for name in names:
            if not name.startswith("__") and name.startswith("_") == private:
                out[name] = node.lineno
    return out


def names_read(tree: ast.Module) -> set[str]:
    """Names loaded, attributes accessed and names imported from a module."""
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read |= {alias.name for alias in n.names}
    return read


def orphaned_names(
    sources: dict[str, str], private: bool = True, pinned: frozenset = frozenset()
) -> list[str]:
    """Module-level names of the given kind that no module reads and that
    ``pinned`` does not list."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*(names_read(t) for t in trees.values())) | pinned
    return sorted(
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in module_names(tree, private).items()
        if name not in read
    )


def public_pins(init_source: str, acceptance_source: str) -> frozenset:
    """The names ``tetra.__all__`` lists and the acceptance tests import."""
    pins = dunder_all(ast.parse(init_source))
    for node in ast.walk(ast.parse(acceptance_source)):
        if isinstance(node, ast.ImportFrom):
            pins |= {alias.name for alias in node.names}
    return frozenset(pins)


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = (
        "import math\n"
        "import os  # noqa: F401\n"
        "from .errors import NormTooLarge, Outside\n"
        "from .linalg import op_norm, pi_map  # noqa: F401\n"
        "from .tetrablock import (  # noqa: F401\n"
        "    as_cpoint3,\n"
        "    membership,  # noqa: F401\n"
        "    psi,\n"
        ")\n"
        "__all__ = ['Outside']\n"
        "x = math.pi\n"
    )
    assert unused_imports(source) == [
        "line 3: NormTooLarge", "line 4: op_norm", "line 4: pi_map",
        "line 6: as_cpoint3", "line 8: psi",
    ]


def test_no_orphaned_private_names():
    assert orphaned_names({p.name: p.read_text() for p in SRC}) == []


def test_the_check_sees_an_orphaned_private_name():
    sources = {
        "a.py": "_TOL = 1e-9\n_UNUSED = 2\ndef _helper():\n    return _TOL\n",
        "b.py": "from .a import _helper\nclass _Gone:\n    pass\n",
    }
    assert orphaned_names(sources) == [
        "a.py line 2: _UNUSED", "b.py line 2: _Gone",
    ]


def test_no_unread_public_names():
    sources = {p.name: p.read_text() for p in SRC}
    pins = public_pins(sources["__init__.py"], ACCEPTANCE.read_text())
    assert orphaned_names(sources, private=False, pinned=pins) == []


def test_the_check_sees_an_unread_public_name():
    sources = {
        "__init__.py": "from .a import solve\n__all__ = ['solve', 'Report']\n",
        "a.py": (
            "TOL = 1e-9\nLIMIT: int = 3\nclass Report:\n    pass\n"
            "def solve():\n    return TOL\ndef spare():\n    pass\n"
            "def pinned():\n    pass\n"
        ),
    }
    pins = public_pins(sources["__init__.py"], "from tetra.a import pinned\n")
    assert orphaned_names(sources, private=False, pinned=pins) == [
        "a.py line 2: LIMIT", "a.py line 7: spare",
    ]


# (module, top-level function, numpy.linalg routine): solve_schwarz's
# extremal branch and the two-node commutant bound, whose norm is _bft_norm's
LAPACK_SITES = {
    ("interpolate.py", "solve_schwarz", "svd"),
    ("musyn.py", "bft_lower_bound", "cholesky"),
    ("musyn.py", "bft_lower_bound", "inv"),
    ("musyn.py", "_bft_norm", "norm"),
}


def linalg_sites(module: str, source: str) -> set[tuple[str, str, str]]:
    """Where a module reaches numpy.linalg: an ``np.linalg.<routine>``
    attribute, a bare ``np.linalg`` (routine "linalg") or an import of
    numpy.linalg or of a name from it (routine "import")."""
    sites = set()
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        nodes = list(ast.walk(top))
        bare = {n for n in nodes if isinstance(n, ast.Attribute) and n.attr == "linalg"}
        for n in nodes:
            if isinstance(n, ast.Attribute) and n.value in bare:
                bare.discard(n.value)
                sites.add((module, where, n.attr))
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                prefix = f"{n.module}." if isinstance(n, ast.ImportFrom) else ""
                if any((prefix + a.name).startswith("numpy.linalg") for a in n.names):
                    sites.add((module, where, "import"))
        if bare:
            sites.add((module, where, "linalg"))
    return sites


def test_numpy_linalg_is_reached_at_the_listed_sites_only():
    assert set().union(*(linalg_sites(p.name, p.read_text()) for p in SRC)) == LAPACK_SITES


def test_the_check_sees_a_linalg_site():
    source = (
        "import numpy as np\n"
        "from numpy import linalg\n"
        "def root(H):\n"
        "    w, V = np.linalg.eigh(H)\n"
        "    return np.linalg\n"
        "def solve(A):\n"
        "    from numpy.linalg import inv\n"
        "    return inv(A)\n"
    )
    assert linalg_sites("a.py", source) == {
        ("a.py", "<module>", "import"), ("a.py", "root", "eigh"),
        ("a.py", "root", "linalg"), ("a.py", "solve", "import"),
    }


# the synthesis lifts and the interpolant lifts they evaluate take their 2x2
# products entry-wise: a complex matmul there (OpenBLAS zgemm) left the pure-
# Python code after it about 15% slower on a Xeon host; _bft_norm, the
# oracles and svd_reduced's factors are not on this path
NO_MATMUL = {
    "musyn.py": ("synth_two_point", "_scaled_lift", "_conjugated_lift",
                 "_triangular_corner_lift"),
    "interpolate.py": ("_pencil", "_diag_scaled", "_times_diag", "_times_point"),
}


def matmul_sites(source: str) -> dict[str, bool]:
    """Each top-level function of a module, and whether an @ or @= appears
    in it, nested functions included."""
    return {
        top.name: any(isinstance(n, ast.MatMult) for n in ast.walk(top))
        for top in ast.parse(source).body if isinstance(top, ast.FunctionDef)
    }


@pytest.mark.parametrize("name", NO_MATMUL)
def test_the_lifts_take_no_matmul(name):
    sites = matmul_sites(next(p for p in SRC if p.name == name).read_text())
    assert {f: sites[f] for f in NO_MATMUL[name]} == dict.fromkeys(NO_MATMUL[name], False)


def test_the_check_sees_a_matmul():
    source = (
        "def lift(D, G):\n"
        "    def F(lam):\n"
        "        return D @ G(lam)\n"
        "    return F\n"
        "def scale(G):\n"
        "    G @= G\n"
        "    return G\n"
        "def plain(G):\n"
        "    return G * 2\n"
    )
    assert matmul_sites(source) == {"lift": True, "scale": True, "plain": False}


ENVELOPE = ("command", "provenance")


def envelope_writers(source: str) -> set[tuple[str, str]]:
    """Where a module writes an ENVELOPE key: as a dict-literal key, a
    subscript assignment or a keyword argument, by top-level function."""
    sites = set()
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for n in ast.walk(top):
            if isinstance(n, ast.Dict):
                keys = [k.value for k in n.keys if isinstance(k, ast.Constant)]
            elif isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store):
                keys = [n.slice.value] if isinstance(n.slice, ast.Constant) else []
            elif isinstance(n, ast.keyword):
                keys = [n.arg]
            else:
                keys = []
            sites |= {(where, k) for k in keys if k in ENVELOPE}
    return sites


def test_run_alone_writes_the_envelope():
    cli = next(p for p in SRC if p.name == "cli.py")
    assert envelope_writers(cli.read_text()) == {("run", k) for k in ENVELOPE}


def test_the_check_sees_an_envelope_writer():
    source = (
        "def _cmd_a(args):\n"
        "    return {'command': 'a', 'body': 1}, 0\n"
        "def _cmd_b(args):\n"
        "    out = {'body': {'command': 2}}\n"
        "    out['provenance'] = {}\n"
        "    out.update(command='b')\n"
        "    return out['command'], 0\n"
        "def run(argv):\n"
        "    out = {}\n"
        "    out['command'] = argv[0]\n"
        "    return out\n"
    )
    assert envelope_writers(source) == {
        ("_cmd_a", "command"), ("_cmd_b", "command"), ("_cmd_b", "provenance"),
        ("run", "command"),
    }


# the modules that member, dist and auto load, and what they must not load
# when imported; tetrablock defers one import of each kind to the one
# function that needs it
DOMAIN = ("errors.py", "tetrablock.py", "autgroup.py", "metrics.py")
HEAVY = ("numpy", ".linalg", ".interpolate", ".musyn", ".cli")
DEFERRED = {
    "tetrablock.py": {
        ("membership_grid_oracle", "numpy", "numpy"),
        ("construct_matrix_rep", ".linalg", "mat2"),
    },
}


def _scopes(tree: ast.Module):
    """(name, node) of each top-level function, each method ("Class.method")
    and each other top-level statement ("<module>"), class bodies included."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{top.name}.{item.name}", item
                else:
                    yield "<module>", item
        else:
            yield "<module>", top


def heavy_imports(source: str) -> set[tuple[str, str, str]]:
    """(top-level function, "Class.method" or "<module>", module, name) of
    each import of a HEAVY module, or of a name from one; a relative module
    keeps its dots.  Only a function body defers an import; a class body
    runs on import."""
    sites = set()
    for where, scope in _scopes(ast.parse(source)):
        for n in ast.walk(scope):
            if isinstance(n, ast.Import):
                found = [(a.name, a.name) for a in n.names]
            elif isinstance(n, ast.ImportFrom):
                found = [("." * n.level + (n.module or a.name), a.name) for a in n.names]
            else:
                continue
            sites |= {(where, module, name) for module, name in found
                      if any(module == h or module.startswith(h + ".") for h in HEAVY)}
    return sites


@pytest.mark.parametrize("name", DOMAIN)
def test_the_domain_layer_imports_no_numpy_backed_module(name):
    source = next(p for p in SRC if p.name == name).read_text()
    assert heavy_imports(source) == DEFERRED.get(name, set())


def test_the_check_sees_a_heavy_import():
    source = (
        "import numpy as np\n"
        "from . import musyn\n"
        "from .errors import Outside\n"
        "def oracle(x):\n"
        "    import numpy.linalg\n"
        "    from .linalg import mat2, op_norm\n"
        "class Report:\n"
        "    from .cli import run\n"
        "    def load(self):\n"
        "        from .interpolate import solve_schwarz\n"
    )
    assert heavy_imports(source) == {
        ("<module>", "numpy", "numpy"), ("<module>", ".musyn", "musyn"),
        ("oracle", "numpy.linalg", "numpy.linalg"), ("oracle", ".linalg", "mat2"),
        ("oracle", ".linalg", "op_norm"), ("<module>", ".cli", "run"),
        ("Report.load", ".interpolate", "solve_schwarz"),
    }


def test_musyn_imports_no_numpy_backed_module_at_module_level():
    # mu_diag computes in plain complex arithmetic, so `tetra mu` can run
    # without NumPy; the functions that compute with matrices import it
    source = next(p for p in SRC if p.name == "musyn.py").read_text()
    scopes = {where for where, _, _ in heavy_imports(source)}
    assert "<module>" not in scopes and "mu_diag" not in scopes
    assert {"mu_scaling_oracle", "SynthesisInstance.__init__", "bft_lower_bound"} <= scopes
