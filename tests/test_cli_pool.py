"""Golden bytes for every op of the benchmark's CLI pool.

The ``cli_mix`` workload (``bench/tetrabench/workloads.py``, ``CliMix``)
runs ``tetra.cli.run`` over seeded pools of 200 argv per seed, covering all
eight subcommands and the argv that still end in a traceback.  For each op
of the pools of seeds 1-3, ``tests/golden/cli_pool.json`` records the argv,
the exit code (or the name of the exception that escapes ``run``) and the
sha256 of stdout and of stderr; for each seed it also records the sha256 of
all of that pool's output in pool order, which is ``CliMix.output_digest``.

A replay names the argv and the field of each op that changed.  After a
deliberate change of CLI output, rewrite the golden file with
``PYTHONPATH=src python tests/test_cli_pool.py``, which first prints each
changed op, and name the change in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from tetra.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_pool.json"
SEEDS = (1, 2, 3)
# the outputs of the svd_reduced interpolants go through LAPACK's SVD
LAPACK_NOTE = ("interp and verify outputs of the svd_reduced variant go "
               "through LAPACK, so another build may move a last digit")


def _climix():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from tetrabench.workloads import CliMix
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return CliMix


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pool_records(workdir: Path) -> dict:
    """{seed: {"output_digest", "ops": [{"argv", "exit", "stdout",
    "stderr"}]}} for the CliMix pools of SEEDS; the solution file that
    ``verify`` reads is recorded by its name alone."""
    CliMix = _climix()
    records = {}
    for seed in SEEDS:
        mix = CliMix(seed, workdir)
        whole, ops = hashlib.sha256(), []
        for _, argv, _ in mix.pool:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = run(list(argv))
                except Exception as exc:  # the outcome recorded is its type
                    code = type(exc).__name__
            whole.update(out.getvalue().encode())
            whole.update(err.getvalue().encode())
            ops.append({
                "argv": [mix.solution.name if a == str(mix.solution) else a for a in argv],
                "exit": code,
                "stdout": _sha(out.getvalue()),
                "stderr": _sha(err.getvalue()),
            })
        records[str(seed)] = {"output_digest": whole.hexdigest(), "ops": ops}
    return records


def pool_diff(old: dict, new: dict) -> list[str]:
    """One line per op (or seed digest) whose record differs, naming the
    seed, the op's index and argv, and each changed field."""
    lines = []
    for seed in dict.fromkeys([*old, *new]):
        a, b = old.get(seed, {}), new.get(seed, {})
        a_ops, b_ops = a.get("ops", []), b.get("ops", [])
        for i in range(max(len(a_ops), len(b_ops))):
            ra = a_ops[i] if i < len(a_ops) else {}
            rb = b_ops[i] if i < len(b_ops) else {}
            fields = [f for f in ("argv", "exit", "stdout", "stderr") if ra.get(f) != rb.get(f)]
            if fields:
                argv = shlex.join(rb.get("argv") or ra.get("argv") or [])
                changes = ", ".join(f"{f} {ra.get(f)!r} -> {rb.get(f)!r}" for f in fields)
                lines.append(f"seed {seed} op {i} `tetra {argv}`: {changes}")
        if a.get("output_digest") != b.get("output_digest"):
            lines.append(f"seed {seed} output_digest: "
                         f"{a.get('output_digest')} -> {b.get('output_digest')}")
    return lines


def test_cli_pool_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    changed = pool_diff(golden, pool_records(tmp_path))
    assert not changed, "\n".join([*changed[:20], f"({len(changed)} changes; {LAPACK_NOTE})"])


def test_the_diff_names_the_op_and_the_field():
    old = {"1": {"output_digest": "a", "ops": [
        {"argv": ["mu", "--matrix", "[[0, 1], [0, 0]]"], "exit": 0, "stdout": "s", "stderr": "e"},
        {"argv": ["member", "--point", "[1, 1, 1]"], "exit": 2, "stdout": "t", "stderr": "e"},
    ]}}
    new = json.loads(json.dumps(old))
    assert pool_diff(old, new) == []
    new["1"]["ops"][1].update(exit="ValueError", stdout="u")
    new["1"]["output_digest"] = "b"
    assert pool_diff(old, new) == [
        "seed 1 op 1 `tetra member --point '[1, 1, 1]'`: "
        "exit 2 -> 'ValueError', stdout 't' -> 'u'",
        "seed 1 output_digest: a -> b",
    ]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = pool_records(Path(tmp))
    if GOLDEN.is_file():
        for line in pool_diff(json.loads(GOLDEN.read_text()), records):
            sys.stdout.write(line + "\n")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    n = sum(len(r["ops"]) for r in records.values())
    sys.stdout.write(f"wrote {n} ops to {GOLDEN}\n")
