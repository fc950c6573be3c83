"""Tests of the benchmark harness itself: seeded inputs, the independent
checks, span self time, and the tracing wrappers."""
from __future__ import annotations

import importlib
import json
import pickle
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from tetrabench import host, spec, tracing  # noqa: E402
from tetrabench.worker import tail_percentile  # noqa: E402
from tetrabench.workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs(name, workdir):
    make = WORKLOADS[name]
    first = pickle.dumps(make(7, workdir).pool)
    assert pickle.dumps(make(7, workdir).pool) == first
    assert pickle.dumps(make(8, workdir).pool) != first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_op_mix(name, workdir):
    kinds = [[op[0] for op in WORKLOADS[name](s, workdir).pool] for s in (1, 2)]
    assert kinds[0] == kinds[1]


def test_near_boundary_points_ignore_the_seed(workdir):
    pools = [WORKLOADS["geometry_scan"](s, workdir, blocks=3).pool for s in (1, 2)]
    near = [pickle.dumps([op for op in pool if op[0] == "near"]) for pool in pools]
    rest = [pickle.dumps([op for op in pool if op[0] != "near"]) for pool in pools]
    assert near[0] == near[1] and rest[0] != rest[1]


def _first(wl, kind):
    return next(i for i, op in enumerate(wl.pool) if op[0] == kind)


def test_check_flags_wrong_mu():
    wl = WORKLOADS["mu_synth"](3)
    i = _first(wl, "mu")
    out = wl.run(wl.pool[i])
    assert wl.check(i, out)
    assert not wl.check(i, {"mu": out["mu"] + 1e-3})


def test_check_flags_flipped_verdict():
    wl = WORKLOADS["geometry_scan"](3)
    for kind in ("interior", "exterior"):
        i = _first(wl, kind)
        out = wl.run(wl.pool[i])
        assert wl.check(i, out)
        for key in ("open", "closed"):
            assert not wl.check(i, dict(out, **{key: not out[key]}))


def test_check_flags_truncated_json(workdir):
    wl = WORKLOADS["cli_mix"](3, workdir)
    i = _first(wl, "member")
    code, out, err = wl.run(wl.pool[i])
    assert wl.check(i, (code, out, err))
    assert not wl.check(i, (code, out[: len(out) // 2], err))
    assert not wl.check(i, (5, out, err))


def test_check_flags_bad_interpolant():
    wl = WORKLOADS["interp_audit"](3)
    i = _first(wl, "mobius")
    out = wl.run(wl.pool[i])
    assert wl.check(i, out)
    assert not wl.check(i, dict(out, passed=False))
    assert not wl.check(i, dict(out, feasible=False))


def _span(name, parent, start, end):
    return [name, parent, 0, start, end, False, None]


def test_self_time_on_synthetic_tree():
    spans = [
        _span("root", -1, 0, 100),
        _span("a", 0, 10, 40),
        _span("a.child", 1, 15, 25),
        _span("b", 0, 50, 70),
        _span("other", -1, 200, 230),
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20, 30]


def test_tracer_folds_calls_fails_and_counts():
    ticks = iter(range(0, 10_000, 10))
    tr = tracing.Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("tetrablock.membership", lambda x: x)
    from tetra.errors import Outside

    def raises():
        raise Outside("x")

    failing = tr.wrap("tetrablock.separating_polynomial", raises)
    outer = tr.wrap("musyn.mu_diag", lambda: [inner(k) for k in range(3)])
    outer()
    with pytest.raises(Outside):
        failing()
    tr.end_op()
    assert tr.calls == {"musyn.mu_diag": 1, "tetrablock.membership": 3,
                        "tetrablock.separating_polynomial": 1}
    assert tr.fails == {"tetrablock.separating_polynomial": 1}
    assert tr.counted[("musyn.mu_diag", "tetrablock.membership")] == 3
    assert tr.self_ns["tetrablock.membership"] == 30
    assert tr.self_ns["musyn.mu_diag"] == 70 - 30
    assert tr.spans == [] and tr.op == 1


def _bindings():
    mods = [importlib.import_module("tetra")]
    mods += [importlib.import_module(f"tetra.{m}") for m in tracing.MODULES]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if isinstance(v, types.FunctionType)}


def test_tracing_restores_every_binding():
    import tetra

    before = _bindings()
    tr = tracing.Tracer()
    tr.install()
    try:
        patched = _bindings()
        assert patched[("tetra.interpolate", "membership")] is not before[("tetra.interpolate", "membership")]
        tetra.mu_diag(np.array([[0.5, 0.5j], [0.5j, 0.5]]))
        tr.end_op()
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.counted[("musyn.mu_diag", "tetrablock.membership")] > 10


def test_benchmark_json_matches_spec():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS) == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(spec.PER_LAYER)


def test_tail_percentile_keeps_ten_beyond():
    assert tail_percentile(range(1, 2001))[:2] == (99.0, 1980)
    assert tail_percentile(range(1, 201))[0] == 90.0
    assert tail_percentile(range(1, 50))[0] == 50.0


def test_import_seconds_takes_outermost_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy.sparse",
        "import time:        60 |        110 |     scipy.optimize",
        "import time:        10 |        420 |   tetra.musyn",
        "import time:         5 |        725 | tetra",
    ])
    got = host.import_seconds(text)
    assert got == {"tetra": 725e-6, "numpy": 300e-6, "scipy": 110e-6}
