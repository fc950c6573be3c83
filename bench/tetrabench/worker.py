"""Run one workload in this process and print its result as one JSON line.

Started by ``bench/run.py``, which sets the environment (single-threaded
BLAS, ``PYTHONPATH``).  One caller, one thread, a closed loop: the next op
starts when the previous one returns.

The host this runs on drifts: the same loop runs up to twice as slow for
stretches of seconds to minutes.  So every timed quantity is measured next
to the fixed calibration loop of :func:`tetrabench.host.calib_us` and
reported in calibrated time, wall time scaled by ``CALIB_REF_US`` over the
calibration time measured around it: ops run in windows of
``CALIB_WINDOW_S``, each followed by one calibration sample, and an op's
latency is scaled by the mean of the samples on either side of its window.
Imports follow that loop less closely than they follow each other, so each
set-up probe is scaled instead by a fresh interpreter importing numpy alone,
run just before and just after it.  Raw wall-clock figures are printed
beside the calibrated ones.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import host, spec
from .workloads import WORKLOADS

SEGMENTS = 5            # timed-loop segments, one set-up probe before each
CALIB_WINDOW_S = 0.05   # ops between two calibration samples
CALIB_REF_US = 1500.0   # calib_us of the reference host (quiet 2-vCPU Xeon VM)
# set-up probes are scaled by a fresh interpreter importing numpy alone,
# which takes REFERENCE_PROBE_S on the reference host
REFERENCE_PROBE = ["-c", "import numpy"]
REFERENCE_PROBE_S = 0.2
# p99 on every workload at the default length, far from the 1000-op edge
# where a coarser percentile would take over
TAIL_LADDER = (99.0, 90.0, 50.0)
TAIL_BEYOND = 10
WARMUP_S = 1.0


def tail_percentile(latencies):
    """(percentile, value, samples beyond): the highest ladder percentile
    that still has at least ``TAIL_BEYOND`` samples above it."""
    lat = sorted(latencies)
    n = len(lat)
    for p in TAIL_LADDER:
        k = max(math.ceil(n * p / 100.0) - 1, 0)
        if n - 1 - k >= TAIL_BEYOND or p == TAIL_LADDER[-1]:
            return p, lat[k], n - 1 - k
    raise AssertionError("unreachable")


def iqr(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


class Failed:
    """A failed op's exception type, without the traceback and the frames
    it would keep alive (and count in peak RSS)."""

    def __init__(self, exc):
        self.kind = type(exc).__name__


@dataclass
class Pass:
    """Ops run by one call of :meth:`Runner.loop`."""

    results: list = field(default_factory=list)   # (pool index, output)
    lat_ns: list = field(default_factory=list)    # raw latency per op
    cal_ns: list = field(default_factory=list)    # calibrated latency per op
    wall_s: float = 0.0
    cal_s: float = 0.0


class Runner:
    def __init__(self, workload, seed, workdir, trace):
        self.name, self.seed, self.workdir = workload, seed, workdir
        self.wl = WORKLOADS[workload](seed, workdir)
        self.pool = self.wl.pool
        self.trace = trace
        self.next_op = 0
        self.calib, self.imports = [], []
        self.setup_raw, self.setup_cal = [], []
        self.outcomes = {}   # pool index -> failure kind, None when it passed
        self.unsteady = 0    # repeats of an op whose outcome changed

    def calibrate(self):
        us = host.calib_us()
        self.calib.append(us)
        return us

    def probe(self, args=None):
        """Wall time of a fresh interpreter running the set-up probe (or
        ``args``)."""
        timed_imports = self.trace and args is None
        cmd = [sys.executable] + (["-X", "importtime"] if timed_imports else [])
        cmd += args or ["-m", "tetrabench.probe", self.name, str(self.seed), str(self.workdir)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if timed_imports:
            self.imports.append(host.import_seconds(proc.stderr))
        return wall

    def setup_sample(self):
        """One set-up probe, scaled by a fresh ``import numpy`` run just
        before and just after it."""
        ref = [self.probe(REFERENCE_PROBE)]
        wall = self.probe()
        ref.append(self.probe(REFERENCE_PROBE))
        self.setup_raw.append(wall)
        self.setup_cal.append(wall * REFERENCE_PROBE_S / statistics.mean(ref))

    def run_op(self, index):
        op = self.pool[index]
        try:
            return self.wl.run(op)
        except Exception as exc:  # counted as a failed op, the loop goes on
            return Failed(exc)

    def loop(self, indices, deadline_ns, after_op=None):
        """Closed loop over pool indices until they run out or the wall
        clock passes ``deadline_ns``, in calibration windows."""
        run = Pass()
        indices = iter(indices)
        window_ns = int(CALIB_WINDOW_S * 1e9)
        before = self.calibrate()
        done = False
        while not done:
            lat = []
            start = t1 = time.perf_counter_ns()
            while t1 - start < window_ns:
                index = next(indices, None)
                if index is None or t1 >= deadline_ns:
                    done = True
                    break
                t0 = time.perf_counter_ns()
                out = self.run_op(index)
                lat.append(time.perf_counter_ns() - t0)
                if after_op is not None:
                    after_op()
                t1 = time.perf_counter_ns()
                run.results.append((index, out))
            if not lat:
                break
            after = self.calibrate()
            scale = CALIB_REF_US / ((before + after) / 2.0)
            before = after
            run.lat_ns += lat
            run.cal_ns += [t * scale for t in lat]
            run.wall_s += (t1 - start) / 1e9
            run.cal_s += (t1 - start) / 1e9 * scale
        return run

    def timed_loop(self, seconds):
        """``SEGMENTS`` segments of the closed loop, each after a set-up
        probe and a ``gc.collect()`` and checked once it ends."""
        total = Pass()
        for _ in range(SEGMENTS):
            self.setup_sample()
            gc.collect()
            first, size = self.next_op, len(self.pool)
            deadline = time.perf_counter_ns() + int(seconds / SEGMENTS * 1e9)
            run = self.loop((i % size for i in range(first, first + 10**12)), deadline)
            self.next_op += len(run.results)
            self.check(run.results)
            total.lat_ns += run.lat_ns
            total.cal_ns += run.cal_ns
            total.wall_s += run.wall_s
            total.cal_s += run.cal_s
        return total

    def warm_up(self):
        end = time.perf_counter() + WARMUP_S
        i = 0
        while time.perf_counter() < end or i < len(self.wl.BLOCK):
            self.run_op(i % len(self.pool))
            i += 1

    def outcome(self, index, out):
        """None when the op passed its check, else why it failed."""
        if isinstance(out, Failed):
            return out.kind
        try:
            ok = self.wl.check(index, out)
        except Exception as exc:  # a crashing check is a wrong answer
            print(f"check crashed on op {index}: {exc!r}", file=sys.stderr)
            ok = False
        return None if ok else f"wrong:{self.pool[index][0]}"

    def check(self, results):
        """Independent checks, outside the timed window.  Each pool op is
        counted once; a repeat must end as its first run did."""
        for index, out in results:
            outcome = self.outcome(index, out)
            if self.outcomes.setdefault(index, outcome) != outcome:
                self.unsteady += 1

    def cover_pool(self):
        """Run and check, untimed, the pool ops the timed loop did not
        reach, so that ``attempted`` is the whole pool on every run."""
        for index in range(len(self.pool)):
            if index not in self.outcomes:
                self.check([(index, self.run_op(index))])

    @property
    def failures(self):
        return Counter(kind for kind in self.outcomes.values() if kind is not None)

    @property
    def wrong(self):
        return sum(v for k, v in self.failures.items() if k.startswith("wrong:"))

    def traced_pass(self, n_ops, cap_s):
        """Run the first ``n_ops`` ops of the pool with every public tetra
        function wrapped; returns the tracer and the pass."""
        from .tracing import Tracer

        tracer = Tracer()
        tracer.install()
        gc.collect()
        try:
            size = len(self.pool)
            deadline = time.perf_counter_ns() + int(cap_s * 1e9)
            run = self.loop((i % size for i in range(n_ops)), deadline, tracer.end_op)
        finally:
            tracer.uninstall()
        return tracer, run


def layer_metrics(tracer, runner, overhead, root):
    m = {}
    for fn in spec.TIMED_FUNCTIONS:
        m[f"{fn}.calls"] = tracer.calls.get(fn, 0)
        m[f"{fn}.self_s"] = tracer.self_ns.get(fn, 0) / 1e9
        if fn in spec.FAIL_FUNCTIONS:
            m[f"{fn}.fail"] = tracer.fails.get(fn, 0)

    def per(parent, child):
        units = tracer.units.get(parent, 0)
        return tracer.counted.get((parent, child), 0) / units if units else 0.0

    m["musyn.mu_diag.membership_per_call"] = per("musyn.mu_diag", "tetrablock.membership")
    m["interpolate.verify_interpolant.membership_per_sample"] = per(
        "interpolate.verify_interpolant", "tetrablock.membership")
    m["interpolate.verify_interpolant.op_norm_per_sample"] = per(
        "interpolate.verify_interpolant", "linalg.op_norm")
    variants = Counter()
    for fn in ("interpolate.solve_schwarz", "interpolate.solve_with_sigma"):
        variants.update(tracer.tags.get((fn, "variant"), []))
        variants["flipped"] += sum(tracer.tags.get((fn, "flipped"), []))
    for v in spec.VARIANTS:
        m[f"interpolate.variant.{v}"] = variants.get(v, 0)
    degrees = [d for d in tracer.tags.get(("tetrablock.separating_polynomial", "degree"), [])
               if d is not None]
    m["tetrablock.sep_degree.p50"] = statistics.median(degrees) if degrees else 0
    m["tetrablock.sep_degree.max"] = max(degrees) if degrees else 0
    for pkg in ("tetra", "numpy", "scipy"):
        m[f"import.{pkg}_s"] = statistics.median(s[pkg] for s in runner.imports)
    m["trace.overhead_frac"] = overhead
    m["host.calib_us"] = statistics.median(runner.calib)
    m["host.calib_iqr_us"] = iqr(runner.calib)
    src = root / "src" / "tetra"
    for mod in spec.SRC_MODULES:
        path = src / f"{mod}.py"
        m[f"src.{mod}.lines"] = len(path.read_text().splitlines()) if path.is_file() else 0
    m["src.total.lines"] = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    digest = runner.wl.output_digest() if hasattr(runner.wl, "output_digest") else "0"
    m["cli.output_sha256"] = int(digest[:13], 16)
    return m, digest


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    # one CPU for this process and the set-up probes it starts, so that the
    # calibration samples time the same CPU as the work they scale
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    runner = Runner(args.workload, args.seed, args.workdir, bool(args.trace))
    runner.warm_up()
    timed = runner.timed_loop(args.seconds / 2 if args.trace else args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.cover_pool()
    n = len(timed.cal_ns)
    attempted, failed = len(runner.pool), sum(runner.failures.values())
    p, tail_ns, beyond = tail_percentile(timed.cal_ns)
    metrics = {
        "setup_s": statistics.median(runner.setup_cal),
        "ops_per_s": n / timed.cal_s,
        "op_p50_us": statistics.median(timed.cal_ns) / 1e3,
        "op_tail_us": tail_ns / 1e3,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "machine": host.machine_info(),
        "ops": n,
        "raw": {
            "setup_s": statistics.median(runner.setup_raw),
            "ops_per_s": n / timed.wall_s,
            "op_p50_us": statistics.median(timed.lat_ns) / 1e3,
            "op_tail_us": tail_percentile(timed.lat_ns)[1] / 1e3,
        },
        "setup_samples": runner.setup_cal,
        "tail": {"percentile": p, "samples": n, "beyond": beyond},
        "failures": dict(runner.failures),
        "unsteady": runner.unsteady,
        "calib_us": {"median": statistics.median(runner.calib), "iqr": iqr(runner.calib),
                     "samples": len(runner.calib)},
    }
    if args.trace:
        tracer, traced = runner.traced_pass(runner.wl.TRACE_OPS, cap_s=3 * args.seconds)
        n_traced = len(traced.results)
        overhead = metrics["ops_per_s"] / (n_traced / traced.cal_s) - 1.0
        metrics, digest = layer_metrics(tracer, runner, overhead, Path.cwd())
        info.update(traced_ops=n_traced, traced_s=traced.wall_s, cli_output_sha256=digest)
    print(json.dumps({
        "correct": runner.wrong == 0 and runner.unsteady == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }))


if __name__ == "__main__":
    main()
