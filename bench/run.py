#!/usr/bin/env python3
"""Run one workload of the tetra benchmark from the repository root.

    python3 bench/run.py --workload geometry_scan --seed 1 --seconds 15 --trace 0

The workload runs in a child process with single-threaded BLAS and this
checkout's ``src`` on ``PYTHONPATH``.  Lines before the last describe the
run (machine, host calibration, tail percentile, failures); the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(``attempted`` is every op of the seed's pool, each checked once;
``failed`` the ones that raised or returned a wrong answer):
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Uses only the standard library; the child needs numpy, and
jsonschema for the CLI checks.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tetrabench import spec  # noqa: E402  (stdlib-only module)

DEADLINE_S = 175.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "tetra" / "__init__.py").is_file():
        print("bench: no src/tetra here; run from the repository root", file=sys.stderr)
        return 2
    workdir = root / ".bench_build" / "tetrabench"
    workdir.mkdir(parents=True, exist_ok=True)

    env = dict(os.environ)
    env.pop("TETRA_TOL", None)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(BENCH)]),
    )
    cmd = [
        sys.executable, "-m", "tetrabench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("bench: the workload ran out of time", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"bench: the workload exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    report(args, result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit, _ in (spec.PER_LAYER if args.trace else spec.END_TO_END)
        },
    }))
    return 0


def report(args, result):
    info = result["info"]
    mach, calib, tail = info["machine"], info["calib_us"], info["tail"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in mach.items()))
    print(f"host.calib_us: median {calib['median']:.1f} iqr {calib['iqr']:.1f} "
          f"over {calib['samples']} samples; {info['ops']} timed ops")
    print("raw wall-clock figures (the metrics are calibrated): "
          + " ".join(f"{k}={v:.6g}" for k, v in info["raw"].items()))
    print("set-up samples (calibrated s): " + " ".join(f"{v:.4f}" for v in info["setup_samples"]))
    print(f"op_tail_us is p{tail['percentile']:g} of {tail['samples']} ops "
          f"({tail['beyond']} beyond it)")
    fails = ", ".join(f"{k} x{v}" for k, v in sorted(info["failures"].items())) or "none"
    print(f"failed ops of the {result['attempted']} in the seed's pool, each checked "
          f"once: {fails}; repeats that ended otherwise: {info['unsteady']}")
    if args.trace:
        print(f"traced pass: {info['traced_ops']} ops in {info['traced_s']:.2f} s; "
              f"cli output sha256 {info['cli_output_sha256']}")


if __name__ == "__main__":
    sys.exit(main())
