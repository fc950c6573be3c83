"""Host probes: a fixed calibration loop, machine info and import times.

The calibration loop does not touch ``tetra``; timed at intervals through a
run it shows how fast the host itself was, so that host drift can be told
apart from a change to the program.  It is reported, never gated on.
"""
from __future__ import annotations

import os
import platform
import re
import time

import numpy as np

_M = np.array([[0.6 + 0.1j, 0.2], [0.1j, 0.4]])


def calib_us() -> float:
    """Wall time of one fixed pure-Python + small-numpy loop, in us."""
    t0 = time.perf_counter()
    acc = 0j
    for k in range(2000):
        z = complex(k % 7 - 3, 1.0)
        acc += z * z / (z + 2.0) - abs(z)
    M = _M
    for _ in range(200):
        M = (M @ _M) / np.abs(M).sum()
    return (time.perf_counter() - t0) * 1e6


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")


def import_seconds(stderr: str) -> dict:
    """Cumulative import time of each package's outermost modules, from
    ``python -X importtime`` output (a module is listed after its imports)."""
    packages = ("tetra", "numpy", "scipy")
    rows = [
        (len(m.group(2)), m.group(3), int(m.group(1)))
        for m in map(_LINE.match, stderr.splitlines()) if m
    ]
    totals = dict.fromkeys(packages, 0)
    stack = []   # enclosing (depth, name) while walking from the outside in
    for depth, name, cum_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        for pkg in packages:
            inside = name == pkg or name.startswith(pkg + ".")
            if inside and not any(n == pkg or n.startswith(pkg + ".") for _, n in stack):
                totals[pkg] += cum_us
        stack.append((depth, name))
    return {pkg: us / 1e6 for pkg, us in totals.items()}
