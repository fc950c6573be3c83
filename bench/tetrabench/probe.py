"""Set-up probe, run in a fresh interpreter: import the workload's entry
module and complete one op of each kind the workload uses.

    python -m tetrabench.probe <workload> <seed> <workdir>
"""
import sys


def main(workload, seed, workdir):
    from .workloads import WORKLOADS

    wl = WORKLOADS[workload](int(seed), workdir, blocks=1)
    for op in wl.probe_ops():
        try:
            wl.run(op)
        except Exception:  # a failing op still completes
            pass


if __name__ == "__main__":
    main(*sys.argv[1:4])
