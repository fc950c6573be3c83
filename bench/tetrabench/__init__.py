"""Benchmark harness for the ``tetra`` package.

``bench/run.py`` is the single entry point; this package holds the seeded
workloads, the independent reference checks, the tracing wrappers and the
host probes it uses.  Nothing here is imported by the library.
"""
