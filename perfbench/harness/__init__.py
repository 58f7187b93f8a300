"""Support modules for ``perfbench/run.py``: workload streams, metric
rules, the out-of-process tracer, the host fingerprint and the drivers
of the three workloads."""
