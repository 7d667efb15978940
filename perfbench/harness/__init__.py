"""Harness behind ``perfbench/run.py``: workloads, load, checks, tracing, metrics."""
