"""Benchmark of the stmmap package: workloads, tracing and output checks (see README.md)."""
