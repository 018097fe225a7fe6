"""Served-workload benchmark of repro.server; run it with ``python3 servebench/run.py``."""
