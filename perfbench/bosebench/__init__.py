"""Benchmark harness for the bosewit command line and its layers.

`perfbench/run.py` is the entry point; see `perfbench/README.md` for the
workloads, the metrics and what each workload is predicted to load.
"""
