"""The benchmark of record: four workloads, end-to-end metrics, a ledger.

Run ``python3 bench/run.py`` from the repository root; see
``bench/README.md`` for the workloads, the metrics and how to compare
two sets of runs.
"""
