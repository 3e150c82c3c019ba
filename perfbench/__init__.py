"""The repository benchmark: end-to-end workloads and a phase-traced run.

Entry points: ``python3 perfbench/run.py`` (one run of one workload) and
``python3 perfbench/compare.py`` (A/A or parent/change comparison of two
sets of run reports).  See ``perfbench/README.md``.
"""
