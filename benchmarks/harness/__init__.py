"""One benchmark for the permutation stack.

Four workloads (``cold-plan``, ``warm-apply``, ``serve-hot``,
``serve-churn``), each run in its own process by ``run.py``; the
metric names, units and regression bounds live in the repository's
``BENCHMARK.json``.  See ``README.md`` in this directory.
"""
