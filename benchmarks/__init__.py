"""Standalone CI gate scripts, one per engine claim.

Each ``bench_*.py`` here runs as ``PYTHONPATH=src python
benchmarks/bench_<name>.py``, checks its floor and writes
``BENCH_<name>.json``.  End-to-end timing lives in ``perfbench/``
(``make bench``); the paper's figure bands are asserted by
``tests/test_paper_bands.py``.
"""
