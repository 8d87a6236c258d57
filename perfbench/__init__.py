"""Benchmark of the diarkit pipeline; run ``python3 perfbench/run.py --help``."""
