"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench/tests``."""
