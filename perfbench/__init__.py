"""Repository benchmark for pii_detector_ray; entry point ``perfbench/run.py``."""
