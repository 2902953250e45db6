"""Benchmark of the krein engine; ``perfbench/run.py`` is the entry point."""
