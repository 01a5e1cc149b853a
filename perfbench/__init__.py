"""Benchmark of the SPPL reproduction: see README.md in this directory."""
