"""Benchmark of certified mconvex CLI queries; see run.py."""
