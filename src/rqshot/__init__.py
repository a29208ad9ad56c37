"""Adaptive per-step shot allocation for depth-1 recursive QAOA on weighted Max-Cut."""
