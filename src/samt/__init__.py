"""Alternating-minimization neural network training with trainable step
sizes, classic baselines, and an empirical convergence verification
harness."""
