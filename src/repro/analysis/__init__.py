"""Experiment harnesses for the paper's tables and figures."""
