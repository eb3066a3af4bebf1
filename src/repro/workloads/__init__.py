"""Behavioural models of the paper's seven buggy applications."""
