"""Comparison baselines: Purify-style checker, page-protection guards."""
