"""Shared primitives: constants, clock, cost model, errors, event log."""
