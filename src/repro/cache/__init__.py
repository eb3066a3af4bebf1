"""CPU cache models (single level and two-level hierarchy)."""
