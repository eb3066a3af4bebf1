"""The CPU cache model: one set-associative write-back level."""
