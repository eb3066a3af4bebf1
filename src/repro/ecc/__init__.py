"""ECC memory substrate: pluggable codecs, DRAM model, controller, scrubber."""
