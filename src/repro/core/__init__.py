"""SafeMem core: the paper's contribution."""
