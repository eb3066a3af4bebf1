"""Heap substrate: allocator and call-stack signatures."""
