"""Virtual memory substrate: page table, MMU, swap."""
