"""Simulated OS kernel: syscalls, ECC interrupt delivery, pinning."""
