"""Machine assembly: the booted system, the program model, monitors."""
