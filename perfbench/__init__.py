"""Measured benchmark of the serving stack (see README.md)."""
