"""Replay-based online class-incremental learning with adaptive focus shifting."""

__version__ = "0.1.0"
