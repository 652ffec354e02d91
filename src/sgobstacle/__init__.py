"""Galerkin and Monte Carlo solvers for obstacle problems with random data."""

__version__ = "0.1.0"
