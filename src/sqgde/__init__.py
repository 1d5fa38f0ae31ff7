"""Differential evolution with a stochastic quasi-gradient mutation operator,
plus test functions, budget-aware metrics, and a benchmark harness."""

__version__ = "0.1.0"
