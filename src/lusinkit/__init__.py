"""Constructive a.e. prescription of higher-order derivatives with certified
moduli of continuity, and Heisenberg-group analysis of the resulting graphs.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
