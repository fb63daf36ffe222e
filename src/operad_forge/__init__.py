"""Exact-arithmetic surface operads, their algebras and master equations.

Everything is computed over the rationals; every equation is checked for
exact equality.  See the README for the layout and the command line.
"""
__version__ = "0.1.0"
__all__ = ["__version__"]
