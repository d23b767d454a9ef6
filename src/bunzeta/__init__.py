"""Exact zeta functions of curves over finite fields, stacky masses of
bundle moduli, and evaluation of the associated limit formulas.

All arithmetic is exact rational; binary64 appears only in base-q
logarithm reporting.
"""

__version__ = "0.1.0"
