"""Exact rational coefficients.

All coefficient arithmetic in this package is exact.  `QQ` is the
pure-Python `fractions.Fraction`: arbitrary precision and canonical
(reduced, positive denominator).  `BACKEND` names it.
"""

from fractions import Fraction

__all__ = ["QQ", "BACKEND"]

QQ = Fraction
BACKEND = "fraction"
