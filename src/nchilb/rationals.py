"""Exact rational coefficient backend.

All coefficient arithmetic in this package is exact.  When the compiled
gmpy2 extension is importable its `mpq` type is used as the rational
kernel; otherwise the pure-Python `fractions.Fraction` is selected at
import time.  Both are arbitrary precision and canonical (reduced,
positive denominator); the choice affects speed only.  `BACKEND` names
the one in use.
"""

from fractions import Fraction

__all__ = ["QQ", "BACKEND", "rational_from_string"]

try:
    from gmpy2 import mpq as QQ

    BACKEND = "gmpy2"
except ImportError:
    QQ = Fraction
    BACKEND = "fraction"


def rational_from_string(s: str):
    """Parse 'p' or 'p/q' into an exact rational."""
    return QQ(s)
