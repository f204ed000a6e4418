"""Exact scalar arithmetic over the rationals and prime fields.

Scalars are plain Python objects.  Over the rationals a scalar is an ``int``
when it is integral and a ``Fraction`` with denominator other than 1
otherwise: no integral ``Fraction`` is ever stored, so the ±1 and small
integers that fill most tables cost int arithmetic.  Over a prime field a
scalar is an int in ``0..p-1``.  A ``Field`` instance supplies the arithmetic
so every matrix and structure-constant table can stay field-agnostic.
"""

from __future__ import annotations

from fractions import Fraction


def _normal(x):
    """A rational in normal form: the int itself when x is integral."""
    return x.numerator if x.__class__ is not int and x.denominator == 1 else x


# Miller–Rabin on the prime bases up to 41 is exact below PRIME_BOUND, the
# least composite that passes them all (Sorenson and Webster, 2017); the bases
# up to 37 alone pass 318665857834031151167461 = 399165290221 · 798330580441
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin; raises ValueError from ``PRIME_BOUND`` on."""
    if n >= PRIME_BOUND:
        raise ValueError(f"moduli from {PRIME_BOUND} on are not supported, got {n}")
    if n < 2 or any(n % b == 0 for b in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n − 1
    for b in _BASES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


class Field:
    """A field specification: the rationals or F_p for a prime p below ``PRIME_BOUND``."""

    def __init__(self, characteristic: int = 0):
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
        self.characteristic = characteristic
        # stored once: every read of zero or one returns the same object
        self.zero, self.one = 0, 1
        # (-1)^0 and (-1)^1, reduced: the values of sign()
        self._parity = (1, characteristic - 1)

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    # -- element constructors ------------------------------------------------

    def of(self, x):
        """Coerce an int or Fraction into this field."""
        if self.is_rational:
            return _normal(Fraction(x))
        p = self.characteristic
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            return (x.numerator * self.inv(x.denominator % p)) % p
        return int(x) % p

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return _normal(a + b) if self.is_rational else (a + b) % self.characteristic

    def sub(self, a, b):
        return _normal(a - b) if self.is_rational else (a - b) % self.characteristic

    def mul(self, a, b):
        return _normal(a * b) if self.is_rational else (a * b) % self.characteristic

    def neg(self, a):
        return -a if self.is_rational else (-a) % self.characteristic

    def inv(self, a):
        if self.is_rational:
            if a.__class__ is int and a * a == 1:
                return a  # ±1, the most common pivot, is its own inverse
            # Fraction(1) / a, never 1 / a: an int quotient would be a float
            return _normal(Fraction(1) / a)
        if a % self.characteristic == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.characteristic - 2, self.characteristic)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def sign(self, k: int):
        """(-1)^k as a field element: the one rule behind every Koszul, Leibniz
        and suspension sign."""
        return self._parity[k & 1]

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and other.characteristic == self.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))

    def __repr__(self):
        return "QQ" if self.is_rational else f"GF({self.characteristic})"


QQ = Field(0)


def GF(p: int) -> Field:
    """F_p; raises ValueError unless p is a prime below ``PRIME_BOUND``."""
    if p == 0:  # Field(0) is the rationals
        raise ValueError("GF needs a prime, got 0")
    return Field(p)
