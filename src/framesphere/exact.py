"""Exact complex-rational scalars (Gaussian rationals).

Coefficients of polynomials come in two regimes: exact values represented as
a pair of ``fractions.Fraction`` (this module), and ordinary ``complex``
floats.  Arithmetic between two exact values stays exact; mixing an exact
value with a float falls through to ``complex``, so exactness is lost
explicitly rather than silently rounding.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

_EXACT_PARTS = (int, Fraction)


class GaussianRational:
    """A complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- conversions ------------------------------------------------------

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, _EXACT_PARTS) or isinstance(other, Rational):
            return GaussianRational(self.re + other, self.im)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other if isinstance(other, GaussianRational) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, _EXACT_PARTS) or isinstance(other, Rational):
            return GaussianRational(self.re * other, self.im * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            d = other.re * other.re + other.im * other.im
            if d == 0:
                raise ZeroDivisionError("division by zero GaussianRational")
            return self * GaussianRational(other.re / d, -other.im / d)
        if isinstance(other, _EXACT_PARTS) or isinstance(other, Rational):
            return GaussianRational(self.re / other, self.im / other)
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        d = self.re * self.re + self.im * self.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        inv = GaussianRational(self.re / d, -self.im / d)
        return inv * other

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _EXACT_PARTS) or isinstance(other, Rational):
            return self.im == 0 and self.re == other
        if isinstance(other, complex):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def is_exact(value) -> bool:
    """True when ``value`` belongs to the exact (rational) coefficient regime."""
    return isinstance(value, (GaussianRational, int, Fraction)) or isinstance(
        value, Rational
    )


def conj_scalar(value):
    """Complex conjugate for either coefficient regime."""
    if isinstance(value, GaussianRational):
        return value.conjugate()
    if is_exact(value):
        return value
    return value.conjugate() if isinstance(value, complex) else value

