"""Exact complex arithmetic on Fraction pairs, for the tests' entrywise oracles.

``GaussianRational`` carries no operators: the package computes exact
tables on integer numerator arrays. The references in the tests compute
the same values independently, entry by entry, with this type.
"""

import math
from fractions import Fraction

from disklab import GaussianRational


class Exact:
    """Complex number re + i im with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, v, im=0):
        if isinstance(v, (GaussianRational, Exact)):
            v, im = v.re, v.im
        self.re, self.im = Fraction(v), Fraction(im)

    def __add__(self, other):
        other = Exact(other)
        return Exact(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Exact(other)
        return Exact(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = Exact(other)
        return Exact(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        acc = Exact(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def conjugate(self):
        return Exact(self.re, -self.im)

    def __abs__(self) -> float:
        return math.sqrt(self.re * self.re + self.im * self.im)

    def __eq__(self, other) -> bool:
        other = Exact(other)
        return self.re == other.re and self.im == other.im

    def gaussian(self) -> GaussianRational:
        return GaussianRational(self.re, self.im)
