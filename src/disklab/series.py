"""Truncated Taylor series with complex coefficients.

A series of truncation order N stores the coefficients (a_0, ..., a_N) of a
holomorphic function on the unit disk in one read-only complex array. All
operations are pure array expressions; instances are immutable. Products
(and sums) of two series truncate to the smaller of the two operand orders,
so cost stays predictable and no silent order growth occurs; a product is
one truncated ``np.convolve``.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import DomainError


def _product(x, y) -> np.ndarray:
    """Elementwise x * y of complex arrays or scalars, as Python's complex product.

    Each real product is rounded on its own. numpy's complex multiply may
    fuse a product into the following addition, which moves the last ulp of
    values that reports print in full.
    """
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


class TaylorSeries:
    """Truncated power series sum_{k<=N} a_k z^k, stored as a read-only complex array."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[complex]):
        if isinstance(coeffs, np.ndarray):
            cs = np.array(coeffs, dtype=complex)
        else:
            cs = np.array([complex(c) for c in coeffs], dtype=complex)
        if cs.ndim != 1:
            raise DomainError("series coefficients must form a flat sequence")
        if not cs.size:
            raise DomainError("a series needs at least the constant coefficient")
        cs.flags.writeable = False
        self._coeffs = cs

    @property
    def coeffs(self) -> tuple[complex, ...]:
        return tuple(self._coeffs.tolist())

    @property
    def array(self) -> np.ndarray:
        """The coefficients as the series' own read-only complex array."""
        return self._coeffs

    @property
    def order(self) -> int:
        """Truncation order N (degree of the last stored coefficient)."""
        return self._coeffs.size - 1

    def __repr__(self) -> str:
        return f"TaylorSeries(order={self.order}, coeffs={self.coeffs[:4]}...)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TaylorSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def evaluate(self, z: complex) -> complex:
        """Evaluate at a point by Horner recurrence."""
        acc = 0j
        for c in reversed(self._coeffs.tolist()):
            acc = acc * z + c
        return acc

    def evaluate_many(self, z: np.ndarray) -> np.ndarray:
        """Vectorized Horner evaluation on an array of points."""
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for c in reversed(self._coeffs.tolist()):
            acc = acc * z + c
        return acc

    def __call__(self, z):
        if isinstance(z, np.ndarray):
            return self.evaluate_many(z)
        return self.evaluate(z)

    def derivative(self) -> "TaylorSeries":
        """Coefficient shift (k+1) a_{k+1}; order drops by one.

        The derivative of a constant is the zero series of order 0.
        """
        if self.order == 0:
            return TaylorSeries([0j])
        return TaylorSeries(np.arange(1, self.order + 1) * self._coeffs[1:])

    def dilate(self, r: float) -> "TaylorSeries":
        """Radial compression z -> r z, realized as coefficients a_k r^k."""
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"dilation radius must lie in [0, 1], got {r}")
        # Python's float powers: numpy's vectorized power may differ in the last ulp
        powers = np.array([r**k for k in range(self.order + 1)], dtype=float)
        return TaylorSeries(self._coeffs * powers)

    def h2_norm_sq(self) -> float:
        """Squared Hardy-space norm sum_k |a_k|^2 (exactly summed)."""
        return math.fsum(abs(a) ** 2 for a in self._coeffs.tolist())

    def shift(self) -> "TaylorSeries":
        """Multiply by z, keeping the truncation order (top coefficient drops)."""
        out = np.zeros_like(self._coeffs)
        out[1:] = self._coeffs[:-1]
        return TaylorSeries(out)

    def scale(self, c: complex) -> "TaylorSeries":
        return TaylorSeries(_product(complex(c), self._coeffs))

    def __mul__(self, other: "TaylorSeries") -> "TaylorSeries":
        """Cauchy product truncated to the smaller order: one convolution."""
        if not isinstance(other, TaylorSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TaylorSeries(
            np.convolve(self._coeffs[: n + 1], other._coeffs[: n + 1])[: n + 1]
        )

    def __add__(self, other: "TaylorSeries") -> "TaylorSeries":
        if not isinstance(other, TaylorSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TaylorSeries(self._coeffs[: n + 1] + other._coeffs[: n + 1])

    def __sub__(self, other: "TaylorSeries") -> "TaylorSeries":
        if not isinstance(other, TaylorSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TaylorSeries(self._coeffs[: n + 1] - other._coeffs[: n + 1])


def geometric_series(ratio: complex, order: int) -> TaylorSeries:
    """Truncation of 1/(1 - ratio*z), i.e. coefficients ratio^k."""
    steps = np.full(order + 1, ratio, dtype=complex)
    steps[0] = 1.0
    return TaylorSeries(np.cumprod(steps))


def exp_series(g: TaylorSeries) -> TaylorSeries:
    """Formal exponential exp(g) at the same truncation order.

    Uses the standard convolution recurrence E_n = (1/n) sum_k k g_k E_{n-k},
    which only consumes coefficients of g up to order n, so truncating g
    first does not disturb the retained coefficients. Each inner sum is one
    elementwise product and one sequential ``cumsum`` (no BLAS), so the
    coefficients equal those of the scalar recurrence exactly.
    """
    n = g.order
    kg = np.arange(n + 1) * g.array
    e = np.zeros(n + 1, dtype=complex)
    e[0] = np.exp(g.array[0])
    for m in range(1, n + 1):
        acc = np.cumsum(_product(kg[1 : m + 1], e[m - 1 :: -1]))[-1]
        e[m] = complex(acc.real / m, acc.imag / m)
    return TaylorSeries(e)
