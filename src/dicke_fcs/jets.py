"""Truncated power series ("jets") in the counting variable s = i*chi.

Cumulant extraction in this package works by pushing a short Taylor series
through every formula instead of differentiating symbolically or by finite
differences: the k-th photon-counting cumulant is k! times coefficient k of
the cumulant generating function expanded about s = 0.

Coefficients are stored densely as a complex array c[0..K]; the represented
quantity is sum_n c[n] s^n + O(s^(K+1)).  Each recurrence below computes
coefficient n from input coefficients 0..n only, so truncating at a higher
order never changes lower-order results.

The ``seq_*`` primitives act on the last axis; any leading axes are a batch
(for example one row per sample time) and broadcast.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "CountingJet",
    "seq_mul",
    "seq_reciprocal",
    "seq_exp",
    "seq_log",
    "seq_sqrt",
]


def _batch_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("i...,i...->...", a, b)


def _dot_for(c: np.ndarray):
    """Sum of a*b over the first (jet) axis, without conjugation, for
    arrays shaped like c."""
    return np.dot if c.ndim == 1 else _batch_dot


def _require_constant(c: np.ndarray, what: str):
    """Raise unless every jet's constant term c[0] is nonzero."""
    zero = c[0] == 0
    if zero.any() if c.ndim > 1 else zero:
        raise ZeroDivisionError(f"jet {what} requires a nonzero constant term")


def _orders(c: np.ndarray) -> np.ndarray:
    """0, 1, 2, ... along the first (jet) axis of c."""
    return np.arange(len(c)).reshape((-1,) + (1,) * (c.ndim - 1))


def seq_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product of two coefficient arrays, truncated to the length of
    a's last axis; leading axes broadcast."""
    if a.ndim == 1 and b.ndim == 1:
        return np.convolve(a, b)[: len(a)]
    n = a.shape[-1]
    lag = np.arange(n) - np.arange(n)[:, None]
    cauchy = np.where(lag >= 0, b[..., np.maximum(lag, 0)], 0.0)
    return (a[..., None, :] @ cauchy)[..., 0, :]


# The recurrences below work on c.T, whose first axis is the jet axis, so
# c[n] is coefficient n of every jet in a batch (of the one jet if 1-d).

def seq_reciprocal(c: np.ndarray) -> np.ndarray:
    c, dot = c.T, _dot_for(c)
    _require_constant(c, "reciprocal")
    r = np.zeros_like(c)
    r[0] = 1.0 / c[0]
    for n in range(1, len(c)):
        r[n] = -dot(c[1 : n + 1], r[n - 1 :: -1]) / c[0]
    return r.T


def seq_exp(c: np.ndarray) -> np.ndarray:
    c, dot = c.T, _dot_for(c)
    kc = _orders(c) * c
    e = np.zeros_like(c)
    e[0] = np.exp(c[0])
    for n in range(1, len(c)):
        # e' = c' e  =>  n e_n = sum_{k=1..n} k c_k e_{n-k}
        e[n] = dot(kc[1 : n + 1], e[n - 1 :: -1]) / n
    return e.T


def seq_log(c: np.ndarray) -> np.ndarray:
    c, dot = c.T, _dot_for(c)
    _require_constant(c, "log")
    k = _orders(c)
    g = np.zeros_like(c)
    g[0] = np.log(c[0])
    for n in range(1, len(c)):
        # c' = g' c  =>  n c_n = sum_{k=1..n} k g_k c_{n-k}
        conv = dot(k[1:n] * g[1:n], c[n - 1 : 0 : -1]) if n > 1 else 0.0
        g[n] = (c[n] - conv / n) / c[0]
    return g.T


def seq_sqrt(c: np.ndarray) -> np.ndarray:
    """Principal-branch square root anchored at the constant term."""
    c, dot = c.T, _dot_for(c)
    _require_constant(c, "sqrt")
    s = np.zeros_like(c)
    s[0] = np.sqrt(c[0])
    for n in range(1, len(c)):
        inner = dot(s[1:n], s[n - 1 : 0 : -1]) if n > 1 else 0.0
        s[n] = (c[n] - inner) / (2.0 * s[0])
    return s.T


class CountingJet:
    """A truncated Taylor series in s = i*chi with complex coefficients.

    Supports +, -, *, / against scalars and equal-order jets, plus exp, log
    and sqrt (principal branch at the constant term).  ``derivative(k)``
    returns d^k/ds^k at s = 0, i.e. k! * coefficients[k]; applied to a
    cumulant generating function this is the k-th counting cumulant.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        arr = np.asarray(coefficients, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        self.coefficients = arr

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, value: complex, order: int) -> "CountingJet":
        c = np.zeros(order + 1, dtype=complex)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, order: int) -> "CountingJet":
        """The series s itself: coefficients (0, 1, 0, ...)."""
        if order < 1:
            raise ValueError("variable jet needs order >= 1")
        c = np.zeros(order + 1, dtype=complex)
        c[1] = 1.0
        return cls(c)

    # -- basic queries ------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def derivative(self, k: int) -> complex:
        """k-th derivative with respect to s at s = 0 (k! times coefficient k)."""
        if not 0 <= k <= self.order:
            raise ValueError(f"derivative order {k} outside jet order {self.order}")
        return math.factorial(k) * self.coefficients[k]

    def __repr__(self) -> str:  # pragma: no cover
        return f"CountingJet({self.coefficients!r})"

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, CountingJet):
            if other.order != self.order:
                raise ValueError("jet orders differ: "
                                 f"{self.order} vs {other.order}")
            return other.coefficients
        c = np.zeros_like(self.coefficients)
        c[0] = other
        return c

    def __add__(self, other):
        return CountingJet(self.coefficients + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return CountingJet(self.coefficients - self._coerce(other))

    def __rsub__(self, other):
        return CountingJet(self._coerce(other) - self.coefficients)

    def __neg__(self):
        return CountingJet(-self.coefficients)

    def __mul__(self, other):
        if isinstance(other, CountingJet):
            return CountingJet(seq_mul(self.coefficients, self._coerce(other)))
        return CountingJet(self.coefficients * complex(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, CountingJet):
            return CountingJet(
                seq_mul(self.coefficients, seq_reciprocal(self._coerce(other)))
            )
        return CountingJet(self.coefficients / complex(other))

    def __rtruediv__(self, other):
        return CountingJet(self._coerce(other)) * self.reciprocal()

    # -- transcendental -----------------------------------------------
    def reciprocal(self) -> "CountingJet":
        return CountingJet(seq_reciprocal(self.coefficients))

    def exp(self) -> "CountingJet":
        return CountingJet(seq_exp(self.coefficients))

    def log(self) -> "CountingJet":
        return CountingJet(seq_log(self.coefficients))

    def sqrt(self) -> "CountingJet":
        return CountingJet(seq_sqrt(self.coefficients))
