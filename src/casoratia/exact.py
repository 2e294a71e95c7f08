"""Exact coefficient arithmetic: Gaussian rationals and the sqrt(q) extension.

The construction/identity checks run over Q(i) for the continuous Hahn and
Wilson families and over Q(i, sqrt(q)) for Askey-Wilson (half-integer shifts
of x by gamma = log q scale z by half-integer powers of q).  Elements are
immutable and hashable; arithmetic is plain operator overloading so the
polynomial layer can stay backend-agnostic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import mpmath as mp

from .numkernel import HELD_OUT
from .polycore import last_column_cofactors, solve_dense

_F1 = Fraction(1)
_MAG_ZERO, _MAG_ONE = mp.mpf(0), mp.mpf(1)

IntoFraction = Union[int, Fraction]


class QQi:
    """A Gaussian rational re + i*im with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re: IntoFraction = 0, im: IntoFraction = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"

    def __eq__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QQi":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return QQi(self.re / n, -self.im / n)

    def __truediv__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out, base = QQi(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_mpc(self) -> mp.mpc:
        return mp.mpc(mp.mpf(self.re.numerator) / self.re.denominator,
                      mp.mpf(self.im.numerator) / self.im.denominator)


def _as_qqi(x):
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction)):
        return QQi(x)
    return NotImplemented


class SqrtExt:
    """An element a + b*sqrt(q) of Q(i, sqrt(q)), with a, b in Q(i), q in Q, q > 0."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b=None, q: Fraction = _F1):
        self.a = a if isinstance(a, QQi) else QQi(a)
        self.b = (b if isinstance(b, QQi) else QQi(b)) if b is not None else QQi(0)
        self.q = Fraction(q)

    def __repr__(self):
        return f"SqrtExt({self.a!r} + {self.b!r}*sqrt({self.q}))"

    def _coerce(self, other):
        if isinstance(other, SqrtExt):
            if other.q != self.q and not other.b.is_zero() and not self.b.is_zero():
                raise ValueError("mixing sqrt extensions with different q")
            return other
        if isinstance(other, (int, Fraction, QQi)):
            return SqrtExt(_as_qqi(other), QQi(0), self.q)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtExt(self.a + o.a, self.b + o.b, self.q)

    __radd__ = __add__

    def __neg__(self):
        return SqrtExt(-self.a, -self.b, self.q)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtExt(self.a - o.a, self.b - o.b, self.q)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtExt(
            self.a * o.a + self.b * o.b * self.q,
            self.a * o.b + self.b * o.a,
            self.q,
        )

    __rmul__ = __mul__

    def inverse(self) -> "SqrtExt":
        # (a + b*sqrt(q))^-1 = (a - b*sqrt(q)) / (a^2 - b^2 q)
        n = self.a * self.a - self.b * self.b * self.q
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero sqrt-extension element")
        ninv = n.inverse()
        return SqrtExt(self.a * ninv, -self.b * ninv, self.q)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out, base = SqrtExt(QQi(1), QQi(0), self.q), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "SqrtExt":
        # complex conjugation; sqrt(q) is real and fixed
        return SqrtExt(self.a.conjugate(), self.b.conjugate(), self.q)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def to_mpc(self) -> mp.mpc:
        return self.a.to_mpc() + self.b.to_mpc() * mp.sqrt(mp.mpf(self.q.numerator) / self.q.denominator)


class ExactScalars:
    """Scalar backend over Q(i) (q=None) or Q(i, sqrt(q)).

    Answers the questions of ``numkernel.MPScalars``: an interpolation solves
    through exactly as many nodes as there are unknowns, Horner evaluation and
    the Casoratian cofactors are the generic routines in exact arithmetic, and
    ``magnitude`` is the trivial absolute value (0 for an exact zero, 1
    otherwise) with a trim threshold of 0.  Every gate tolerance is below 1,
    so each gate written on ``magnitude`` passes here only on an exact zero.
    """

    name = "exact"

    def __init__(self, q: Fraction | None = None):
        self.q = Fraction(q) if q is not None else None
        self.trim_threshold = 0   # Poly.trim drops exact zeros only

    def at_bits(self, bits: int) -> "ExactScalars":
        """Exact arithmetic has no working precision: the backend itself."""
        return self

    def _wrap(self, a: QQi):
        if self.q is None:
            return a
        return SqrtExt(a, QQi(0), self.q)

    @property
    def zero(self):
        return self._wrap(QQi(0))

    @property
    def one(self):
        return self._wrap(QQi(1))

    @property
    def i(self):
        return self._wrap(QQi(0, 1))

    def from_int(self, n: int):
        return self._wrap(QQi(n))

    def from_fraction(self, re: IntoFraction, im: IntoFraction = 0):
        return self._wrap(QQi(Fraction(re), Fraction(im)))

    def sqrt_q(self):
        if self.q is None:
            raise ValueError("no q adjoined")
        return SqrtExt(QQi(0), QQi(1), self.q)

    def q_power(self, t: Fraction, q=None):
        """q**t for integer or half-integer t (q is the adjoined one; the argument is ignored)."""
        if self.q is None:
            raise ValueError("no q adjoined")
        t = Fraction(t)
        if t.denominator == 1:
            return self._wrap(QQi(self.q ** t.numerator))
        if t.denominator == 2:
            return self._wrap(QQi(self.q ** ((t.numerator - 1) // 2))) * self.sqrt_q()
        raise ValueError(f"q**{t} is outside Q(i, sqrt(q))")

    @staticmethod
    def sample_args(fam, count: int, lam, salt: str):
        return fam.exact_sample_args(count, lam)

    @staticmethod
    def extraction_nodes(fam, lam, fit: int, salt: str, attempt: int):
        """(sample args, etas): fit + HELD_OUT rational points, the next ones at each attempt."""
        count = fit + HELD_OUT
        us = fam.exact_sample_args(count * (attempt + 1), lam)[count * attempt:]
        return us, [fam.eta_at(u, lam) for u in us]

    def interpolator(self, etas):
        """coeffs(vals, deg): the polynomial through the first deg + 1 nodes, solved exactly."""
        def coeffs(vals, deg):
            rows = [[e ** m for m in range(deg + 1)] for e in etas[:deg + 1]]
            return solve_dense(rows, vals[:deg + 1], self)
        return coeffs

    def horner(self, coeffs):
        """The evaluator v -> sum_k coeffs[k] v^k, by Horner's rule in exact arithmetic."""
        zero = self.zero

        def value(v):
            out = zero
            for c in reversed(coeffs):
                out = out * v + c
            return out
        return value

    def cofactors(self, block):
        """Cofactors of the last column of [block | y] (polycore.last_column_cofactors)."""
        return last_column_cofactors(block, self)

    @staticmethod
    def is_zero(x) -> bool:
        return x.is_zero()

    @staticmethod
    def magnitude(x) -> mp.mpf:
        """The trivial absolute value: 0 for an exact zero, 1 otherwise."""
        return _MAG_ZERO if x.is_zero() else _MAG_ONE

    @staticmethod
    def conj(x):
        return x.conjugate()

    @staticmethod
    def to_mpc(x) -> mp.mpc:
        return x.to_mpc()


def fraction_from_decimal(s: str) -> Fraction:
    """Exact Fraction from a decimal string like '-1.25' or '3/2'."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(s)
