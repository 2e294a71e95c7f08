"""Exact coefficient arithmetic: Gaussian rationals and their sqrt(q) extension.

The construction/identity checks run over Q(i) for cH and W and over Q(i, sqrt(q))
for Askey-Wilson (half-integer shifts of x by gamma = log q scale z by half-integer
powers of q); one element class, QQi, immutable and hashable, serves both, its
arithmetic plain operator overloading.  The backend ExactScalars runs numkernel's
per-point kernels (ScalarKernels) on QQi arithmetic, with None as an exact zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import mpmath as mp

from .numkernel import HELD_OUT, ScalarKernels
from .polycore import times_linear

_F0 = Fraction(0)
_MAG_ZERO, _MAG_ONE = mp.mpf(0), mp.mpf(1)
_new = object.__new__

IntoFraction = Union[int, Fraction]


def _qqi(re: Fraction, im: Fraction, sre: Fraction = _F0, sim: Fraction = _F0, q=None) -> "QQi":
    """A QQi from Fraction parts, without passing them through Fraction() again."""
    z = _new(QQi)
    z.re, z.im, z.sre, z.sim, z.q = re, im, sre, sim, q
    return z


def _cmul(a, b, c, d):
    """(a + i b)(c + i d) as its two parts."""
    return a * c - b * d, a * d + b * c


def _mpf(f: Fraction) -> mp.mpf:
    return mp.mpf(f.numerator) / f.denominator


class QQi:
    """(re + i*im) + (sre + i*sim)*sqrt(q) with Fraction parts: an element of Q(i) when
    q is None (sre = sim = 0), else of Q(i, sqrt(q)) for a rational q > 0.

    Ints and Fractions lift to QQi operands.  An operand without q takes the other's;
    two operands whose q are both set must have the same q.
    """

    __slots__ = ("re", "im", "sre", "sim", "q")

    def __init__(self, re: IntoFraction = 0, im: IntoFraction = 0, sre: IntoFraction = 0,
                 sim: IntoFraction = 0, q: IntoFraction | None = None):
        self.re, self.im = Fraction(re), Fraction(im)
        self.sre, self.sim = Fraction(sre), Fraction(sim)
        self.q = None if q is None else Fraction(q)
        if self.q is None and (self.sre or self.sim):
            raise ValueError("a sqrt(q) part needs q")

    def __repr__(self):
        if self.q is None:
            return f"QQi({self.re}, {self.im})"
        return f"QQi({self.re}, {self.im}, {self.sre}, {self.sim}, q={self.q})"

    def _pair(self, other):
        """(other as a QQi, the q of the result); (None, None) for a foreign type."""
        if type(other) is not QQi:
            if not isinstance(other, (int, Fraction)):
                return None, None
            return _qqi(Fraction(other), _F0), self.q
        p, q = self.q, other.q
        if p is q or p is None:
            return other, q
        if q is None or p == q:
            return other, p
        raise ValueError(f"mixing sqrt(q) extensions with q = {p} and q = {q}")

    def __eq__(self, other):
        o, _ = self._pair(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im and self.sre == o.sre and self.sim == o.sim

    def __hash__(self):
        if self.sre or self.sim:
            return hash((self.re, self.im, self.sre, self.sim, self.q))
        return hash((self.re, self.im))

    def __add__(self, other):
        o, q = self._pair(other)
        if o is None:
            return NotImplemented
        if q is None:
            return _qqi(self.re + o.re, self.im + o.im)
        return _qqi(self.re + o.re, self.im + o.im, self.sre + o.sre, self.sim + o.sim, q)

    __radd__ = __add__

    def __neg__(self):
        if self.q is None:
            return _qqi(-self.re, -self.im)
        return _qqi(-self.re, -self.im, -self.sre, -self.sim, self.q)

    def __sub__(self, other):
        o, q = self._pair(other)
        if o is None:
            return NotImplemented
        if q is None:
            return _qqi(self.re - o.re, self.im - o.im)
        return _qqi(self.re - o.re, self.im - o.im, self.sre - o.sre, self.sim - o.sim, q)

    def __rsub__(self, other):
        o, _ = self._pair(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o, q = self._pair(other)
        if o is None:
            return NotImplemented
        re, im = _cmul(self.re, self.im, o.re, o.im)
        if q is None:
            return _qqi(re, im)
        sre = sim = _F0
        if o.sre or o.sim:
            sre, sim = _cmul(self.re, self.im, o.sre, o.sim)
            if self.sre or self.sim:
                r, i = _cmul(self.sre, self.sim, o.sre, o.sim)
                re, im = re + q * r, im + q * i
        if self.sre or self.sim:
            r, i = _cmul(self.sre, self.sim, o.re, o.im)
            sre, sim = sre + r, sim + i
        return _qqi(re, im, sre, sim, q)

    __rmul__ = __mul__

    def inverse(self) -> "QQi":
        a, b, q = self.re, self.im, self.q
        if q is None or not (self.sre or self.sim):
            n = a * a + b * b
            if not n:
                raise ZeroDivisionError("inverse of zero")
            return _qqi(a / n, -b / n, _F0, _F0, q)
        # (A + B sqrt(q))^-1 = (A - B sqrt(q)) / (A^2 - B^2 q), with A, B in Q(i)
        nr, ni = _cmul(a, b, a, b)
        r, i = _cmul(self.sre, self.sim, self.sre, self.sim)
        nr, ni = nr - q * r, ni - q * i
        n = nr * nr + ni * ni
        if not n:
            raise ZeroDivisionError("inverse of zero")
        nr, ni = nr / n, -ni / n
        return _qqi(*_cmul(a, b, nr, ni), *_cmul(-self.sre, -self.sim, nr, ni), q)

    def __truediv__(self, other):
        o, _ = self._pair(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o, _ = self._pair(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out, base = _qqi(Fraction(1), _F0, _F0, _F0, self.q), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QQi":
        """Complex conjugation; sqrt(q) is real and fixed."""
        return _qqi(self.re, -self.im, self.sre, -self.sim, self.q)

    def is_zero(self) -> bool:
        return not (self.re or self.im or self.sre or self.sim)

    def to_mpc(self) -> mp.mpc:
        out = mp.mpc(_mpf(self.re), _mpf(self.im))
        if self.sre or self.sim:
            out += mp.mpc(_mpf(self.sre), _mpf(self.sim)) * mp.sqrt(_mpf(self.q))
        return out


# The kernel arithmetic of ExactScalars: QQi operations, None an exact zero that costs none.

_ZERO = _qqi(_F0, _F0)   # an exact zero that takes the q of the other operand

def _xmul(a, b, w: int):
    return None if a is None or b is None else a * b


def _xadd(a, b):
    return b if a is None else a if b is None else a + b


def _xneg(a):
    return None if a is None else -a


def _xdiv(a, b, w: int):
    if b is None:
        raise ZeroDivisionError("division by zero in an exact kernel")
    return None if a is None else a / b


def _xdot(xs, ys, w: int):
    s = None
    for x, y in zip(xs, ys):
        s = _xadd(s, _xmul(x, y, w))
    return s


def _xturn(z, turns: int):
    """i^turns z, exactly: each quarter turn permutes and negates the parts."""
    for _ in range(turns % 4 if z is not None else 0):
        z = _qqi(-z.im, z.re, -z.sim, z.sre, z.q)
    return z


class ExactScalars(ScalarKernels):
    """Scalar backend over Q(i) (q=None) or Q(i, sqrt(q)).

    Answers the questions of ``numkernel.MPScalars``: an interpolation solves
    through exactly as many nodes as there are unknowns, and ``magnitude`` is
    the trivial absolute value (0 for an exact zero, 1 otherwise).  The
    per-point kernels are numkernel.ScalarKernels' on the primitives below, in
    QQi arithmetic: so a pole test fires only on an exact zero, and a stencil
    residual is 0 or, when it fails, 1/3 to 1.  Every gate tolerance is below
    1, so each gate written on ``magnitude`` passes here only on an exact zero.
    """

    name = "exact"

    def __init__(self, q: Fraction | None = None):
        self.q = Fraction(q) if q is not None else None

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    @property
    def i(self):
        return self.from_fraction(0, 1)

    def from_int(self, n: int):
        return self.from_fraction(n)

    def from_fraction(self, re: IntoFraction, im: IntoFraction = 0):
        return _qqi(Fraction(re), Fraction(im), _F0, _F0, self.q)

    def q_power(self, t: Fraction, q=None):
        """q**t for integer or half-integer t (q is the adjoined one; the argument is ignored)."""
        if self.q is None:
            raise ValueError("no q adjoined")
        t = Fraction(t)
        if t.denominator == 1:
            return self.from_fraction(self.q ** t.numerator)
        if t.denominator == 2:
            return _qqi(_F0, _F0, self.q ** ((t.numerator - 1) // 2), _F0, self.q)
        raise ValueError(f"q**{t} is outside Q(i, sqrt(q))")

    @staticmethod
    def sample_args(fam, count: int, lam, salt: str):
        return fam.exact_sample_args(count, lam)

    @staticmethod
    def extraction_nodes(fam, lam, fit: int, salt: str, attempt: int):
        """(ids, node): fit + HELD_OUT rational points, the next ones at each attempt, by
        their positions in fam.exact_sample_args, and node(id) -> (sample arg, eta)."""
        count = fit + HELD_OUT
        us = fam.exact_sample_args(count * (attempt + 1), lam)

        def node(k):
            return us[k], fam.eta_at(us[k], lam)
        return list(range(count * attempt, count * (attempt + 1))), node

    @staticmethod
    def interpolator(etas):
        """coeffs(vals, deg): the deg + 1 coefficients of the polynomial through the first
        deg + 1 nodes, exactly, the nodes, values and coefficients loaded QQi (None an
        exact zero): Newton's divided differences d_k, then the Newton form
        d_0 + (v - eta_0)(d_1 + (v - eta_1)(d_2 + ...)) expanded from the inside out
        by times_linear."""
        etas = [_ZERO if e is None else e for e in etas]

        def coeffs(vals, deg):
            xs, d = etas[:deg + 1], [_ZERO if v is None else v for v in vals[:deg + 1]]
            for k in range(1, deg + 1):
                for j in range(deg, k - 1, -1):
                    d[j] = (d[j] - d[j - 1]) / (xs[j] - xs[j - k])
            cs = [d[deg]]
            for k in range(deg - 1, -1, -1):
                cs = times_linear(cs, xs[k])
                cs[0] = d[k] + cs[0]
            return cs
        return coeffs

    is_zero = staticmethod(QQi.is_zero)
    to_mpc = staticmethod(QQi.to_mpc)

    @staticmethod
    def magnitude(x) -> mp.mpf:
        """The trivial absolute value: 0 for an exact zero (None too, as the kernels load
        it), 1 otherwise."""
        return _MAG_ZERO if x is None or x.is_zero() else _MAG_ONE

    # -- primitives of the kernels: QQi, None an exact zero -------------------------------

    def _load(self, z, w: int):
        return None if z.is_zero() else z

    def _store(self, z, prec: int):
        return self.zero if z is None else z

    def _one(self, w: int):
        return self.one

    _mul, _add, _neg, _div, _dot, _turn = map(
        staticmethod, (_xmul, _xadd, _xneg, _xdiv, _xdot, _xturn))
    _mag = magnitude

    def _below(self, z, bound) -> bool:
        return self.magnitude(z) < bound


def fraction_from_decimal(s: str) -> Fraction:
    """Exact Fraction from a decimal string like '-1.25' or '3/2'."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(s)
