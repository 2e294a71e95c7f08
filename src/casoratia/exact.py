"""Exact coefficient arithmetic: Gaussian rationals and their sqrt(q) extension.

The construction/identity checks run over Q(i) for the continuous Hahn and
Wilson families and over Q(i, sqrt(q)) for Askey-Wilson (half-integer shifts
of x by gamma = log q scale z by half-integer powers of q); one element class,
QQi, serves both.  Elements are immutable and hashable; arithmetic is plain
operator overloading so the polynomial layer can stay backend-agnostic.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Union

import mpmath as mp

from .numkernel import HELD_OUT
from .polycore import last_column_cofactors

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


class _Row(NamedTuple):
    """The evaluator p -> sum_j c_j p(eta_j) of ExactScalars.cofactor_row."""

    cs: tuple
    etas: tuple
    zero: QQi

    def __call__(self, p):
        return sum((c * p(eta) for c, eta in zip(self.cs, self.etas)), self.zero)


class _Frame(namedtuple("_Frame", "eta eta_m eta_p eta_mh eta_ph xi_mh xi_ph w_m w_p w_0")):
    """An H~_D frame of ExactScalars.htilde_frames: the etas at x, x -+ i gamma and x -+ i
    gamma/2, Xi_D at the last two, and the weights w_m, w_p, w_0 of the stencil (apply)."""

    def apply(self, p, pu=None):
        """(H~_D p)(x); pu is p(eta), if already evaluated."""
        return (self.w_m * p(self.eta_m) + self.w_p * p(self.eta_p)
                + self.w_0 * (p(self.eta) if pu is None else pu))


class ExactScalars:
    """Scalar backend over Q(i) (q=None) or Q(i, sqrt(q)).

    Answers the questions of ``numkernel.MPScalars``: an interpolation solves
    through exactly as many nodes as there are unknowns, Horner evaluation, the
    Casoratian cofactor rows, affine ratios and stencil residuals are the generic
    formulas in exact arithmetic, and
    ``magnitude`` is the trivial absolute value (0 for an exact zero, 1
    otherwise).  Every gate tolerance is below 1, so each gate written on
    ``magnitude`` passes here only on an exact zero.
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
        deg + 1 nodes, exactly: Newton's divided differences d_k, then the Newton form
        d_0 + (v - eta_0)(d_1 + (v - eta_1)(d_2 + ...)) expanded from the inside out."""
        def coeffs(vals, deg):
            xs, d = etas[:deg + 1], list(vals[:deg + 1])
            for k in range(1, deg + 1):
                for j in range(deg, k - 1, -1):
                    d[j] = (d[j] - d[j - 1]) / (xs[j] - xs[j - k])
            cs = [d[deg]]
            for k in range(deg - 1, -1, -1):
                x = xs[k]
                cs = [d[k] - x * cs[0]] + [a - x * b for a, b in zip(cs, cs[1:])] + [cs[-1]]
            return cs
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

    def cofactor_row(self, etas, head, last_weights, turns: int):
        """The evaluator p -> detPoly at the frame of etas with the head columns and p as the
        last column (numkernel.MPScalars.cofactor_row), exactly: the cofactors of the head
        block (polycore.last_column_cofactors) times i^turns and the last row weights."""
        block = [[ws[j] * p(eta) for p, ws in head] for j, eta in enumerate(etas)]
        phase = self.i ** turns
        return _Row(tuple(c * phase * v for c, v in
                          zip(last_column_cofactors(block, self), last_weights)),
                    tuple(etas), self.zero)

    def affine_ratios(self, ratios):
        """The evaluator u -> [prod_num (c0 + c1 u) / prod_den (c0 + c1 u) for (num, den) in
        ratios], exactly: a factor with c0 = 0 or c1 = 1 takes no sum or product for it."""
        one = self.one

        def factor(c0, c1):
            if c1 == one:
                return (lambda u: u) if c0.is_zero() else (lambda u: c0 + u)
            return (lambda u: c1 * u) if c0.is_zero() else (lambda u: c0 + c1 * u)
        made = [[[factor(*f) for f in fs] for fs in ratio] for ratio in ratios]

        def product(factors, u):
            out = factors[0](u)
            for f in factors[1:]:
                out = out * f(u)
            return out

        def value(u):
            return [product(num, u) / product(den, u) if den else product(num, u)
                    for num, den in made]
        return value

    def ladder_frames(self, eta_ratios, weight_ratios):
        """numkernel.MPScalars.ladder_frames, exactly."""
        etas = self.affine_ratios(eta_ratios)
        kinds = {k: self.affine_ratios(r) for k, r in weight_ratios.items()}

        def frame(u):
            cum = {}
            for k, factors in kinds.items():
                c = cum[k] = [self.one]
                for f in factors(u):
                    c.append(c[-1] * f)
            return etas(u), cum
        return frame

    def htilde_frames(self, ratios, xi, xi_shift, bounds):
        """numkernel.MPScalars.htilde_frames, exactly (_Frame): magnitude makes a pole an
        exact zero of Xi_D at a half shift or of Xi_D(lambda + delta) at x."""
        values, mag = self.affine_ratios(ratios), self.magnitude

        def frame(u):
            eta, eta_m, eta_p, eta_mh, eta_ph, v, vs = values(u)
            xi_mh, xi_ph, xi0 = xi(eta_mh), xi(eta_ph), xi_shift(eta)
            if min(mag(xi_mh), mag(xi_ph)) < bounds[0] or mag(xi0) < bounds[1]:
                return None
            w_m, w_p = v * xi_ph / xi_mh, vs * xi_mh / xi_ph
            w_0 = -(w_m * xi_shift(eta_m) + w_p * xi_shift(eta_p)) / xi0
            return _Frame(eta, eta_m, eta_p, eta_mh, eta_ph, xi_mh, xi_ph, w_m, w_p, w_0)
        return frame

    def stencil_residual(self, pairs):
        """numkernel.MPScalars.stencil_residual at an exact frame (_Frame): exactly 0 when
        every sum equals E p(x_0), else in floats."""
        def residual(fr):
            worst = _MAG_ZERO
            for p, E in pairs:
                pu = p(fr.eta)
                s, ref = fr.apply(p, pu), E * pu
                if not (s - ref).is_zero():
                    s, ref = s.to_mpc(), ref.to_mpc()
                    worst = max(worst, abs(s - ref) / (abs(s) + abs(ref) + 1))
            return worst
        return residual

    is_zero = staticmethod(QQi.is_zero)
    conj = staticmethod(QQi.conjugate)
    to_mpc = staticmethod(QQi.to_mpc)

    @staticmethod
    def magnitude(x) -> mp.mpf:
        """The trivial absolute value: 0 for an exact zero, 1 otherwise."""
        return _MAG_ZERO if x.is_zero() else _MAG_ONE


def fraction_from_decimal(s: str) -> Fraction:
    """Exact Fraction from a decimal string like '-1.25' or '3/2'."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(s)
