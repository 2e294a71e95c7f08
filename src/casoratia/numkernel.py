"""Working precision, shifted factorials, the per-point kernels and the mpmath backend.

All floating computation runs on mpmath at an explicit bit precision; the
escalation ladder doubles bits when a certificate fails.  Scalars are plain
``mpmath.mpc`` values under an active precision context (``workbits``), handled
by the ``MPScalars`` backend; exact Gaussian-rational scalars from
:mod:`casoratia.exact` flow through the same generic routines via operator
overloading and the ``ExactScalars`` backend.  Each backend has one absolute
value, ``magnitude`` (``abs`` here), and every gate of the construction is one
comparison of magnitudes against its tolerance, written once for both.

The per-point kernels are written once too, in ScalarKernels, which both backends
inherit: Horner's rule, the Laplace recursion behind the cofactor rows of a
Casoratian frame, the ratios of affine products that give the etas, potentials and
row weights of the ladder and H~_D frames, the frames themselves and the residual of
a difference-operator stencil.  They run on the backend's primitives: a value is
loaded once and stays loaded from kernel to kernel, None being an exact zero, and is
stored as a scalar only where a report prints it or a gate compares it.  On floats
the loaded type is the Gaussian float: a Python int pair holding the real and
imaginary parts, scaled by a power of two kept with the value, as ``mpmath.libmp``
does underneath each ``mpf`` (Brent & Zimmermann, *Modern Computer Arithmetic*,
ch. 3), with its product, sum and quotient (gmul, gadd, gdiv, gdot), as in the zero
grid of dortho; it becomes an mpc (gstore) rounded to nearest at the ambient
precision, and a gate compares a magnitude (gabs) or, exactly, squared ones (gle, gbelow).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero

DEFAULT_BITS = 256
# radius of the eta circle the float extraction nodes lie on (cH, W and AW alike)
NODE_RADIUS = 2
# radius of the circle the held-out nodes lie on: off the fit circle, so an error that
# aliases onto the fit coefficients shows at every held-out node
HELD_RADIUS = 5 * NODE_RADIUS / 4
HELD_OUT = 4    # held-out nodes per extraction, gated against the fitted polynomial
GUARD_BITS = 32  # bits the Gaussian-float kernels carry beyond mp.mp.prec


@contextlib.contextmanager
def workbits(bits: int):
    """Temporarily set the mpmath working precision in bits."""
    old = mp.mp.prec
    mp.mp.prec = bits
    try:
        yield
    finally:
        mp.mp.prec = old


def jitter(salt: str) -> float:
    """A fraction in [0, 1) fixed by the salt."""
    h = hashlib.sha256(salt.encode()).digest()
    return int.from_bytes(h[:4], "big") / 2**32


def _van_der_corput(k: int) -> Fraction:
    """The binary digits of k mirrored behind the binary point: 1/2, 1/4, 3/4, 1/8, ...
    for k = 1, 2, 3, 4; the first 2^m of them are the multiples of 2^-m in [0, 1)."""
    return Fraction(int(f"{k:b}"[::-1], 2), 1 << k.bit_length())


def pochhammer(a, n: int):
    """Shifted factorial (a)_n = a (a+1) ... (a+n-1); (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    out = _one_like(a)
    for k in range(n):
        out = out * (a + k)
    return out


def q_pochhammer(a, q, n: int):
    """q-shifted factorial (a;q)_n = prod_{i<n} (1 - a q^i); (a;q)_0 = 1."""
    if n < 0:
        raise ValueError("q_pochhammer order must be nonnegative")
    out = _one_like(a)
    aq = a
    for _ in range(n):
        out = out * (1 - aq)
        aq = aq * q
    return out


def _one_like(a):
    # exact scalars: x/x would be unsafe for zero; use 0*a + 1 via operator overloads
    return mp.mpc(1) if isinstance(a, (int, float, complex, mp.mpf, mp.mpc)) else a * 0 + 1


_ZERO, _ONE, _I = mp.mpc(0), mp.mpc(1), mp.mpc(0, 1)


def mpc_parts(x) -> tuple:
    """The raw (re, im) mpf tuples of a float scalar at its own precision: unlike
    mp.mpc(x), no rounding to the ambient precision comes first."""
    if isinstance(x, mp.mpc):
        return x._mpc_
    if isinstance(x, mp.mpf):
        return x._mpf_, fzero
    return mp.mpc(x)._mpc_


def _shift(m: int, sh: int) -> int:
    """m 2^sh, rounded down."""
    return m << sh if sh >= 0 else m >> -sh


# Gaussian floats: (re, im, exp) holds (re + i im) 2^exp with int parts, about w bits wide;
# None is an exact zero.  Each product and quotient is cut back to w bits, as an mpc
# operation rounds to its precision; a sum is aligned to its larger exponent.

def gload(z, w: int):
    """The Gaussian float of a finite complex z, its larger part w bits wide (z's bits
    past w cut off).  ValueError for an infinite or nan part: its mantissa is 0, and it
    must not pass for zero."""
    if type(z) is not mp.mpc:
        z = mp.mpc(z)
    (sr, mr, er, br), (si, mi, ei, bi) = z._mpc_
    if (not mr and er) or (not mi and ei):
        raise ValueError(f"non-finite value {z} in a fixed-point kernel")
    if not (mr or mi):
        return None
    e = max(er + br if mr else ei + bi, ei + bi if mi else er + br) - w
    return _shift(-mr if sr else mr, er - e), _shift(-mi if si else mi, ei - e), e


def gstore(z, prec: int):
    """The mpc of a Gaussian float, rounded to nearest at prec bits."""
    if z is None:
        return _ZERO
    re, im, exp = z
    return mp.make_mpc((from_man_exp(re, exp, prec, "n"), from_man_exp(im, exp, prec, "n")))


def gmul(a, b, w: int):
    if a is None or b is None:
        return None
    (ar, ai, ae), (br, bi, be) = a, b
    re, im = ar * br - ai * bi, ar * bi + ai * br
    s = max(re.bit_length(), im.bit_length()) - w
    return (re >> s, im >> s, ae + be + s) if s > 0 else (re, im, ae + be)


def gadd(a, b):
    if a is None or b is None:
        return b if a is None else a
    (ar, ai, ae), (br, bi, be) = a, b
    if ae < be:
        (ar, ai, ae), (br, bi, be) = b, a
    return ar + (br >> ae - be), ai + (bi >> ae - be), ae


def gneg(a):
    return None if a is None else (-a[0], -a[1], a[2])


def gdiv(a, b, w: int):
    if b is None:
        raise ZeroDivisionError("division by zero in a fixed-point kernel")
    if a is None:
        return None
    (ar, ai, ae), (br, bi, be) = a, b
    k = w + max(br.bit_length(), bi.bit_length()) - max(ar.bit_length(), ai.bit_length()) + 2
    n = br * br + bi * bi
    return (_shift(ar * br + ai * bi, k) // n, _shift(ai * br - ar * bi, k) // n, ae - be - k)


def gabs(z) -> mp.mpf:
    """|z| of a Gaussian float as an mpf at the ambient precision, by integer square root."""
    if z is None:
        return mp.mpf(0)
    re, im, e = z
    return mp.make_mpf(from_man_exp(isqrt(re * re + im * im), e, mp.mp.prec, "n"))


def gle(a, b) -> bool:
    """Whether |a| <= |b| for Gaussian floats a and b: exactly, on squares."""
    if a is None or b is None:
        return a is None
    (ar, ai, ae), (br, bi, be) = a, b
    na, nb, d = ar * ar + ai * ai, br * br + bi * bi, 2 * (ae - be)
    return na << d <= nb if d >= 0 else na <= nb << -d


def gbelow(z, bound) -> bool:
    """Whether |z| < bound, for a Gaussian float z and an mpf bound >= 0: exactly (gle)."""
    _, man, exp, _ = bound._mpf_
    return not gle((man, 0, exp) if man else None, z)


def gdot(xs, ys, w: int):
    """sum_k xs[k] ys[k] over Gaussian floats, each product cut back to w bits."""
    s = None
    for x, y in zip(xs, ys):
        s = gadd(s, gmul(x, y, w))
    return s


def _quarter_turn(z, turns: int):
    """i^turns z, exactly: a Gaussian float's int pair turned a quarter at a time."""
    for _ in range(turns % 4 if z else 0):
        z = -z[1], z[0], z[2]
    return z


@functools.cache
def _laplace_plan(n: int) -> tuple:
    """The Laplace recursion of _gcofactors for n rows, as bit masks:
    per column k, each row subset of size k + 1 with its expansion terms
    (row, the subset without it, whether the term is subtracted)."""
    return tuple(tuple((sum(1 << r for r in rows),
                        tuple((r, sum(1 << q for q in rows if q != r), (i + k) % 2 == 1)
                              for i, r in enumerate(rows)))
                       for rows in combinations(range(n), k + 1))
                 for k in range(n - 1))


def _gproduct(factors, x, w: int, one, mul, add):
    """prod (c0 + c1 x) over the loaded affine factors (c0, c1) at the loaded point x, by
    a backend's primitives mul and add; one for an empty product."""
    out = one
    for k, (c0, c1) in enumerate(factors):
        f = add(c0, mul(c1, x, w))
        out = mul(out, f, w) if k else f
    return out


def _gcofactors(sc, block, w: int) -> list:
    """Cofactors C_j of the last column of [block | y], block n x (n-1) loaded values of
    the backend sc: det[block | y] = sum_j C_j y_j, each C_j a loaded value (None for 0).

    The minors grow a column at a time by Laplace expansion over row subsets, shared by
    the C_j, with no division.  On floats C_j is within a small multiple of 2^-w of the
    permanent of the entry magnitudes of its minor.
    """
    mul, add, neg = sc._mul, sc._add, sc._neg
    n = len(block)
    minors = {0: sc._one(w)}   # row mask -> minor on those rows and the first columns
    for k, step in enumerate(_laplace_plan(n)):
        grown = {}
        for rows, terms in step:
            s = None
            for r, sub, negate in terms:
                t = mul(block[r][k], minors[sub], w)
                s = add(s, neg(t) if negate else t)
            grown[rows] = s
        minors = grown
    full = (1 << n) - 1
    return [neg(minors[full - (1 << j)]) if (n - 1 - j) % 2 else minors[full - (1 << j)]
            for j in range(n)]


class _Horner:
    """The evaluator v -> sum_k c_k v^k of ScalarKernels.horner, on the backend's loaded values.

    Horner's rule with each product cut back to w = mp.mp.prec + GUARD_BITS bits on floats:
    the error is a small multiple of 2^-w sum_k |c_k v^k|, as for mpc Horner.  The
    coefficients are loaded once per w.  A call gives the value as a scalar; fixed gives
    its loaded value at a loaded point, for the kernels that go on in loaded values.
    """

    __slots__ = ("sc", "coeffs", "loaded")

    def __init__(self, sc, coeffs):
        self.sc, self.coeffs = sc, coeffs
        self.loaded = None   # (w, the coefficients loaded at w, highest first)

    def __call__(self, v):
        sc, w = self.sc, mp.mp.prec + GUARD_BITS
        return sc._store(self.fixed(sc._load(v, w), w), w - GUARD_BITS)

    def fixed(self, x, w: int):
        """The loaded value at the loaded point x, at w bits."""
        sc = self.sc
        if self.loaded is None or self.loaded[0] != w:
            self.loaded = w, [sc._load(c, w) for c in reversed(self.coeffs)]
        mul, add = sc._mul, sc._add
        cs = iter(self.loaded[1])
        acc = next(cs)
        for c in cs:
            acc = add(mul(acc, x, w), c)
        return acc


class _Row(NamedTuple):
    """The evaluator vals -> sum_j c_j vals[j] of ScalarKernels.cofactor_row, vals the last
    column's loaded values p(eta_j): the c_j as loaded values of the backend sc."""

    cs: tuple
    sc: object

    def __call__(self, vals):
        sc, w = self.sc, mp.mp.prec + GUARD_BITS
        return sc._store(sc._dot(self.cs, vals, w), w - GUARD_BITS)


class _Affine:
    """The evaluator of ScalarKernels.affine_ratios, its constants loaded at w bits: a call
    gives the values as scalars, fixed as loaded values at a loaded point."""

    __slots__ = ("sc", "loaded", "w", "one")

    def __init__(self, sc, ratios, w: int):
        load = sc._load
        self.loaded = [[[(load(c0, w), load(c1, w)) for c0, c1 in fs] for fs in ratio]
                       for ratio in ratios]
        self.sc, self.w, self.one = sc, w, sc._one(w)

    def __call__(self, u):
        sc = self.sc
        return [sc._store(z, self.w - GUARD_BITS) for z in self.fixed(sc._load(u, self.w))]

    def fixed(self, x):
        w, one, sc, out = self.w, self.one, self.sc, []
        mul, add, div = sc._mul, sc._add, sc._div
        for num, den in self.loaded:
            z = _gproduct(num, x, w, one, mul, add)
            out.append(div(z, _gproduct(den, x, w, one, mul, add), w) if den else z)
        return out


def _stored(part: int, k: int):
    return property(lambda fr: fr.sc._store(fr[part][k], mp.mp.prec))


class _Frame(NamedTuple):
    """An H~_D frame of ScalarKernels.htilde_frames in the loaded values of the backend sc:
    xs, the etas at x and x -+ i gamma, and ws the weights of (H~_D p)(x) = w_0 p(eta) +
    w_m p(eta_m) + w_p p(eta_p); half, the etas at x -+ i gamma/2 and Xi_D there; each
    reads as a scalar by its name."""

    xs: tuple
    ws: tuple
    half: tuple
    sc: object

    eta, eta_m, eta_p = (_stored(0, k) for k in range(3))
    w_0, w_m, w_p = (_stored(1, k) for k in range(3))
    eta_mh, eta_ph, xi_mh, xi_ph = (_stored(2, k) for k in range(4))

    def apply(self, p, pu=None):
        """(H~_D p)(x) as a scalar, in loaded values; pu is p(eta), if already evaluated."""
        sc, w, ev = self.sc, mp.mp.prec + GUARD_BITS, p.evaluator()
        vals = [ev.fixed(x, w) for x in self.xs[1:]]
        vals.insert(0, ev.fixed(self.xs[0], w) if pu is None else sc._load(pu, w))
        return sc._store(sc._dot(self.ws, vals, w), w - GUARD_BITS)


class ScalarKernels:
    """The per-point kernels of both scalar backends, on the backend's primitives: _load(z,
    w) and _store(z, prec) between a scalar and a loaded value (None an exact zero, which
    costs no operation), _one(w), _mul, _add, _neg, _div, _dot, _mag(z) (an mpf), _below(z,
    bound) and _turn(z, k) (i^k z, exactly).  On floats a loaded value is a Gaussian float
    of w = mp.mp.prec + GUARD_BITS bits; on the exact backend it is the scalar itself.
    """

    def horner(self, coeffs):
        """The evaluator v -> sum_k coeffs[k] v^k (_Horner)."""
        return _Horner(self, coeffs)

    def affine_ratios(self, ratios):
        """The evaluator u -> [prod_num (c0 + c1 u) / prod_den (c0 + c1 u) for (num, den) in
        ratios], num and den lists of affine factors (c0, c1), at the precision current
        here (_Affine).

        The constants are loaded once, at w = mp.mp.prec + GUARD_BITS bits; each factor and
        each partial product is a loaded value, so on floats every value is within a small
        multiple of 2^-w per factor of the mpc formula, relative to the product of
        max(|c0|, |c1 u|) over its factors.  A zero constant costs no operation.
        """
        return _Affine(self, ratios, mp.mp.prec + GUARD_BITS)

    def ladder_frames(self, eta_ratios, weight_ratios):
        """The evaluator u -> (etas, {kind: row weights}) of a ladder frame in loaded values,
        as cofactor_row takes them: the etas of eta_ratios and, per kind, the running
        products 1, f_1, f_1 f_2, ... of the affine ratios weight_ratios[kind] (_Affine)."""
        w = mp.mp.prec + GUARD_BITS
        etas, one, load, mul = _Affine(self, eta_ratios, w), self._one(w), self._load, self._mul
        kinds = {k: _Affine(self, r, w) for k, r in weight_ratios.items()}

        def frame(u):
            x, cum = load(u, w), {}
            for k, factors in kinds.items():
                c = cum[k] = [one]
                for f in factors.fixed(x):
                    c.append(mul(c[-1], f, w))
            return etas.fixed(x), cum
        return frame

    def htilde_frames(self, ratios, xi, xi_shift, bounds):
        """The evaluator u -> the H~_D frame at the sample argument u (_Frame), or None near a
        pole, in loaded values of mp.mp.prec + GUARD_BITS bits as current here: from the
        affine ratios of eta at x, x -+ i gamma, x -+ i gamma/2 and of V, V* at lambda_D (u
        loaded once), w_m = V xi_ph / xi_mh and w_p = V* xi_mh / xi_ph, Xi_D = xi at the
        half shifts, and w_0 = -(w_m r_m + w_p r_p), r_-+ = xi_shift (Xi_D at lambda +
        delta) at x -+ i gamma over its value at x.  A pole is a magnitude of Xi_D below
        bounds[0] at a half shift or of xi_shift below bounds[1] at x (_below)."""
        w = mp.mp.prec + GUARD_BITS
        affine, ev, evs = _Affine(self, ratios, w), xi.evaluator(), xi_shift.evaluator()
        load, mul, neg, div, dot, below = (self._load, self._mul, self._neg, self._div,
                                           self._dot, self._below)

        def frame(u):
            x0, xm, xp, xmh, xph, v, vs = affine.fixed(load(u, w))
            xi_mh, xi_ph, xi0 = ev.fixed(xmh, w), ev.fixed(xph, w), evs.fixed(x0, w)
            if below(xi_mh, bounds[0]) or below(xi_ph, bounds[0]) or below(xi0, bounds[1]):
                return None
            wm, wp = div(mul(v, xi_ph, w), xi_mh, w), div(mul(vs, xi_mh, w), xi_ph, w)
            w0 = neg(div(dot((wm, wp), (evs.fixed(xm, w), evs.fixed(xp, w)), w), xi0, w))
            return _Frame((x0, xm, xp), (w0, wm, wp), (xmh, xph, xi_mh, xi_ph), self)
        return frame

    def stencil_residual(self, pairs):
        """The evaluator frame -> the worst |s - E p(x_0)| / (|s| + |E p(x_0)| + 1), s = sum_k
        w_k p(x_k), over the (Poly p, E) pairs at an H~_D frame's points x_k and weights w_k
        (_Frame), in loaded values of mp.mp.prec + GUARD_BITS bits as current here: each
        E loaded once, p(x_k) by _Horner.fixed; only the three magnitudes (_mag) are mpf."""
        w = mp.mp.prec + GUARD_BITS
        mul, add, neg, dot, mag = self._mul, self._add, self._neg, self._dot, self._mag
        loaded = [(p.evaluator(), self._load(E, w)) for p, E in pairs]

        def residual(fr):
            worst = mp.mpf(0)
            for ev, E in loaded:
                vals = [ev.fixed(x, w) for x in fr.xs]
                s, ref = dot(fr.ws, vals, w), mul(E, vals[0], w)
                worst = max(worst, mag(add(s, neg(ref))) / (mag(s) + mag(ref) + 1))
            return worst
        return residual

    def cofactor_row(self, head, last_weights, turns: int):
        """The evaluator vals -> i^turns det[w_j p_k(eta_j) | v_j vals_j] at a frame (_Row),
        head the (values p_k(eta_j), row weights w) of each head column and v the last
        column's row weights, all loaded values (ladder_frames).  Each head entry is value
        times weight, its cofactors come from the Laplace recursion (_gcofactors), the phase
        is a quarter-turn (_turn) and v_j one more product, at mp.mp.prec + GUARD_BITS bits
        as current here; row(vals) sums c_j vals_j at the caller's precision and stores
        once (on floats, rounded to nearest)."""
        w, mul, turn = mp.mp.prec + GUARD_BITS, self._mul, self._turn
        block = [[mul(vals[j], ws[j], w) for vals, ws in head] for j in range(len(last_weights))]
        cs = [mul(turn(c, turns), v, w) for c, v in zip(_gcofactors(self, block, w), last_weights)]
        return _Row(tuple(cs), self)


class MPScalars(ScalarKernels):
    """mpmath scalar backend; elements are mpc under the ambient precision.

    Besides the field constants and conversions, this backend and
    ``exact.ExactScalars`` answer the questions on which the construction
    differs between them: sample points and extraction nodes, interpolation,
    q**t and the absolute value ``magnitude``.  The pivot choice and every gate
    are written once on ``magnitude``, in polycore and miop, and the per-point
    kernels once on the primitives of each backend (ScalarKernels).  Here
    ``magnitude`` is ``abs`` and the primitives are the Gaussian-float
    operations.  The backend holds no precision of its own: every value is made
    at the ambient one (``workbits``).
    """

    name = "float"

    @property
    def zero(self):
        return _ZERO

    @property
    def one(self):
        return _ONE

    @property
    def i(self):
        return _I

    def from_int(self, n: int):
        return mp.mpc(n)

    def from_fraction(self, re, im=0):
        def conv(v):
            v = Fraction(v)
            return mp.mpf(v.numerator) / v.denominator
        return mp.mpc(conv(re), conv(im))

    @staticmethod
    def is_zero(x) -> bool:
        return x == 0

    magnitude = staticmethod(abs)   # the absolute value every gate compares

    @staticmethod
    def to_mpc(x):
        return mp.mpc(x)

    def q_power(self, t, q):
        """q**t for rational t, at the working precision."""
        t = Fraction(t)
        return mp.power(mp.mpc(q), mp.mpf(t.numerator) / t.denominator)

    @staticmethod
    def sample_args(fam, count: int, lam, salt: str):
        return fam.sample_args(count, lam, salt)

    @staticmethod
    def extraction_nodes(fam, lam, fit: int, salt: str, attempt: int):
        """(ids, node): the ids of the nodes of an extraction with fit unknowns, K fit
        nodes and then HELD_OUT held-out ones, and node(id) -> (sample arg, eta).

        K = 2^ceil(log2 fit).  Fit node k >= 0 is eta = rho e^{2 pi i (theta + v_k)} on
        the circle |eta| = rho = NODE_RADIUS, with v_k the base-2 van der Corput point
        of k, so the K fit nodes are rho times the K-th roots of unity, turned by theta,
        and the first K of the 2K ones.  Held-out node ~j is
        HELD_RADIUS e^{2 pi i (theta + (j + 1/2) / HELD_OUT)}.  theta in [0, 1) is
        salted by salt and the rotation attempt, not by K: a node depends on
        (salt, attempt, id) only.
        """
        theta = mp.mpf(jitter(f"{salt}|{attempt}"))

        def node(k):
            if k >= 0:
                radius, turn = NODE_RADIUS, _van_der_corput(k)
            else:
                radius, turn = HELD_RADIUS, Fraction(2 * ~k + 1, 2 * HELD_OUT)
            eta = radius * mp.expjpi(2 * theta + mp.mpf(2 * turn.numerator) / turn.denominator)
            return fam.arg_of_eta(eta), eta
        return list(range(1 << (fit - 1).bit_length())) + [~j for j in range(HELD_OUT)], node

    @staticmethod
    def interpolator(etas):
        """coeffs(vals, deg): the eta coefficients 0..K-1 of the polynomial of degree below
        K = len(etas) with the values vals at the fit nodes etas of extraction_nodes.

        Node k is eta_0 w^r(k), w = e^{2 pi i / K} and r(k) the log2(K)-bit reversal of
        k, so c_m = eta_0^{-m} A_m / K with A_m = sum_j x_j w^{-jm} the inverse DFT of
        x_j = v_r(j): the values come in the bit-reversed order that the iterative
        radix-2 FFT takes (Cooley & Tukey 1965), which needs (K/2) log2(K) products.
        All K coefficients come back whatever deg is: those past deg must vanish.
        """
        K = len(etas)
        twiddles = [mp.expjpi(mp.mpf(-2 * t) / K) for t in range(K // 2)]
        inv, scale = 1 / etas[0], [mp.mpc(1) / K]
        for _ in range(K - 1):
            scale.append(scale[-1] * inv)

        def coeffs(vals, deg):
            a, half = list(vals), 1
            while half < K:
                step = K // (2 * half)
                for start in range(0, K, 2 * half):
                    for j in range(start, start + half):
                        t = twiddles[(j - start) * step] * a[j + half]
                        a[j], a[j + half] = a[j] + t, a[j] - t
                half *= 2
            return [c * s for c, s in zip(a, scale)]
        return coeffs

    # -- primitives of the kernels: Gaussian floats ------------------------------------

    _load, _store, _mul, _add, _neg, _div, _dot, _mag, _below, _turn = map(
        staticmethod, (gload, gstore, gmul, gadd, gneg, gdiv, gdot, gabs, gbelow, _quarter_turn))

    @staticmethod
    def _one(w: int):
        return 1 << w, 0, -w
