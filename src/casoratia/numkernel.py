"""Working precision, shifted factorials and the mpmath scalar backend.

All floating computation runs on mpmath at an explicit bit precision; the
escalation ladder doubles bits when a certificate fails.  Scalars are plain
``mpmath.mpc`` values under an active precision context (``workbits``), handled
by the ``MPScalars`` backend; exact Gaussian-rational scalars from
:mod:`casoratia.exact` flow through the same generic routines via operator
overloading and the ``ExactScalars`` backend.  Each backend has one absolute
value, ``magnitude`` (``abs`` here), and every gate of the construction is one
comparison of magnitudes against its tolerance, written once for both.

The hot loops of the float backend run in Gaussian fixed point: Python int
pairs holding real and imaginary parts scaled by a power of two, with the
exponent managed per point (Horner), per row and column (cofactors) or per
value (the Gaussian floats of the other kernels), as ``mpmath.libmp`` does
underneath each ``mpf`` (Brent & Zimmermann, *Modern Computer Arithmetic*,
ch. 3).  They are Horner evaluation, the cofactor rows of a Casoratian frame
(from the Horner integers of the head columns to the detPoly value at any last
column), the ratios of affine products that give the etas, potentials and row
weights of a frame, and the residual of a difference-operator stencil.  Values
convert from and to ``mpc`` only at the kernel boundary; the results are
rounded to nearest at the ambient precision.
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
GUARD_BITS = 32  # fraction bits the fixed-point kernels carry beyond mp.mp.prec


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
    if isinstance(a, (int, float, complex)):
        return mp.mpc(1)
    if isinstance(a, (mp.mpf, mp.mpc)):
        return mp.mpc(1)
    # exact scalars: x/x would be unsafe for zero; use 0*a + 1 via operator overloads
    return a * 0 + 1


_ZERO, _ONE, _I = mp.mpc(0), mp.mpc(1), mp.mpc(0, 1)


def mpc_parts(x) -> tuple:
    """The raw (re, im) mpf tuples of a float scalar at its own precision: unlike
    mp.mpc(x), no rounding to the ambient precision comes first."""
    if isinstance(x, mp.mpc):
        return x._mpc_
    if isinstance(x, mp.mpf):
        return x._mpf_, fzero
    return mp.mpc(x)._mpc_


def _parts(z):
    """(re mantissa, re exponent, im mantissa, im exponent, top) of a finite complex z.

    The mantissas are signed ints, z = (mr 2^er) + i (mi 2^ei) exactly, and both
    parts are below 2^top in magnitude (top None for z = 0).  ValueError for an
    infinite or nan part: its mantissa is 0, and it must not pass for zero.
    """
    if type(z) is not mp.mpc:
        z = mp.mpc(z)
    (sr, mr, er, br), (si, mi, ei, bi) = z._mpc_
    if (not mr and er) or (not mi and ei):
        raise ValueError(f"non-finite value {z} in a fixed-point kernel")
    top = er + br if mr else None
    if mi and (top is None or ei + bi > top):
        top = ei + bi
    return -mr if sr else mr, er, -mi if si else mi, ei, top


def _shift(m: int, sh: int) -> int:
    """m 2^sh, rounded down."""
    return m << sh if sh >= 0 else m >> -sh


@functools.cache
def _laplace_plan(n: int) -> tuple:
    """The Laplace recursion of polycore.last_column_cofactors for n rows, as bit masks:
    per column k, each row subset of size k + 1 with its expansion terms
    (row, the subset without it, whether the term is subtracted)."""
    return tuple(tuple((sum(1 << r for r in rows),
                        tuple((r, sum(1 << q for q in rows if q != r), (i + k) % 2 == 1)
                              for i, r in enumerate(rows)))
                       for rows in combinations(range(n), k + 1))
                 for k in range(n - 1))


def _gcofactors(block, f: int) -> list:
    """Cofactors C_j of the last column of [block | y], block n x (n-1) Gaussian floats:
    det[block | y] = sum_j C_j y_j, each C_j a Gaussian float.

    Every row, then every column, is scaled by an exact power of two that puts its
    largest part in [1/2, 1).  The division-free Laplace recursion of
    polycore.last_column_cofactors then runs on ints with f fraction bits, and the
    scalings come back exactly in the exponents.
    """
    n = len(block)
    tops = [[None if z is None else z[2] + max(z[0].bit_length(), z[1].bit_length())
             for z in row] for row in block]
    rexp = [max((t for t in row if t is not None), default=0) for row in tops]
    cexp = [max((row[k] - r for row, r in zip(tops, rexp) if row[k] is not None), default=0)
            for k in range(n - 1)]
    a = [[(0, 0) if z is None else (_shift(z[0], z[2] - r - c + f), _shift(z[1], z[2] - r - c + f))
          for z, c in zip(row, cexp)] for row, r in zip(block, rexp)]
    minors = {0: (1 << f, 0)}   # row mask -> minor on those rows and the first columns
    for k, step in enumerate(_laplace_plan(n)):
        grown = {}
        for rows, terms in step:
            sr = si = 0
            for r, sub, negate in terms:
                xr, xi = a[r][k]
                mr, mi = minors[sub]
                if negate:
                    xr, xi = -xr, -xi
                sr += xr * mr - xi * mi
                si += xr * mi + xi * mr
            grown[rows] = (sr >> f, si >> f)
        minors = grown
    exp = sum(rexp) + sum(cexp) - f
    out = []
    for j in range(n):
        mr, mi = minors[(1 << n) - 1 - (1 << j)]
        if (n - 1 - j) % 2:
            mr, mi = -mr, -mi
        out.append((mr, mi, exp - rexp[j]) if mr or mi else None)
    return out


def _quarter_turn(z, turns: int):
    """i^turns z, exactly: a Gaussian float's int pair turned a quarter at a time."""
    for _ in range(turns % 4 if z else 0):
        z = -z[1], z[0], z[2]
    return z


def _to_mpc(re: int, im: int, exp: int, prec: int):
    """(re + i im) 2^exp rounded to nearest at prec bits."""
    return mp.make_mpc((from_man_exp(re, exp, prec, "n"), from_man_exp(im, exp, prec, "n")))


# Gaussian floats: (re, im, exp) holds (re + i im) 2^exp with int parts, about w bits wide;
# None is an exact zero.  Each product and quotient is cut back to w bits, as an mpc
# operation rounds to its precision; a sum is aligned to its larger exponent.

def _gload(pt, w: int):
    """The Gaussian float of a _parts tuple, its top bit at 2^w."""
    mr, er, mi, ei, top = pt
    if top is None:
        return None
    e = top - w
    return _shift(mr, er - e), _shift(mi, ei - e), e


def _gstore(z, prec: int):
    return _ZERO if z is None else _to_mpc(*z, prec)


def _gmul(a, b, w: int):
    if a is None or b is None:
        return None
    (ar, ai, ae), (br, bi, be) = a, b
    re, im = ar * br - ai * bi, ar * bi + ai * br
    s = max(re.bit_length(), im.bit_length()) - w
    return (re >> s, im >> s, ae + be + s) if s > 0 else (re, im, ae + be)


def _gadd(a, b):
    if a is None or b is None:
        return b if a is None else a
    (ar, ai, ae), (br, bi, be) = a, b
    if ae < be:
        (ar, ai, ae), (br, bi, be) = b, a
    return ar + (br >> ae - be), ai + (bi >> ae - be), ae


def _gdiv(a, b, w: int):
    if b is None:
        raise ZeroDivisionError("division by zero in a fixed-point kernel")
    if a is None:
        return None
    (ar, ai, ae), (br, bi, be) = a, b
    k = w + max(br.bit_length(), bi.bit_length()) - max(ar.bit_length(), ai.bit_length()) + 2
    n = br * br + bi * bi
    return (_shift(ar * br + ai * bi, k) // n, _shift(ai * br - ar * bi, k) // n, ae - be - k)


def _gproduct(factors, x, w: int):
    """prod (c0 + c1 x) over the loaded affine factors (c0, c1) at the loaded point x."""
    out = (1 << w, 0, -w)   # one, for an empty product
    for k, (c0, c1) in enumerate(factors):
        f = _gadd(c0, _gmul(c1, x, w))
        out = _gmul(out, f, w) if k else f
    return out


def _gabs(z, e: int) -> int:
    """|z| in units of 2^e (z's parts shifted there), by integer square root."""
    if z is None:
        return 0
    re, im, ze = z
    re, im = _shift(re, ze - e), _shift(im, ze - e)
    return isqrt(re * re + im * im)


class _Horner:
    """The evaluator v -> sum_k c_k v^k of MPScalars.horner, in Gaussian fixed point.

    The coefficients are converted once.  A point v is rescaled to v' = v 2^-s, s the
    top bit of v, and the loop runs on the coefficients c_k 2^(k s), aligned per point,
    with w fraction bits relative to 2^E, E = max_k (top(c_k) + k s).  As |v'| may be as
    small as 1/2, 2^E can exceed the largest term |c_k v^k| by 2^(deg + 1), so w is
    mp.mp.prec + GUARD_BITS + len(coeffs): the error is then a small multiple of
    2^-(mp.mp.prec + GUARD_BITS) sum_k |c_k v^k|, as for mpc Horner.  A call gives the
    value as an mpc; fixed gives its Gaussian float, for the kernels that go on in ints.
    """

    __slots__ = ("cs", "tops", "c0")

    def __init__(self, coeffs):
        self.cs = [_parts(c) for c in coeffs]
        self.tops = [(k, t) for k, (*_, t) in enumerate(self.cs) if t is not None]
        self.c0 = mp.mpc(coeffs[0])

    def __call__(self, v):
        prec = mp.mp.prec
        pt = _parts(v)
        if pt[4] is None:
            return +self.c0
        return _gstore(self.fixed(pt, prec), prec)

    def fixed(self, pt, prec: int):
        """The Gaussian float of the value at the point of the _parts tuple pt."""
        vr, vre, vi, vie, s = pt
        if s is None:
            return _gload(self.cs[0], prec + GUARD_BITS)
        if not self.tops:
            return None
        e = max(t + k * s for k, t in self.tops)
        w = prec + GUARD_BITS + len(self.cs)
        fixed = [(_shift(mr, er + k * s + w - e), _shift(mi, ei + k * s + w - e))
                 for k, (mr, er, mi, ei, _) in enumerate(self.cs)]
        fixed.reverse()
        xr, xi = _shift(vr, vre - s + w), _shift(vi, vie - s + w)
        ar, ai = fixed[0]
        if xi:
            for dr, di in fixed[1:]:
                ar, ai = ((ar * xr - ai * xi) >> w) + dr, ((ar * xi + ai * xr) >> w) + di
        else:
            for dr, di in fixed[1:]:
                ar, ai = ((ar * xr) >> w) + dr, ((ai * xr) >> w) + di
        return ar, ai, e - w


class _Row(NamedTuple):
    """The evaluator p -> sum_j c_j p(eta_j) of MPScalars.cofactor_row: the c_j as Gaussian
    floats and the etas as _parts tuples."""

    cs: tuple
    pts: tuple

    def __call__(self, p):
        prec = mp.mp.prec
        w, ev, s = prec + GUARD_BITS, p.evaluator(), None
        for c, pt in zip(self.cs, self.pts):
            s = _gadd(s, _gmul(c, ev.fixed(pt, prec), w))
        return _gstore(s, prec)


class MPScalars:
    """mpmath scalar backend; elements are mpc under the ambient precision.

    Besides the field constants and conversions, this backend and
    ``exact.ExactScalars`` answer the questions on which the construction
    differs between them: sample points and extraction nodes, interpolation,
    q**t, Horner evaluation, the Casoratian cofactor rows, ratios of affine
    products, stencil residuals, and the absolute value ``magnitude`` with the
    ``trim_threshold`` of ``Poly.trim``.  The pivot choice, trimming and every
    gate are written once on ``magnitude``, in polycore and miop.  Here
    ``magnitude`` is ``abs``, the threshold is 2^(16 - bits), and the four
    kernels run in fixed point.
    """

    name = "float"

    def __init__(self, bits: int = DEFAULT_BITS):
        self.bits = bits
        self.trim_threshold = mp.mpf(2) ** (16 - bits)

    def at_bits(self, bits: int) -> "MPScalars":
        """This backend at a working precision of bits (trimming follows it)."""
        return self if bits == self.bits else MPScalars(bits)

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
    def conj(x):
        return mp.conj(x)

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
            return fam.arg_of_x(fam.recover_x(eta)), eta
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

    # -- fixed-point kernels -----------------------------------------------------

    @staticmethod
    def horner(coeffs):
        """The evaluator v -> sum_k coeffs[k] v^k, in Gaussian fixed point (_Horner)."""
        return _Horner(coeffs)

    @staticmethod
    def affine_ratios(ratios):
        """The evaluator u -> [prod_num (c0 + c1 u) / prod_den (c0 + c1 u) for (num, den) in
        ratios], num and den lists of affine factors (c0, c1), in Gaussian fixed point, at
        the precision current here.

        The constants are converted once, each factor object once, to w = mp.mp.prec +
        GUARD_BITS bits; each factor and each partial product is a Gaussian float of w
        bits, so every value is within a small multiple of 2^-w per factor of the mpc
        formula, relative to the product of max(|c0|, |c1 u|) over its factors.
        """
        prec = mp.mp.prec
        w = prec + GUARD_BITS
        made = {}

        def load(f):
            if id(f) not in made:
                made[id(f)] = tuple(_gload(_parts(c), w) for c in f)
            return made[id(f)]
        loaded = [[list(map(load, fs)) for fs in ratio] for ratio in ratios]

        def value(u):
            x = _gload(_parts(u), w)
            out = []
            for num, den in loaded:
                z = _gproduct(num, x, w)
                out.append(_gstore(_gdiv(z, _gproduct(den, x, w), w) if den else z, prec))
            return out
        return value

    @staticmethod
    def stencil_residual(stencil):
        """The evaluator (p, E) -> |s - E p(x_0)| / (|s| + |E p(x_0)| + 1), s = sum_k w_k p(x_k)
        over the stencil's (x_k, w_k), for a Poly p, in Gaussian fixed point.

        The points and weights are converted once, at the precision current here.  p is
        taken at each x_k on the Horner kernel's integers (_Horner.fixed), every product
        is a Gaussian float of mp.mp.prec + GUARD_BITS bits, and the three magnitudes are
        integer square roots at one exponent; only the residual becomes an mpf.
        """
        prec = mp.mp.prec
        w = prec + GUARD_BITS
        pts = [_parts(x) for x, _ in stencil]
        ws = [_gload(_parts(c), w) for _, c in stencil]

        def residual(p, E):
            ev = p.evaluator()
            vals = [ev.fixed(pt, prec) for pt in pts]
            s = None
            for c, v in zip(ws, vals):
                s = _gadd(s, _gmul(c, v, w))
            ref = _gmul(_gload(_parts(E), w), vals[0], w)
            d = _gadd(s, None if ref is None else (-ref[0], -ref[1], ref[2]))
            if d is None:
                return mp.mpf(0)
            e = max(z[2] + max(z[0].bit_length(), z[1].bit_length())
                    for z in (s, ref) if z is not None) - w
            den = _gabs(s, e) + _gabs(ref, e) + (1 << -e if e < 0 else 1)
            num = _gabs(d, e)
            k = prec + den.bit_length() - num.bit_length() + 2
            return mp.make_mpf(from_man_exp(_shift(num, k) // den, -k, prec, "n"))
        return residual

    @staticmethod
    def cofactor_row(etas, head, last_weights, turns: int):
        """The evaluator p -> detPoly at the frame of etas with the head columns and p as the
        last column: i^turns det[w_j p_k(eta_j) | v_j p(eta_j)], head the (Poly p_k, row
        weights w) of each head column and v the last column's row weights, in Gaussian
        fixed point.

        Each head entry is the Horner kernel's integers at eta_j (_Horner.fixed) times its
        weight; their cofactors come from the integer Laplace recursion (_gcofactors), the
        phase is a quarter-turn of the int pair and v_j a fixed-point product, all at
        mp.mp.prec + GUARD_BITS bits as current here.  row(p) sums c_j p(eta_j) on ints and
        rounds once, to nearest at the precision current at the call.
        """
        prec = mp.mp.prec
        w = prec + GUARD_BITS
        pts = tuple(map(_parts, etas))
        cols = [(p.evaluator(), [_gload(_parts(x), w) for x in ws]) for p, ws in head]
        block = [[_gmul(ev.fixed(pt, prec), ws[j], w) for ev, ws in cols]
                 for j, pt in enumerate(pts)]
        cs = [_gmul(_quarter_turn(c, turns), _gload(_parts(v), w), w)
              for c, v in zip(_gcofactors(block, w), last_weights)]
        return _Row(tuple(cs), pts)
