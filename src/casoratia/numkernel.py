"""Working precision, shifted factorials and the mpmath scalar backend.

All floating computation runs on mpmath at an explicit bit precision; the
escalation ladder doubles bits when a certificate fails.  Scalars are plain
``mpmath.mpc`` values under an active precision context (``workbits``), handled
by the ``MPScalars`` backend; exact Gaussian-rational scalars from
:mod:`casoratia.exact` flow through the same generic routines via operator
overloading and the ``ExactScalars`` backend.
"""

from __future__ import annotations

import contextlib
import hashlib
from fractions import Fraction

import mpmath as mp

from .polycore import lstsq_dense

DEFAULT_BITS = 256
# radius of the eta circle the float extraction nodes lie on (cH, W and AW alike)
NODE_RADIUS = 2
# radius of the circle the held-out nodes lie on: off the fit circle, so an error that
# aliases onto the fit coefficients shows at every held-out node
HELD_RADIUS = 5 * NODE_RADIUS / 4
HELD_OUT = 4    # held-out nodes per extraction, gated against the fitted polynomial


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


class MPScalars:
    """mpmath scalar backend; elements are mpc under the ambient precision.

    Besides the field constants and conversions, this backend and
    ``exact.ExactScalars`` answer every question on which the construction
    differs between them: pivot choice and zero skipping in elimination,
    negligible trailing coefficients, the interpolation fit, the residual
    gates, the pole test, sample points and extraction nodes, interpolation and
    q**t.  Here each answer is relative to a tolerance; the exact backend asks
    for exact zeros instead.
    """

    name = "float"
    pairing_extra = 12   # samples beyond the unknowns of a pairing bootstrap

    def __init__(self, bits: int = DEFAULT_BITS):
        self.bits = bits

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
        """(sample args, etas) of fit interpolation nodes, then HELD_OUT held-out ones.

        The fit nodes are eta_k = rho e^{2 pi i (theta + k) / fit} on the circle
        |eta| = rho = NODE_RADIUS, with theta in [0, 1) salted by salt and the
        rotation attempt.  The held-out nodes are HELD_OUT equally spaced points
        e^{2 pi i (theta + j + 1/2) / HELD_OUT} on the circle |eta| = HELD_RADIUS.
        """
        theta = mp.mpf(jitter(f"{salt}|{attempt}"))
        etas = [NODE_RADIUS * mp.expjpi(2 * (theta + k) / fit) for k in range(fit)]
        etas += [HELD_RADIUS * mp.expjpi(2 * (theta + j + mp.mpf(0.5)) / HELD_OUT)
                 for j in range(HELD_OUT)]
        return [fam.arg_of_x(fam.recover_x(e)) for e in etas], etas

    @staticmethod
    def interpolator(etas):
        """coeffs(vals, deg): the eta coefficients 0..deg of the polynomial with the
        values vals at the fit nodes etas, by the inverse DFT
        c_m = (1/K) sum_k v_k eta_k^{-m} (K = len(etas) > deg, nodes from
        extraction_nodes).  The powers eta_k^{-m} are made once and shared."""
        K = len(etas)
        inv = [1 / e for e in etas]
        rows = [[mp.mpc(1) / K] * K]
        for _ in range(K - 1):
            rows.append([w * i for w, i in zip(rows[-1], inv)])

        def coeffs(vals, deg):
            return [sum((w * v for w, v in zip(row, vals)), _ZERO) for row in rows[:deg + 1]]
        return coeffs

    # -- elimination and trimming ------------------------------------------------

    @staticmethod
    def pivot_row(a, col: int):
        """Row r >= col with the largest |a[r][col]| (partial pivoting), None if all vanish."""
        best, piv = mp.mpf(-1), None
        for r in range(col, len(a)):
            m = abs(a[r][col])
            if m > best:
                best, piv = m, r
        return None if best == 0 else piv

    @staticmethod
    def skippable(x) -> bool:
        """Never skip a product: the float path keeps every operation in order."""
        return False

    @staticmethod
    def scale(coeffs) -> mp.mpf:
        """Largest coefficient magnitude, 0 for none."""
        return max((abs(c) for c in coeffs), default=mp.mpf(0))

    def trim(self, coeffs):
        """coeffs without trailing entries below 2^(16 - bits) times the largest one."""
        eps = mp.mpf(2) ** (-self.bits + 16)
        m = self.scale(coeffs)
        while len(coeffs) > 1 and abs(coeffs[-1]) <= eps * m:
            coeffs = coeffs[:-1]
        return coeffs

    # -- fits and gates ----------------------------------------------------------

    def fit(self, rows, rhs, nunk: int):
        """Least squares over every row, each first scaled to unit size."""
        sizes = [max(max(abs(x) for x in row), abs(r), mp.mpf("1e-300"))
                 for row, r in zip(rows, rhs)]
        rows = [[x / m for x in row] for row, m in zip(rows, sizes)]
        rhs = [r / m for r, m in zip(rhs, sizes)]
        return lstsq_dense(rows, rhs, self)

    @staticmethod
    def nonvanishing(values, bits: int):
        """Flags: |v| above 2^(-bits/2) times the median magnitude."""
        mags = sorted(abs(v) for v in values)
        floor = mags[len(mags) // 2] * mp.mpf(2) ** (-bits // 2)
        return [abs(v) > floor for v in values]

    @staticmethod
    def vanishes(x, bound) -> bool:
        """|x| below bound: too close to a pole to sample."""
        return abs(x) < bound

    @staticmethod
    def held_out_residual(pred, val, eta, deg: int, scale, tol):
        """(|pred - val|, limit): tol relative to |val| and to the fit's size at eta."""
        return abs(pred - val), tol * max(abs(val), scale * max(1, abs(eta)) ** deg)

    @staticmethod
    def relative_gap(x, y) -> mp.mpf:
        """|x - y| / (|x| + |y|)."""
        return abs(x - y) / (abs(x) + abs(y) + mp.mpf("1e-300"))

    @staticmethod
    def defect(d, scale) -> mp.mpf:
        """|d| relative to scale."""
        return abs(d) / scale
