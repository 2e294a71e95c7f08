"""High-precision location of all zeros of an eta polynomial.

One Aberth-Ehrlich loop with Gauss-Seidel updates runs twice, the split of MPSolve (Bini &
Fiorentino, Numer. Algorithms 23 (2000) 127-173): in Python complex from a start circle in
doubles, for seeds, then on loaded values (numkernel's Gaussian floats) from those seeds
(an mpmath circle where doubles fail), its rules decided exactly on squared magnitudes.
A failed pair-distance certificate, a breakdown or a run that ends on its sweep cap
repeats the search once at twice the bits before raising."""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import cmp_to_key, partial

import mpmath as mp

from .numkernel import GUARD_BITS, MPScalars, gabs, gadd, gdiv, gle, gload, gmul, gneg, gstore, \
    workbits
from .polycore import Poly


class MultipleRootSuspected(RuntimeError):
    """Simplicity certificate failed even after precision escalation."""


@dataclass
class ZeroSet:
    """Certified simple zeros eta_j with recovered strip representatives x_j."""

    eta: list
    x: list = field(default_factory=list)
    min_pair_distance: mp.mpf = mp.mpf(0)
    min_deriv_magnitude: mp.mpf = mp.mpf(0)
    residual_bound: mp.mpf = mp.mpf(0)
    precision_bits: int = 0


SEED_STOP = 1e-10      # largest float Aberth step, relative to max(|z|, 1), that ends it
SEED_MAX_ITER = 100
SEED_TURN = 0.4        # radians: the start circle is turned off the real axis
SEED_NOISE = 2.0 ** -51  # per degree: |p(z)| below this times sum |a_k| |z|^k is rounding
MAX_SWEEPS = 220       # of the Aberth loop at the working precision
_UNIT = 1, 0, 0        # the Gaussian float 1
_BY_MAG = cmp_to_key(lambda a, b: gle(b, a) - gle(a, b))   # Gaussian floats by magnitude
FLOAT = (0j, 1 + 0j, operator.mul, operator.add, operator.sub, operator.truediv,
         lambda step, z: abs(step) <= SEED_STOP * max(abs(z), 1))


def _gsub(a, b, w: int):
    """a - b, widened back to w bits where it cancelled, so later steps keep their low bits."""
    d = gadd(a, gneg(b))
    s = w - max(d[0].bit_length(), d[1].bit_length()) if d else w
    return None if s == w else (d[0] << s, d[1] << s, d[2] - s) if s > 0 else d


def _small(step, z, bits: int) -> bool:
    """The step rule of the working run: |step| <= 2^(24-bits) max(|z|, 1)."""
    re, im, e = _UNIT if gle(z, _UNIT) else z
    return gle(step, (re, im, e + 24 - bits))


def _quiet(v, bound, n: int, prec: int) -> bool:
    """The rounding rule: |v| <= n 2^-prec |bound|, v = p(z), bound = sum_k |a_k| |z|^k."""
    return gle(v, bound and (n * bound[0], n * bound[1], bound[2] - prec))


def _apart(d, scale, bits: int) -> bool:
    """The pair rule: |d| >= 2^(-bits/4) |scale|, the exponent rounded down."""
    return gle((scale[0], scale[1], scale[2] + (-bits // 4)), d)


def _aberth(evaluate, zs, ar, sweeps: int):
    """Aberth-Ehrlich with Gauss-Seidel updates from the points zs on the primitives ar =
    (zero, one, mul, add, sub, div, small(step, z), the step rule, as in FLOAT): the points
    and whether the last sweep met the step rule; None where a step divides by zero.

    evaluate(z) gives p(z), p'(z) and whether |p(z)| is within its rounding bound: such a
    point is a root to the accuracy of the arithmetic and stays put (near a root cluster
    the steps would only be rounding noise).  The loop stops after a sweep whose every
    step is small, or after `sweeps` sweeps.
    """
    (zero, one, mul, add, sub, div, small), zs = ar, list(zs)
    try:
        for _ in range(sweeps):
            done = True
            for i, z in enumerate(zs):
                p, dp, quiet = evaluate(z)
                if quiet:
                    continue
                ratio, s = div(p, dp), zero
                for j, y in enumerate(zs):
                    if j != i:
                        s = add(s, div(one, sub(z, y)))
                step = div(ratio, sub(one, mul(ratio, s)))
                zs[i] = sub(z, step)
                done = done and small(step, z)
            if done:
                return zs, True
    except (ZeroDivisionError, OverflowError):
        return None
    return zs, False


def _seeds(coeffs):
    """The points of the float run of _aberth, converged or not, for the coefficients (lowest
    first) scaled by their largest magnitude: Horner's rule for p, p' and the rounding bound
    n SEED_NOISE sum_k |a_k| |z|^k, from the circle of _start_circle in doubles.  None where
    that circle leaves the double range or the run breaks down."""
    top = max(abs(c) for c in coeffs)
    a, n = [complex(c / top) for c in reversed(coeffs)], len(coeffs) - 1
    rest, noise = [(c, abs(c)) for c in a[1:]], SEED_NOISE * n

    def evaluate(z):
        p, dp, bound, r = a[0], 0j, abs(a[0]), abs(z)
        for c, mag in rest:
            dp = dp * z + p
            p = p * z + c
            bound = bound * r + mag
        return p, dp, abs(p) <= noise * bound

    radius = max(abs(a[n - k] / a[0]) ** (1 / (n - k)) for k in range(n)) if a[0] else math.inf
    if not math.isfinite(radius):
        return None
    start = [(radius or 1) * cmath.exp(1j * (SEED_TURN + 2 * math.pi * k / n)) for k in range(n)]
    run = _aberth(evaluate, start, FLOAT, SEED_MAX_ITER)
    return run[0] if run and all(map(cmath.isfinite, run[0])) else None


def _start_circle(coeffs):
    """n points on the circle of radius max_k |a_k / a_n|^(1/(n-k)), turned by SEED_TURN."""
    n = len(coeffs) - 1
    radius = max(abs(coeffs[k] / coeffs[n]) ** (mp.mpf(1) / (n - k)) for k in range(n))
    return [(radius or 1) * mp.expj(SEED_TURN + 2 * mp.pi * k / n) for k in range(n)]


def _canonical_order(roots, tie):
    """Roots by Re; a run of Re within tie of each other counts as one Re, ordered by Im.

    So the order of a complex-conjugate pair does not rest on the noise digits of
    their equal real parts (distinct roots are >= 2^(-bits/4) apart, far above tie).
    """
    out, run = [], []
    for z in sorted(roots, key=mp.re):
        if run and mp.re(z) - mp.re(run[-1]) > tie:
            out += sorted(run, key=mp.im)
            run = []
        run.append(z)
    return out + sorted(run, key=mp.im)


def find_zeros(p: Poly, bits: int, family=None) -> ZeroSet:
    """All roots of the eta polynomial p at bits >= 64, certified simple, sorted canonically.

    The working run and the certificate read values loaded at w = bits + 32 + GUARD_BITS.
    A search whose certificate fails, or whose working run breaks down or ends on its sweep
    cap, is repeated at twice the bits; a second failure raises."""
    if bits < 64:
        raise ValueError("precision bits must be >= 64")
    if p.degree < 1:
        raise ValueError("need degree >= 1 to locate zeros")
    for b in (bits, 2 * bits):
        with workbits(b + 32):
            prec, w = b + 32, b + 32 + GUARD_BITS
            coeffs = [mp.mpc(p.scalars.to_mpc(c)) for c in p.trim().coeffs]
            poly, n = Poly(coeffs, MPScalars()), len(coeffs) - 1
            value, slope = poly.evaluator(), poly.derivative().evaluator()
            mags = Poly([mp.mpc(abs(c)) for c in coeffs], poly.scalars).evaluator()

            def evaluate(z):
                v, r = value.fixed(z, w), z and (math.isqrt(z[0] * z[0] + z[1] * z[1]), 0, z[2])
                return v, slope.fixed(z, w), _quiet(v, mags.fixed(r, w), n, prec)

            gauss = (None, (1 << w, 0, -w), partial(gmul, w=w), gadd, partial(_gsub, w=w),
                     partial(gdiv, w=w), partial(_small, bits=b))
            run = _aberth(evaluate, [gload(z, w) for z in _seeds(coeffs) or _start_circle(coeffs)],
                          gauss, MAX_SWEEPS)
            if not (run and run[1]):
                problem = f"the Aberth iteration at {b} bits " + \
                    (f"hit its sweep cap of {MAX_SWEEPS} sweeps" if run else "broke down")
                continue
            roots = [gstore(z, prec) for z in run[0]]
            loaded = [gload(r, w) for r in roots]
            scale = max([_UNIT, *loaded], key=_BY_MAG)
            pairs = [_gsub(y, z, w) for i, z in enumerate(loaded) for y in loaded[:i]]
            near = min(pairs, key=_BY_MAG) if pairs else None
            minpair = gabs(near) if pairs else mp.inf
            if pairs and not _apart(near, scale, b):
                problem = f"min pair distance {mp.nstr(minpair, 5)} below " \
                          f"{mp.nstr(mp.ldexp(gabs(scale), -b // 4), 5)}"
                continue
            minder = gabs(min((slope.fixed(z, w) for z in loaded), key=_BY_MAG))
            resid = gabs(max((value.fixed(z, w) for z in loaded), key=_BY_MAG))
            tie = mp.ldexp(gabs(scale), -b // 2)
            roots = _canonical_order(roots, tie)
            return ZeroSet(roots, [family.recover_x(e, tie) for e in roots] if family else [],
                           min_pair_distance=minpair, min_deriv_magnitude=minder, precision_bits=b,
                           residual_bound=resid / (poly.height * minder) if minder > 0 else mp.inf)
    raise MultipleRootSuspected(problem)
