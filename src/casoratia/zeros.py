"""High-precision location of all zeros of an eta polynomial.

One Aberth-Ehrlich loop with Gauss-Seidel updates runs twice, the split of MPSolve
(Bini & Fiorentino, Numer. Algorithms 23 (2000) 127-173): in hardware floats
(Python complex) from a start circle, to give seeds, and at the working precision
from those seeds, or from the start circle where the float run breaks down.
Simplicity is certified through the minimum pair distance; a failed certificate
repeats the search once at twice the precision before raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp

from .numkernel import MPScalars, workbits
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


def _aberth(evaluate, zs, stop, sweeps):
    """Aberth-Ehrlich with Gauss-Seidel updates from the points zs: the points, or None.

    evaluate(z) gives (p(z), p'(z), the rounding bound of p(z)).  A point where |p(z)|
    is within that bound is a root to the accuracy of the arithmetic and stays put
    (near a root cluster the steps would only be rounding noise).  The loop stops after
    a sweep whose every step is at most stop max(|z|, 1), or after `sweeps` sweeps.
    None when a point is not finite or a step divides by zero.
    """
    zs = list(zs)
    try:
        for _ in range(sweeps):
            done = True
            for i, z in enumerate(zs):
                p, dp, noise = evaluate(z)
                if abs(p) <= noise:
                    continue
                ratio = p / dp
                step = ratio / (1 - ratio * sum(1 / (z - y) for j, y in enumerate(zs) if j != i))
                zs[i] = z - step
                done = done and abs(step) <= stop * max(abs(z), 1)
            if not all(abs(z) < math.inf for z in zs):
                return None
            if done:
                break
    except (ZeroDivisionError, OverflowError):
        return None
    return zs


def _float_horner(coeffs):
    """The evaluate of _aberth in Python complex for the coefficients (lowest degree
    first) scaled by their largest magnitude: Horner's rule for p and p', and the
    rounding bound n SEED_NOISE sum_k |a_k| |z|^k."""
    top = max(abs(c) for c in coeffs)
    a = [complex(c / top) for c in reversed(coeffs)]
    rest, noise = [(c, abs(c)) for c in a[1:]], SEED_NOISE * (len(a) - 1)

    def evaluate(z):
        p, dp, bound, r = a[0], 0j, abs(a[0]), abs(z)
        for c, mag in rest:
            dp = dp * z + p
            p = p * z + c
            bound = bound * r + mag
        return p, dp, noise * bound
    return evaluate


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

    A search whose pair-distance certificate fails, or whose working-precision Aberth
    run breaks down, is repeated at twice the bits; a second failure raises."""
    if bits < 64:
        raise ValueError("precision bits must be >= 64")
    if p.degree < 1:
        raise ValueError("need degree >= 1 to locate zeros")
    for b in (bits, 2 * bits):
        with workbits(b + 32):
            coeffs = [mp.mpc(p.scalars.to_mpc(c)) for c in p.trim().coeffs]
            start = _start_circle(coeffs)
            seeds = _aberth(_float_horner(coeffs), map(complex, start), SEED_STOP, SEED_MAX_ITER)
            sc = MPScalars()
            poly, mags = Poly(coeffs, sc), Poly([mp.mpc(abs(c)) for c in coeffs], sc)
            dpoly, noise = poly.derivative(), (len(coeffs) - 1) * mp.mpf(2) ** -mp.mp.prec
            roots = _aberth(lambda z: (poly(z), dpoly(z), noise * mp.re(mags(abs(z)))),
                            map(mp.mpc, seeds) if seeds else start, mp.mpf(2) ** (24 - b),
                            MAX_SWEEPS)
            if roots is None:
                problem = f"the Aberth iteration broke down at {b} bits"
                continue
            scale = max(max(abs(r) for r in roots), mp.mpf(1))
            tie = mp.mpf(2) ** (-b // 2) * scale
            roots = _canonical_order(roots, tie)
            minpair = min((abs(y - z) for i, z in enumerate(roots) for y in roots[:i]),
                          default=mp.inf)
            threshold = mp.mpf(2) ** (-b // 4) * scale
            if minpair < threshold:
                problem = f"min pair distance {mp.nstr(minpair, 5)} below {mp.nstr(threshold, 5)}"
                continue
            minder = min(abs(dpoly(z)) for z in roots)
            resid = max(abs(poly(z)) for z in roots)
            zs = ZeroSet(
                eta=roots,
                min_pair_distance=minpair,
                min_deriv_magnitude=minder,
                residual_bound=resid / (poly.height * minder) if minder > 0 else mp.mpf("+inf"),
                precision_bits=b,
            )
            if family is not None:
                zs.x = [family.recover_x(e, tie) for e in roots]
            return zs
    raise MultipleRootSuspected(problem)
