"""High-precision location of all zeros of an eta polynomial.

Seeds come from Aberth-Ehrlich simultaneous iteration in hardware floats
(Python complex; mpmath's polyroots when that fails), are refined by the same
iteration at target precision and polished with Newton steps, the split of
MPSolve (Bini & Fiorentino, Numer. Algorithms 23 (2000) 127-173).  Simplicity
is certified through the minimum pair distance; a failed certificate escalates
the precision once before raising.
"""

from __future__ import annotations

import cmath
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


def _float_aberth(coeffs):
    """Aberth-Ehrlich with Gauss-Seidel updates in Python complex, or None.

    The coefficients (lowest degree first) are scaled by the largest magnitude.
    The n start points lie on a circle of radius max_k |a_k/a_n|^(1/(n-k)),
    turned by SEED_TURN.  A point where |p(z)| is within the rounding bound
    n SEED_NOISE sum_k |a_k| |z|^k of Horner's rule is a root to double accuracy
    and stays put (near a root cluster the steps would only be rounding noise).
    It stops after a sweep whose largest step is at most SEED_STOP max(|z|, 1);
    cubic convergence then leaves the roots at double accuracy.  None when a
    value leaves the double range or it does not stop.
    """
    m = max(abs(c) for c in coeffs)
    a = [complex(c / m) for c in coeffs]
    mags, n = [abs(c) for c in a], len(a) - 1
    if a[n] == 0:
        return None
    radius = max(abs(a[k] / a[n]) ** (1.0 / (n - k)) for k in range(n)) or 1.0
    zs = [cmath.rect(radius, SEED_TURN + 2 * cmath.pi * k / n) for k in range(n)]
    for _ in range(SEED_MAX_ITER):
        moved = 0.0
        for i, z in enumerate(zs):
            p, dp, bound, r = a[n], 0j, mags[n], abs(z)
            for k in range(n - 1, -1, -1):
                dp = dp * z + p
                p = p * z + a[k]
                bound = bound * r + mags[k]
            if abs(p) <= SEED_NOISE * n * bound:
                continue
            ratio = p / dp
            s = sum(1 / (z - y) for j, y in enumerate(zs) if j != i)
            step = ratio / (1 - ratio * s)
            zs[i] = z - step
            moved = max(moved, abs(step) / max(abs(z), 1.0))
        if not all(cmath.isfinite(z) for z in zs):
            return None
        if moved <= SEED_STOP:
            return zs
    return None


def _seed_roots(coeffs):
    """53-bit seeds for the n roots (coefficients lowest degree first): the float
    Aberth-Ehrlich pass, or mpmath's polyroots where it returns None or fails."""
    try:
        zs = _float_aberth(coeffs)
    except (OverflowError, ZeroDivisionError):
        zs = None
    if zs is None:
        zs = mp.polyroots([mp.mpc(c) for c in reversed(coeffs)], maxsteps=200, extraprec=120)
    return [mp.mpc(z) for z in zs]


def _aberth(coeffs, seeds, bits):
    """Aberth-Ehrlich simultaneous refinement at the working precision."""
    n = len(coeffs) - 1
    p = Poly(coeffs, MPScalars())
    dp = p.derivative()
    roots = [mp.mpc(r) + mp.mpc(0) for r in seeds]
    target = mp.mpf(2) ** (-bits + 24)
    norm = max(abs(c) for c in coeffs)
    for _ in range(220):
        moved = mp.mpf(0)
        new = list(roots)
        for i in range(n):
            z = roots[i]
            pz = p(z)
            dpz = dp(z)
            if dpz == 0:
                z = z + mp.mpf(2) ** (-bits // 3)
                pz, dpz = p(z), dp(z)
            w = pz / dpz
            s = mp.mpc(0)
            for j in range(n):
                if j != i:
                    d = z - roots[j]
                    if d == 0:
                        d = mp.mpf(2) ** (-bits)
                    s += 1 / d
            denom = 1 - w * s
            step = w / denom if denom != 0 else w
            new[i] = z - step
            moved = max(moved, abs(step))
        roots = new
        scale = max(max(abs(r) for r in roots), mp.mpf(1))
        if moved <= target * scale:
            break
    # Newton polish
    for _ in range(3):
        roots = [z - p(z) / d if d != 0 else z for z, d in zip(roots, map(dp, roots))]
    return roots, p, dp, norm


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


def find_zeros(p: Poly, bits: int, family=None, _escalated=False) -> ZeroSet:
    """All roots of the eta polynomial p at bits >= 64, certified simple, sorted canonically."""
    if bits < 64:
        raise ValueError("precision bits must be >= 64")
    with workbits(bits + 32):
        coeffs = [mp.mpc(p.scalars.to_mpc(c)) for c in p.trim().coeffs]
        if len(coeffs) < 2:
            raise ValueError("need degree >= 1 to locate zeros")
        seeds = _seed_roots(coeffs)
        roots, poly, dpoly, norm = _aberth(coeffs, seeds, bits)
        scale = max(max(abs(r) for r in roots), mp.mpf(1))
        roots = _canonical_order(roots, mp.mpf(2) ** (-bits // 2) * scale)
        minpair = mp.mpf("+inf")
        n = len(roots)
        for i in range(n):
            for j in range(i + 1, n):
                minpair = min(minpair, abs(roots[i] - roots[j]))
        threshold = mp.mpf(2) ** (-bits // 4) * scale
        if minpair < threshold:
            if _escalated:
                raise MultipleRootSuspected(
                    f"min pair distance {mp.nstr(minpair, 5)} below {mp.nstr(threshold, 5)}")
            return find_zeros(p, 2 * bits, family, _escalated=True)
        minder = min(abs(dpoly(z)) for z in roots)
        resid = max(abs(poly(z)) for z in roots)
        zs = ZeroSet(
            eta=roots,
            min_pair_distance=minpair,
            min_deriv_magnitude=minder,
            residual_bound=resid / (norm * minder) if minder > 0 else mp.mpf("+inf"),
            precision_bits=bits,
        )
        if family is not None:
            zs.x = [family.recover_x(e) for e in roots]
        return zs
