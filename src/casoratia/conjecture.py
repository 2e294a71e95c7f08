"""Closed-form evaluation of the conjectured normalization constants k_a.

Case (0) uses the norm ratios h_{D,n}/h_{D,N}; cases (1)/(2) the derived index
sets that lower one degree within a type; case (3) the sets that delete one
degree of each type.  Case (3) crosses type-count classes, so its prediction
carries the square of the mixed-identity constant C (identities.mixed_constant)
and the count-pair constant zeta (zeta_constant): closed forms in the parameters
and the type counts of D, reported beside the entries.

Cases (1)/(2) take the factor (b' - d_j)_{d_j - epsilon_k} (its q-analogue
for AW) at the removed degree d_j: the one closed form, evaluated once per
entry; case (2) is case (1) on Family.swap_types(a).  A zero Pochhammer
denominator raises FormulaSingular, a degeneracy.  Every form runs on the ParamSet's
own scalars, its rational factors through scalars.from_fraction, so on rational
parameters predicted_k is exact: a QQi (in Q(i, sqrt(q)) for AW).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp

from .families import ParamSet
from .identities import mixed_constant
from .miop import IndexSet, h_ratio
from .numkernel import pochhammer as poch, q_pochhammer as qpoch


class FormulaSingular(RuntimeError):
    """A closed form hit a zero denominator or has no entry for the type counts."""


@dataclass
class ConjectureEntry:
    origin: str
    case: int
    predicted: object   # a scalar of lam.scalars
    measured: mp.mpc
    rel_err: mp.mpf


@dataclass
class ConjectureResult:
    entries: list
    max_rel_err: mp.mpf
    zeta: object | None      # closed-form count-pair constant (mixed D only)
    mixed_C: object | None   # closed-form mixed-identity constant (mixed D only)


def _guard(x):
    if x == 0:
        raise FormulaSingular("zero factor in conjecture closed form")
    return x


def _case0_const(lam: ParamSet, N: int):
    if lam.family in ("ch", "w"):
        return 1 / _guard(2 * (lam.b1() + 2 * N - 1))
    q = lam.q
    return q ** (N + 1) / _guard((1 - q ** 2) * (1 - lam.b4() * q ** (2 * N - 1)))


def _over_cross(val, lam: ParamSet, d: int, n: int):
    """val over the cH/W cross-pair Pochhammers of length n at d: cH divides once by the
    product for (a1 - a2), (a3 - a4); W by each l - m, l in (a1, a2), m in (a3, a4)."""
    a1, a2, a3, a4 = lam.a
    if lam.family == "ch":
        return val / _guard(poch(a1 - a2 - d, n) * poch(a3 - a4 - d, n))
    for l in (a1, a2):
        for m in (a3, a4):
            val /= _guard(poch(l - m - d, n))
    return val


def _case12_product(lam: ParamSet, own, other, d: int, eps: int, j: int):
    """The case-(1) closed-form product; case (2) is this on swap_types(a) with own
    and other exchanged.  own are the degrees of the removed entry's type, other
    those of the other type."""
    sc = lam.scalars
    delta = d - eps
    a1, a2, a3, a4 = lam.a
    A, B = lam.fam.type_pair(lam.a)   # (s1, s2) for cH/W
    bp = lam.fam.bprime(lam.a)
    if lam.family in ("ch", "w"):
        f = Fraction(factorial(d), factorial(eps))   # (eps + 1)_delta
        val = sc.from_fraction(f / 2 if lam.family == "ch" else 1 / (2 * f))
        val /= _guard(poch(A - d - 1, delta) * poch(B + eps, delta))
        val = _over_cross(val, lam, d, delta)
        val *= poch(bp - d, delta) / _guard(-bp + 1 + 2 * eps)
        for i, di in enumerate(own, start=1):
            if i == j:
                continue
            val *= sc.from_fraction(Fraction(di - eps, _guard(di - d)))
            val *= (-bp + di + eps + 1) / _guard(-bp + di + d + 1)
        for ei in other:
            val *= sc.from_fraction(Fraction(ei + eps + 1, ei + d + 1))
            val *= (bp + ei - eps) / _guard(bp + ei - d)
        return val
    q = lam.q
    val = A ** (2 * delta - 1) * B ** (-delta) / _guard((1 - q ** 2) * qpoch(q ** (eps + 1), q, delta))
    val *= q ** (2 - 2 * d * (d + 1) + eps * (2 * eps + 3))
    val /= _guard(qpoch(A * q ** (-d - 1), q, delta) * qpoch(B * q ** eps, q, delta))
    for l in (a1, a2):
        for m in (a3, a4):
            val /= _guard(qpoch(l / m * q ** (-d), q, delta))
    val *= qpoch(bp * q ** (-d), q, delta) / _guard(1 - q ** (1 + 2 * eps) / bp)
    for i, di in enumerate(own, start=1):
        if i == j:
            continue
        val *= (1 - q ** (di - eps)) / _guard(1 - q ** (di - d))
        val *= (1 - q ** (di + eps + 1) / bp) / _guard(1 - q ** (di + d + 1) / bp)
    for ei in other:
        val *= (1 - q ** (ei + eps + 1)) / (1 - q ** (ei + d + 1))
        val *= (1 - bp * q ** (ei - eps)) / _guard(1 - bp * q ** (ei - d))
    return val


def _case3_product(lam: ParamSet, D: IndexSet, d: int, e: int, j: int, k: int):
    sc = lam.scalars
    a1, a2, a3, a4 = lam.a
    A, B = lam.fam.type_pair(lam.a)   # (s1, s2) for cH/W
    bp = lam.fam.bprime(lam.a)
    sgn = (-1) ** (d + e + 1)
    if lam.family in ("ch", "w"):
        r, f = Fraction(sgn, 2 * (d + e + 1)), factorial(d) * factorial(e)
        val = sc.from_fraction(r * f if lam.family == "ch" else r / f)
        val /= _guard(poch(A - d - 1, d + e + 1) * poch(B - e - 1, d + e + 1))
        val *= poch(-bp - e, d) * poch(bp - d, e)
        val = _over_cross(val, lam, d, d + e + 1)
        for i, di in enumerate(D.d1, start=1):
            if i == j:
                continue
            val /= _guard(sc.from_int((di - d) * (di + e + 1))
                          * (-bp + di + d + 1) * (-bp + di - e))
        for i, ei in enumerate(D.d2, start=1):
            if i == k:
                continue
            val /= _guard(sc.from_int((ei - e) * (ei + d + 1))
                          * (bp + ei + e + 1) * (bp + ei - d))
        return val
    q = lam.q
    val = sgn * A ** (3 * d + 2) * B ** (e - 2 * d)
    val /= _guard((1 - q ** 2) * (1 - q ** (d + e + 1)) * qpoch(q, q, d) * qpoch(q, q, e))
    val *= q ** (-(5 * d * d - 2 * d * e + e * e + 3 * d - e + 8) // 2)
    val /= _guard(qpoch(A * q ** (-d - 1), q, d + e + 1) * qpoch(B * q ** (-e - 1), q, d + e + 1))
    val *= qpoch(q ** (-e) / bp, q, d) * qpoch(bp * q ** (-d), q, e)
    for l in (a1, a2):
        for m in (a3, a4):
            val /= _guard(qpoch(l / m * q ** (-d), q, d + e + 1))
    # the q-power of each other member takes its position in D'_{3,jk}: one less
    # for the members after the removed one
    for i, di in enumerate(D.d1, start=1):
        if i == j:
            continue
        val *= q ** (2 * (di - (i - (i > j)) - D.M2) - 1) / bp
        val /= _guard((1 - q ** (di - d)) * (1 - q ** (di + e + 1))
                      * (1 - q ** (di + d + 1) / bp) * (1 - q ** (di - e) / bp))
    for i, ei in enumerate(D.d2, start=1):
        if i == k:
            continue
        val *= bp * q ** (2 * (ei - (i - (i > k)) - D.M1) - 1)
        val /= _guard((1 - q ** (ei - e)) * (1 - q ** (ei + d + 1))
                      * (1 - bp * q ** (ei + e + 1)) * (1 - bp * q ** (ei - d)))
    return val


def zeta_constant(lam: ParamSet, counts):
    """The case-(3) count-pair constant zeta: one closed form per mixed count pair
    (M_I, M_II) with M <= 3, in b' = s1 - s2 (cH/W) or A/B (AW) from Family.type_pair.
    Any other pair raises FormulaSingular."""
    if counts not in ((1, 1), (2, 1), (1, 2)):
        raise FormulaSingular(f"no closed form for zeta at type counts {counts}")
    A, B = lam.fam.type_pair(lam.a)   # (s1, s2) for cH/W
    bp = lam.fam.bprime(lam.a)
    if lam.family in ("ch", "w"):
        return {(1, 1): bp, (2, 1): bp * (bp - 1) * (bp - 2),
                (1, 2): bp * (bp + 1) * (bp + 2)}[counts] ** 2
    q = lam.q
    if counts == (1, 1):
        return 4 * q ** 5 * (1 - bp) ** 2 / A ** 2
    if counts == (2, 1):
        return (16 * q ** 15 * (1 - q) ** 2 * B ** 3
                * ((1 - bp) * (1 - bp / q) * (1 - bp / q ** 2)) ** 2 / A ** 5)
    return (16 * q ** 9 * (1 - q) ** 2 * B
            * ((1 - bp) * (1 - bp * q) * (1 - bp * q ** 2)) ** 2 / A ** 3)


def predicted_k(lam: ParamSet, D: IndexSet, N: int, entry):
    """Closed-form k_a for one Pa-basis entry, a scalar of lam.scalars."""
    fam = lam.fam
    if entry.case == 0:
        return h_ratio(lam, D, entry.n, N) * _case0_const(lam, N)
    EN = fam.energy(N, lam)
    ds = entry.derived
    if entry.case in (1, 2):
        d, eps = ds.removed[0], ds.added[0]
        own, other = D.d1, D.d2
        if entry.case == 2:   # case (1) with the two types exchanged
            lam, own, other = lam.with_a(fam.swap_types(lam.a)), D.d2, D.d1
        hr = (EN - fam.etilde("I", eps, lam)) / _guard(EN - fam.etilde("I", d, lam))
        return hr * _case12_product(lam, own, other, d, eps, ds.j)
    d, e = ds.removed
    C = mixed_constant(lam, (D.M1 - 1, D.M2 - 1))
    hr = C ** 2 / _guard((EN - fam.etilde("I", d, lam)) * (EN - fam.etilde("II", e, lam)))
    return hr * _case3_product(lam, D, d, e, ds.j, ds.k) * zeta_constant(lam, D.counts)


def compare(lam: ParamSet, D: IndexSet, N: int, report) -> ConjectureResult:
    """Measured k_a from a verified OrthoReport against the closed forms."""
    basis = report.extras["basis"]
    C = zeta = None
    if D.M1 >= 1 and D.M2 >= 1:
        C = mixed_constant(lam, (D.M1 - 1, D.M2 - 1))
        zeta = zeta_constant(lam, D.counts)
    entries = []
    for a, entry in enumerate(basis.entries):
        pred = predicted_k(lam, D, N, entry)
        meas = report.k[a]
        rel = abs(meas - pred) / max(abs(pred), abs(meas))
        entries.append(ConjectureEntry(entry.origin, entry.case, pred, meas, rel))
    worst = max((e.rel_err for e in entries), default=mp.mpf(0))
    return ConjectureResult(entries=entries, max_rel_err=worst, zeta=zeta, mixed_C=C)
