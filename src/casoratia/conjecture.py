"""Closed-form evaluation of the conjectured normalization constants k_a.

Case (0) uses the norm ratios h_{D,n}/h_{D,N}; cases (1)/(2) the derived index
sets that lower one degree within a type; case (3) the sets that delete one
degree of each type.  Case (3) crosses type-count classes, so its prediction
carries the square of the mixed-identity constant C (identities.mixed_constant)
and the count-pair constant zeta (zeta_constant): closed forms in the parameters
and the type counts of D, reported beside the entries.

Cases (1)/(2) take the factor (b' - d_j)_{d_j - epsilon_k} (its q-analogue
for AW) at the removed degree d_j: the one closed form, evaluated once per
entry.  A zero Pochhammer denominator raises FormulaSingular, a degeneracy.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    predicted: mp.mpc
    measured: mp.mpc
    rel_err: mp.mpf


@dataclass
class ConjectureResult:
    entries: list
    max_rel_err: mp.mpf
    zeta: mp.mpc | None      # closed-form count-pair constant (mixed D only)
    mixed_C: mp.mpc | None   # closed-form mixed-identity constant (mixed D only)


def _mpc_a(lam: ParamSet) -> list:
    return [mp.mpc(lam.scalars.to_mpc(x)) for x in lam.a]


def _guard(x):
    if abs(x) == 0:
        raise FormulaSingular("zero factor in conjecture closed form")
    return x


def _case0_const(lam: ParamSet, N: int):
    a = _mpc_a(lam)
    if lam.family in ("ch", "w"):
        b1 = sum(a)
        return 1 / _guard(2 * (b1 + 2 * N - 1))
    q = mp.mpc(lam.scalars.to_mpc(lam.q))
    b4 = a[0] * a[1] * a[2] * a[3]
    return q ** (N + 1) / _guard((1 - q ** 2) * (1 - b4 * q ** (2 * N - 1)))


def _case12_members(val, own, other, d: int, eps: int, j: int, bp):
    """val times the cH/W case-(1) factors of the other members of D: own are the
    degrees of the removed entry's type, other those of the other type."""
    for i, di in enumerate(own, start=1):
        if i == j:
            continue
        val *= mp.mpf(di - eps) / _guard(mp.mpf(di - d))
        val *= (-bp + di + eps + 1) / _guard(-bp + di + d + 1)
    for ei in other:
        val *= mp.mpf(ei + eps + 1) / (ei + d + 1)
        val *= (bp + ei - eps) / _guard(bp + ei - d)
    return val


def _case12_product(lam: ParamSet, own, other, d: int, eps: int, j: int):
    """The case-(1) closed-form product; case (2) is this on swap_types(a) with own
    and other exchanged."""
    delta = d - eps
    a = _mpc_a(lam)
    a1, a2, a3, a4 = a
    s1, s2 = lam.fam.type_pair(a)   # (A, B) for AW
    bp = lam.fam.bprime(a)
    if lam.family == "ch":
        val = poch(mp.mpc(eps + 1), delta) / 2
        val /= _guard(poch(s1 - d - 1, delta) * poch(s2 + eps, delta))
        val /= _guard(poch(a1 - a2 - d, delta) * poch(a3 - a4 - d, delta))
        val *= poch(bp - d, delta) / _guard(-bp + 1 + 2 * eps)
        return _case12_members(val, own, other, d, eps, j, bp)
    if lam.family == "w":
        val = 1 / _guard(2 * poch(mp.mpc(eps + 1), delta))
        val /= _guard(poch(s1 - d - 1, delta) * poch(s2 + eps, delta))
        for l in (a1, a2):
            for m in (a3, a4):
                val /= _guard(poch(l - m - d, delta))
        val *= poch(bp - d, delta) / _guard(-bp + 1 + 2 * eps)
        return _case12_members(val, own, other, d, eps, j, bp)
    q = mp.mpc(lam.scalars.to_mpc(lam.q))
    A, B = s1, s2
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


def _case3_members(val, D: IndexSet, d: int, e: int, j: int, k: int, bp):
    """val over the cH/W case-(3) factors of the other members of D."""
    for i, di in enumerate(D.d1, start=1):
        if i == j:
            continue
        val /= _guard(mp.mpf(di - d) * (di + e + 1) * (-bp + di + d + 1) * (-bp + di - e))
    for i, ei in enumerate(D.d2, start=1):
        if i == k:
            continue
        val /= _guard(mp.mpf(ei - e) * (ei + d + 1) * (bp + ei + e + 1) * (bp + ei - d))
    return val


def _case3_product(lam: ParamSet, D: IndexSet, d: int, e: int, j: int, k: int):
    a = _mpc_a(lam)
    a1, a2, a3, a4 = a
    d1, d2 = list(D.d1), list(D.d2)
    s1, s2 = lam.fam.type_pair(a)   # (A, B) for AW
    bp = lam.fam.bprime(a)
    sgn = mp.mpf(-1) ** (d + e + 1)
    if lam.family == "ch":
        val = sgn * mp.factorial(d) * mp.factorial(e) / (2 * (d + e + 1))
        val /= _guard(poch(s1 - d - 1, d + e + 1) * poch(s2 - e - 1, d + e + 1))
        val *= poch(-bp - e, d) * poch(bp - d, e)
        val /= _guard(poch(a1 - a2 - d, d + e + 1) * poch(a3 - a4 - d, d + e + 1))
        return _case3_members(val, D, d, e, j, k, bp)
    if lam.family == "w":
        val = sgn / (2 * (d + e + 1) * mp.factorial(d) * mp.factorial(e))
        val /= _guard(poch(s1 - d - 1, d + e + 1) * poch(s2 - e - 1, d + e + 1))
        val *= poch(-bp - e, d) * poch(bp - d, e)
        for l in (a1, a2):
            for m in (a3, a4):
                val /= _guard(poch(l - m - d, d + e + 1))
        return _case3_members(val, D, d, e, j, k, bp)
    q = mp.mpc(lam.scalars.to_mpc(lam.q))
    A, B = s1, s2
    val = sgn * A ** (3 * d + 2) * B ** (e - 2 * d)
    val /= _guard((1 - q ** 2) * (1 - q ** (d + e + 1)) * qpoch(q, q, d) * qpoch(q, q, e))
    val *= q ** mp.mpf(-(5 * d * d - 2 * d * e + e * e + 3 * d - e + 8) // 2)
    val /= _guard(qpoch(A * q ** (-d - 1), q, d + e + 1) * qpoch(B * q ** (-e - 1), q, d + e + 1))
    val *= qpoch(q ** (-e) / bp, q, d) * qpoch(bp * q ** (-d), q, e)
    for l in (a1, a2):
        for m in (a3, a4):
            val /= _guard(qpoch(l / m * q ** (-d), q, d + e + 1))
    # the q-power of each other member takes its position in D'_{3,jk}: one less
    # for the members after the removed one
    for i, di in enumerate(d1, start=1):
        if i == j:
            continue
        val *= q ** (2 * (di - (i - (i > j)) - D.M2) - 1) / bp
        val /= _guard((1 - q ** (di - d)) * (1 - q ** (di + e + 1))
                      * (1 - q ** (di + d + 1) / bp) * (1 - q ** (di - e) / bp))
    for i, ei in enumerate(d2, start=1):
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
    a = _mpc_a(lam)
    A, B = lam.fam.type_pair(a)   # (s1, s2) for cH/W
    bp = lam.fam.bprime(a)
    if lam.family in ("ch", "w"):
        return {(1, 1): bp, (2, 1): bp * (bp - 1) * (bp - 2),
                (1, 2): bp * (bp + 1) * (bp + 2)}[counts] ** 2
    q = mp.mpc(lam.scalars.to_mpc(lam.q))
    if counts == (1, 1):
        return 4 * q ** 5 * (1 - bp) ** 2 / A ** 2
    if counts == (2, 1):
        return (16 * q ** 15 * (1 - q) ** 2 * B ** 3
                * ((1 - bp) * (1 - bp / q) * (1 - bp / q ** 2)) ** 2 / A ** 5)
    return (16 * q ** 9 * (1 - q) ** 2 * B
            * ((1 - bp) * (1 - bp * q) * (1 - bp * q ** 2)) ** 2 / A ** 3)


def predicted_k(lam: ParamSet, D: IndexSet, N: int, entry):
    """Closed-form k_a for one Pa-basis entry."""
    fam = lam.fam
    to = lam.scalars.to_mpc
    EN = mp.mpc(to(fam.energy(N, lam)))
    if entry.case == 0:
        hr = mp.mpc(to(h_ratio(lam, D, entry.n, N)))
        return hr * _case0_const(lam, N)
    if entry.case in (1, 2):
        ds = entry.derived
        d, eps = ds.removed[0], ds.added[0]
        own, other = D.d1, D.d2
        if entry.case == 2:   # case (1) with the two types exchanged
            lam, own, other = lam.with_a(fam.swap_types(lam.a)), D.d2, D.d1
        ev_d = mp.mpc(to(fam.etilde("I", d, lam)))
        ev_e = mp.mpc(to(fam.etilde("I", eps, lam)))
        hr = (EN - ev_e) / _guard(EN - ev_d)
        return hr * _case12_product(lam, own, other, d, eps, ds.j)
    ds = entry.derived
    d, e = ds.removed
    ev_d = mp.mpc(to(fam.etilde("I", d, lam)))
    ev_e = mp.mpc(to(fam.etilde("II", e, lam)))
    C = mixed_constant(lam, (D.M1 - 1, D.M2 - 1))
    hr = C ** 2 / _guard((EN - ev_d) * (EN - ev_e))
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
