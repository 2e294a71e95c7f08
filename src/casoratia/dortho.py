"""Discrete orthogonality: derived index sets, Pa basis, F weights, M matrices.

Implements the zero-grid orthogonality pipeline: the eigenbasis polynomials
P_a built from the lowered/derived index sets, the weight reciprocals F_j at
the zeros of P_{D,N} (computed by both closed forms and cross-checked), the
matrices M-tilde and its symmetrized M, and the Gram matrix whose off-diagonal
decay is the discrete orthogonality relation.  The zero grid runs on the
Gaussian floats of numkernel, from the H~_D frames at the zeros to the Gram
dot products; its values become mpc for the report.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain

import mpmath as mp

from .families import ParamSet
from .miop import (IndexSet, MiopBundle, apply_htilde, build_miop, eigen_residual, get_builder,
                   htilde_frame)
from .numkernel import (GUARD_BITS, gabs, gadd, gbelow, gdiv, gdot, gload, gmul, gneg, gstore,
                        workbits)
from .polycore import Poly, lagrange_numerator
from .zeros import ZeroSet, find_zeros


class DegenerateSpectrum(RuntimeError):
    """Two P_a energies coincide (special parameters); perturb and retry."""


class WeightSingular(RuntimeError):
    """Some F_j vanished, voiding the weight 1/F."""


class DenominatorCollision(RuntimeError):
    """eta(x_j +- i gamma) collided with another zero eta_k."""


# the types t0, t1 of E^P = Etilde_t0(d0) + Etilde_t1(d1) - E_N, (d0, d1) = removed + added
CASE_TYPES = {1: ("I", "I"), 2: ("II", "II"), 3: ("I", "II")}


@dataclass
class DerivedSet:
    case: int             # 1, 2 or 3
    j: int                # 1-based position within the type list
    k: int                # 1-based position (epsilon index or type-II position)
    removed: tuple        # degrees removed from D
    added: tuple          # degrees added
    D: IndexSet


def derived_index_sets(D: IndexSet):
    """The index sets D'_{1,jk}, D'_{2,jk}, D'_{3,jk} with their bookkeeping: d_j of type
    I (II) lowered to the k-th free eps < d_j, or the j-th I and k-th II deleted."""
    out = ([], [], [])
    for case, t in ((1, "I"), (2, "II")):
        own = [d for d, u in D.entries if u == t]
        for j, dj in enumerate(own, start=1):
            rest = [x for x in D.entries if x != (dj, t)]
            for k, eps in enumerate((e for e in range(dj) if e not in own), start=1):
                out[case - 1].append(DerivedSet(case, j, k, (dj,), (eps,),
                                                IndexSet.make(rest + [(eps, t)])))
    for j, dj in enumerate(D.d1, start=1):
        for k, dk in enumerate(D.d2, start=1):
            rest = [x for x in D.entries if x not in ((dj, "I"), (dk, "II"))]
            out[2].append(DerivedSet(3, j, k, (dj, dk), (), IndexSet.make(rest)))
    total = sum(map(len, out))
    if total != D.ell:
        raise AssertionError(f"derived-set count {total} != ell_D {D.ell}")
    return out


@dataclass
class PaEntry:
    origin: str
    case: int
    poly: Poly
    energy: object
    n: int | None = None
    derived: DerivedSet | None = None


@dataclass
class PaBasis:
    entries: list

    def __len__(self):
        return len(self.entries)


def build_pa_basis(lam: ParamSet, D: IndexSet, N: int, bits: int = 256) -> PaBasis:
    """The N + ell_D polynomials P_a with their energies E^P_a (cases 0-3), at bits + 32
    working bits, whatever the caller's precision."""
    with workbits(bits + 32):
        fam = lam.fam
        b = get_builder(lam, bits)
        EN = fam.energy(N, lam)
        entries = []
        for n in range(N):
            entries.append(PaEntry(f"case0(n={n})", 0, b.P(D, n), fam.energy(n, lam), n=n))
        for ds in chain(*derived_index_sets(D)):
            (t0, t1), (d0, d1) = CASE_TYPES[ds.case], ds.removed + ds.added
            e = fam.etilde(t0, d0, lam) + fam.etilde(t1, d1, lam) - EN
            entries.append(PaEntry(f"case{ds.case}(j={ds.j},k={ds.k})", ds.case, b.P(ds.D, N), e,
                                   derived=ds))
        if len(entries) != N + D.ell:
            raise AssertionError("Pa basis count differs from N + ell_D")
        tilde_N = N + D.ell
        for e in entries:
            if e.poly.degree >= tilde_N:
                raise AssertionError(f"deg P_a = {e.poly.degree} not below {tilde_N} ({e.origin})")
        evals = [mp.mpc(lam.scalars.to_mpc(e.energy)) for e in entries]
        scale = max(max(abs(v) for v in evals), mp.mpf(1))
        tol = mp.mpf(2) ** (-bits // 3)
        for i in range(len(evals)):
            for j in range(i + 1, len(evals)):
                if abs(evals[i] - evals[j]) <= tol * scale:
                    raise DegenerateSpectrum(
                        f"E^P degenerate: {entries[i].origin} vs {entries[j].origin}")
        return PaBasis(entries)


def pa_difference_equation_defect(basis: PaBasis, frames) -> mp.mpf:
    """Worst residual of (H~_D P_a)(x_j) = E^P_a P_a(eta_j) over the basis and zero frames."""
    if not basis.entries:
        return mp.mpf(0)
    return eigen_residual(frames, [(e.poly, e.energy) for e in basis.entries],
                          basis.entries[0].poly.scalars)


def compute_F(bundle: MiopBundle, frames, bits: int = 256):
    """Weights F_j by the symmetric two-term form, as Gaussian floats, and their worst
    relative gap to the one-term form (the f_cross_form check).  P'_N is taken once at each
    frame's eta and P_N once at each of eta_m, eta_p, for both forms."""
    w = mp.mp.prec + GUARD_BITS
    pN = bundle.P[bundle.n_max]
    ev, dev = pN.evaluator(), pN.derivative().evaluator()
    F, cross_worst = [], mp.mpf(0)
    for fr in frames:
        (x0, xm, xp), (_, wm, wp) = fr.xs, fr.ws
        dpj, tm = dev.fixed(x0, w), gmul(wm, ev.fixed(xm, w), w)
        two_term = gneg(gdiv(gdot((xm, xp), (tm, gmul(wp, ev.fixed(xp, w), w)), w), dpj, w))
        one_term = gdiv(gmul(gadd(xp, gneg(xm)), tm, w), dpj, w)
        rel = gabs(gadd(two_term, gneg(one_term))) / max(gabs(two_term), gabs(one_term),
                                                          mp.mpf("1e-300"))
        cross_worst = max(cross_worst, rel)
        F.append(two_term)
    mags = [gabs(f) for f in F]
    if min(mags) <= max(mags) * mp.mpf(2) ** (-bits // 2):
        raise WeightSingular("some F_j is numerically zero")
    return F, cross_worst


def build_M(lam: ParamSet, D: IndexSet, zs: ZeroSet, frames, F, bits: int = 256):
    """M-tilde per the closed forms, M = G^-1 M-tilde G with g_j = sqrt(F_j) on a branch
    that a noise-level Im F_j cannot flip: sqrt(F_j) for Re F_j >= 0, else i sqrt(-F_j).
    F, M-tilde and M are Gaussian floats; a collision, |eta(x_j -+ i gamma) - eta_k| below
    2^(40-bits) max(|eta|, 1), is decided on squares."""
    w = mp.mp.prec + GUARD_BITS
    etas = [gload(e, w) for e in zs.eta]
    limit = mp.mpf(2) ** (-bits + 40) * max(max(abs(e) for e in zs.eta), mp.mpf(1))
    Mt = []
    for j, fr in enumerate(frames):
        (_, xm, xp), row = fr.xs, []
        for k, e in enumerate(etas):
            d1, d2 = gadd(xm, gneg(e)), gadd(xp, gneg(e))
            if k != j and (gbelow(d1, limit) or gbelow(d2, limit)):
                raise DenominatorCollision(f"eta(x_{j} -+ i gamma) collides with eta_{k}")
            row.append(gdiv(F[j], gmul(d1, d2, w), w))
        row[j] = gadd(row[j], fr.ws[0])
        Mt.append(row)
    j = _deterministic_index(lam, D, len(etas))
    diag_defect = _diag_from_definition_defect(lam, zs, frames[j], j, gstore(Mt[j][j], mp.mp.prec))
    g = [gload(mp.sqrt(f) if mp.re(f) >= 0 else 1j * mp.sqrt(-f), w)
         for f in (gstore(f, mp.mp.prec) for f in F)]
    inv = [gdiv(gload(1, w), gj, w) for gj in g]
    M = [[gmul(gmul(m, gk, w), hj, w) for m, gk in zip(row, g)] for row, hj in zip(Mt, inv)]
    mmax = max(gabs(m) for row in M for m in row)
    sym = max((gabs(gadd(M[j][k], gneg(M[k][j]))) for j in range(len(M)) for k in range(j)),
              default=mp.mpf(0))
    return Mt, M, sym / mmax, diag_defect


def _deterministic_index(lam, D, n) -> int:
    return hashlib.sha256((lam.digest() + D.key()).encode()).digest()[0] % n


def _diag_from_definition_defect(lam, zs, fr, j, closed_value) -> mp.mpf:
    """M~_jj from the definition: H~_D applied to the Lagrange numerator at x_j (frame fr)."""
    sc = lam.scalars
    lag = Poly(lagrange_numerator(zs.eta, j, sc.one), sc)
    val = mp.mpc(apply_htilde(fr, lag)) / mp.mpc(lag(zs.eta[j]))
    return abs(val - closed_value) / max(abs(closed_value), mp.mpf(1))


@dataclass
class OrthoReport:
    family: str
    D: IndexSet
    N: int
    precision_bits: int
    F: list
    symmetry_defect: mp.mpf
    diag_defect: mp.mpf
    f_cross_defect: mp.mpf
    gram: list
    max_offdiag_rel: mp.mpf
    k: list
    origins: list
    eigen_residuals: list
    pa_energy: list
    extras: dict = field(default_factory=dict)


def verify_orthogonality(lam: ParamSet, D: IndexSet, N: int, bits: int = 256) -> OrthoReport:
    """Run the full discrete-orthogonality pipeline at bits (bits + 32 working bits,
    whatever the caller's precision): F, M-tilde, M, the P_a values at the zeros, the eigen
    rows M-tilde v = E^P_a v and the Gram matrix in Gaussian floats."""
    if lam.scalars.name != "float":
        raise ValueError("the orthogonality pipeline requires the float backend")
    with workbits(bits + 32):
        fam = lam.fam
        bundle = build_miop(lam, D, N, bits)
        zs = find_zeros(bundle.P[N], bits, fam)
        basis = build_pa_basis(lam, D, N, bits)
        frames = [htilde_frame(bundle, fam.arg_of_eta(e)) for e in zs.eta]
        F, f_cross = compute_F(bundle, frames, bits)
        Mt, M, sym, diagd = build_M(lam, D, zs, frames, F, bits)
        prec = mp.mp.prec
        w = prec + GUARD_BITS
        etas = [gload(e, w) for e in zs.eta]
        dP = bundle.P[N].derivative().evaluator()
        dpj = [dP.fixed(x, w) for x in etas]
        vals = [[e.poly.evaluator().fixed(x, w) for x in etas] for e in basis.entries]
        cP = gload(bundle.P[N].lead(), w)
        cP_dp = [gdiv(cP, d, w) for d in dpj]
        eigres = []
        for row, entry in zip(vals, basis.entries):
            vt = [gmul(v, c, w) for v, c in zip(row, cP_dp)]
            ev = gload(entry.energy, w)
            scale = max(max(map(gabs, vt)), mp.mpf("1e-300")) * (abs(mp.mpc(entry.energy)) + 1)
            eigres.append(max(gabs(gadd(gdot(Mt_j, vt, w), gneg(gmul(ev, vt[j], w))))
                              for j, Mt_j in enumerate(Mt)) / scale)
        one = gload(1, w)
        gram, offd = zero_grid_gram([gdiv(one, f, w) for f in F], vals, dpj)
        rep = OrthoReport(
            family=lam.family, D=D, N=N, precision_bits=bits,
            F=[gstore(f, prec) for f in F], symmetry_defect=sym, diag_defect=diagd,
            f_cross_defect=f_cross, gram=gram, max_offdiag_rel=offd,
            k=[gram[a][a] for a in range(len(basis.entries))],
            origins=[e.origin for e in basis.entries],
            eigen_residuals=eigres,
            pa_energy=[mp.mpc(lam.scalars.to_mpc(e.energy)) for e in basis.entries],
        )
        rep.extras["zeros"] = zs
        rep.extras["bundle"] = bundle
        rep.extras["basis"] = basis
        rep.extras["Mtilde"] = [[gstore(m, prec) for m in row] for row in Mt]
        rep.extras["M"] = [[gstore(m, prec) for m in row] for row in M]
        rep.extras["pa_defect"] = pa_difference_equation_defect(basis, frames)
        return rep


def zero_grid_gram(wts, vals, dpj):
    """(G, max off-diagonal ratio) of G_ab = sum_j w_j P_a(eta_j) P_b(eta_j) / P'_N(eta_j)^2.

    wts[j] = w_j, vals[a][j] = P_a(eta_j) and dpj[j] = P'_N(eta_j) at the zeros eta_j of
    P_N, as Gaussian floats; G comes back in mpc, and the ratio is max over a < b of
    |G_ab| / sqrt(|G_aa| |G_bb|).  The weight w_j / P'_N(eta_j)^2 is made once per zero
    and its product with P_a(eta_j) once per row, so an entry is one Gaussian dot
    product.  G is filled for a <= b and mirrored.
    """
    prec = mp.mp.prec
    w = prec + GUARD_BITS
    n = len(vals)
    weights = [gdiv(wj, gmul(dp, dp, w), w) for wj, dp in zip(wts, dpj)]
    rows = [[gmul(wj, va, w) for wj, va in zip(weights, row)] for row in vals]
    gram = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            gram[a][b] = gram[b][a] = gstore(gdot(rows[a], vals[b], w), prec)
    offd = max((abs(gram[a][b]) / mp.sqrt(abs(gram[a][a]) * abs(gram[b][b]))
                for a in range(n) for b in range(a + 1, n)), default=mp.mpf(0))
    return gram, offd


def naive_zero_grid(polys, bits: int, family):
    """zero_grid_gram of P_0 .. P_{N-1} = polys[:N] with the naive weight P'_N / P_{N-1}
    at the zeros of P_N = polys[N]: the classical zero-grid relation."""
    N = len(polys) - 1
    zs = find_zeros(polys[N], bits, family)
    w = mp.mp.prec + GUARD_BITS
    etas = [gload(e, w) for e in zs.eta]
    dP, prev = polys[N].derivative().evaluator(), polys[N - 1].evaluator()
    dpj = [dP.fixed(x, w) for x in etas]
    wts = [gdiv(dp, prev.fixed(x, w), w) for dp, x in zip(dpj, etas)]
    vals = [[polys[n].evaluator().fixed(x, w) for x in etas] for n in range(N)]
    return zero_grid_gram(wts, vals, dpj)


def naive_weight_demo(lam: ParamSet, D: IndexSet, N: int, bits: int = 256) -> mp.mpf:
    """Gram off-diagonal of the classical relation applied to P_{D,n} (failure witness)."""
    bundle = build_miop(lam, D, N, bits)
    return naive_zero_grid([bundle.P[n] for n in range(N + 1)], bits, lam.fam)[1]
