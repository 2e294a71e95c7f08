"""Discrete orthogonality: derived index sets, Pa basis, F weights, M matrices.

Implements the zero-grid orthogonality pipeline: the eigenbasis polynomials
P_a built from the lowered/derived index sets, the weight reciprocals F_j at
the zeros of P_{D,N} (computed by both closed forms and cross-checked), the
matrices M-tilde and its symmetrized M, and the Gram matrix whose off-diagonal
decay is the discrete orthogonality relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import mpmath as mp

from .families import ParamSet
from .miop import (IndexSet, MiopBundle, apply_htilde, build_miop, eigen_residual, get_builder,
                   htilde_frame)
from .numkernel import workbits
from .polycore import Poly
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
    """Weights F_j by the symmetric two-term form, and their worst relative gap to the
    one-term form (the f_cross_form check)."""
    pN = bundle.P[bundle.n_max]
    dP = pN.derivative()
    F = []
    cross_worst = mp.mpf(0)
    for fr in frames:
        eta_m, eta_p = fr.eta_m, fr.eta_p
        dpj = dP(fr.eta)
        two_term = -(eta_m * fr.w_m * pN(eta_m) + eta_p * fr.w_p * pN(eta_p)) / dpj
        one_term = (eta_p - eta_m) / dpj * fr.w_m * pN(eta_m)
        fj, fj2 = mp.mpc(two_term), mp.mpc(one_term)
        rel = abs(fj - fj2) / max(abs(fj), abs(fj2), mp.mpf("1e-300"))
        cross_worst = max(cross_worst, rel)
        F.append(two_term)
    scale = max(abs(mp.mpc(f)) for f in F)
    for f in F:
        if abs(mp.mpc(f)) <= scale * mp.mpf(2) ** (-bits // 2):
            raise WeightSingular("some F_j is numerically zero")
    return F, cross_worst


def build_M(lam: ParamSet, D: IndexSet, zs: ZeroSet, frames, F, bits: int = 256):
    """M-tilde per the closed forms, M = G^-1 M-tilde G with g_j = sqrt(F_j) on a branch
    that a noise-level Im F_j cannot flip: sqrt(F_j) for Re F_j >= 0, else i sqrt(-F_j)."""
    n_t = len(zs.eta)
    etas = zs.eta
    tol = mp.mpf(2) ** (-bits + 40)
    Mt = [[mp.mpc(0)] * n_t for _ in range(n_t)]
    scale_eta = max(max(abs(e) for e in etas), mp.mpf(1))
    for j, fr in enumerate(frames):
        em, ep = fr.eta_m, fr.eta_p
        for k in range(n_t):
            if k == j:
                continue
            d1, d2 = em - etas[k], ep - etas[k]
            if abs(d1) < tol * scale_eta or abs(d2) < tol * scale_eta:
                raise DenominatorCollision(
                    f"eta(x_{j} -+ i gamma) collides with eta_{k}")
            Mt[j][k] = mp.mpc(F[j]) / (d1 * d2)
    for j, fr in enumerate(frames):
        Mt[j][j] = mp.mpc(F[j]) / ((fr.eta_m - etas[j]) * (fr.eta_p - etas[j])) + fr.w_0
    j = _deterministic_index(lam, D, n_t)
    diag_defect = _diag_from_definition_defect(lam, zs, frames[j], j, Mt[j][j])
    g = [mp.sqrt(f) if mp.re(f) >= 0 else 1j * mp.sqrt(-f) for f in map(mp.mpc, F)]
    M = [[Mt[j][k] * g[k] / g[j] for k in range(n_t)] for j in range(n_t)]
    mmax = max(max(abs(M[j][k]) for k in range(n_t)) for j in range(n_t))
    sym = mp.mpf(0)
    for j in range(n_t):
        for k in range(j + 1, n_t):
            sym = max(sym, abs(M[j][k] - M[k][j]))
    return Mt, M, sym / mmax, diag_defect


def _deterministic_index(lam, D, n) -> int:
    import hashlib
    h = hashlib.sha256((lam.digest() + D.key()).encode()).digest()
    return h[0] % n


def _diag_from_definition_defect(lam, zs, fr, j, closed_value) -> mp.mpf:
    """M~_jj from the definition: H~_D applied to the Lagrange numerator at x_j (frame fr)."""
    sc = lam.scalars
    lag = Poly([sc.one], sc)
    for l, eta_l in enumerate(zs.eta):
        if l != j:
            lag = lag * Poly([-eta_l, sc.one], sc)
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
    whatever the caller's precision)."""
    if lam.scalars.name != "float":
        raise ValueError("the orthogonality pipeline requires the float backend")
    with workbits(bits + 32):
        fam = lam.fam
        bundle = build_miop(lam, D, N, bits)
        zs = find_zeros(bundle.P[N], bits, fam)
        basis = build_pa_basis(lam, D, N, bits)
        b = get_builder(lam, bits)
        frames = [htilde_frame(b, bundle, fam.arg_of_x(x)) for x in zs.x]
        F, f_cross = compute_F(bundle, frames, bits)
        Mt, M, sym, diagd = build_M(lam, D, zs, frames, F, bits)
        n_t = len(zs.eta)
        dP = bundle.P[N].derivative()
        dpj = [mp.mpc(dP(e)) for e in zs.eta]
        vals = [[mp.mpc(e.poly(zs.eta[j])) for j in range(n_t)] for e in basis.entries]
        eigres = []
        cP = mp.mpc(lam.scalars.to_mpc(bundle.P[N].lead()))
        for a, entry in enumerate(basis.entries):
            vt = [cP * vals[a][j] / dpj[j] for j in range(n_t)]
            ev = mp.mpc(lam.scalars.to_mpc(entry.energy))
            worst = mp.mpf(0)
            scale = max(max(abs(x) for x in vt), mp.mpf("1e-300")) * (abs(ev) + 1)
            for j in range(n_t):
                worst = max(worst, abs(mp.fdot(Mt[j], vt) - ev * vt[j]) / scale)
            eigres.append(worst)
        gram, offd = zero_grid_gram([1 / mp.mpc(f) for f in F], vals, dpj)
        rep = OrthoReport(
            family=lam.family, D=D, N=N, precision_bits=bits,
            F=[mp.mpc(f) for f in F], symmetry_defect=sym, diag_defect=diagd,
            f_cross_defect=f_cross, gram=gram, max_offdiag_rel=offd,
            k=[gram[a][a] for a in range(len(basis.entries))],
            origins=[e.origin for e in basis.entries],
            eigen_residuals=eigres,
            pa_energy=[mp.mpc(lam.scalars.to_mpc(e.energy)) for e in basis.entries],
        )
        rep.extras["zeros"] = zs
        rep.extras["bundle"] = bundle
        rep.extras["basis"] = basis
        rep.extras["Mtilde"] = Mt
        rep.extras["M"] = M
        rep.extras["pa_defect"] = pa_difference_equation_defect(basis, frames)
        return rep


def zero_grid_gram(w, vals, dpj):
    """(G, max off-diagonal ratio) of G_ab = sum_j w_j P_a(eta_j) P_b(eta_j) / P'_N(eta_j)^2.

    vals[a][j] = P_a(eta_j) and dpj[j] = P'_N(eta_j) at the zeros eta_j of P_N;
    the ratio is max over a < b of |G_ab| / sqrt(|G_aa| |G_bb|).  The weight
    w_j / P'_N(eta_j)^2 is made once per zero and its product with P_a(eta_j)
    once per row, so an entry is one dot product.  G is filled for a <= b and
    mirrored.
    """
    n = len(vals)
    weights = [wj / dp ** 2 for wj, dp in zip(w, dpj)]
    rows = [[wj * va for wj, va in zip(weights, row)] for row in vals]
    gram = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            gram[a][b] = gram[b][a] = mp.fdot(rows[a], vals[b])
    offd = mp.mpf(0)
    for a in range(n):
        for b in range(a + 1, n):
            offd = max(offd, abs(gram[a][b]) / mp.sqrt(abs(gram[a][a]) * abs(gram[b][b])))
    return gram, offd


def naive_zero_grid(polys, bits: int, family):
    """zero_grid_gram of P_0 .. P_{N-1} = polys[:N] with the naive weight P'_N / P_{N-1}
    at the zeros of P_N = polys[N]: the classical zero-grid relation."""
    N = len(polys) - 1
    zs = find_zeros(polys[N], bits, family)
    dP = polys[N].derivative()
    dpj = [mp.mpc(dP(e)) for e in zs.eta]
    w = [dp / mp.mpc(polys[N - 1](e)) for dp, e in zip(dpj, zs.eta)]
    vals = [[mp.mpc(polys[n](e)) for e in zs.eta] for n in range(N)]
    return zero_grid_gram(w, vals, dpj)


def naive_weight_demo(lam: ParamSet, D: IndexSet, N: int, bits: int = 256) -> mp.mpf:
    """Gram off-diagonal of the classical relation applied to P_{D,n} (failure witness)."""
    bundle = build_miop(lam, D, N, bits)
    return naive_zero_grid([bundle.P[n] for n in range(N + 1)], bits, lam.fam)[1]
