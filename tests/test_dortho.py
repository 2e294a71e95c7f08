"""Discrete orthogonality pipeline: derived sets, F weights, M matrices, Gram."""

import ast
import pathlib
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest

import casoratia
from casoratia.dortho import (PaBasis, build_M, build_pa_basis, compute_F, derived_index_sets,
                              naive_weight_demo, pa_difference_equation_defect,
                              verify_orthogonality)
from casoratia.families import FAMILIES, draw_params
from casoratia.identities import classical_discrete_ortho
from casoratia.miop import IndexSet, build_miop, get_builder, htilde_frame
from casoratia.numkernel import GUARD_BITS, gload, gstore, workbits
from casoratia.polycore import Poly
from casoratia.zeros import find_zeros
import zero_grid_oracle as oracle

HALF = Fraction(1, 2)


def test_derived_index_sets_examples():
    # D^I = {0,1}: no candidates below either degree that are outside D
    o1, o2, o3 = derived_index_sets(IndexSet.make([(0, "I"), (1, "I")]))
    assert not o1 and not o2 and not o3
    # D^I = {2}: epsilon in {0, 1}
    o1, o2, o3 = derived_index_sets(IndexSet.make([(2, "I")]))
    assert len(o1) == 2 and not o2 and not o3
    assert sorted(ds.added[0] for ds in o1) == [0, 1]
    # D = {1^I, 1^II}: one of each case, total = ell = 3
    o1, o2, o3 = derived_index_sets(IndexSet.make([(1, "I"), (1, "II")]))
    assert len(o1) == 1 and len(o2) == 1 and len(o3) == 1
    assert o3[0].D.M == 0


def test_pa_basis_counts_and_degrees():
    with workbits(256):
        lam = draw_params("w", "physical", seed=3)
        D = IndexSet.make([(2, "I"), (1, "II")])
        N = 2
        basis = build_pa_basis(lam, D, N)
        assert len(basis.entries) == N + D.ell
        for e in basis.entries:
            assert e.poly.degree < N + D.ell
        # empty D: the basis is the base polynomials with E_n
        basis0 = build_pa_basis(lam, IndexSet.make([]), 3)
        assert [e.case for e in basis0.entries] == [0, 0, 0]


def test_f_weight_parity_and_conjugation():
    """F-check(x) is even in x for W/AW and conjugates with the representative."""
    with workbits(288):
        for tag in ("w", "aw"):
            fam = FAMILIES[tag]
            lam = draw_params(tag, "physical", seed=29)
            D = IndexSet.make([(2, "I")])
            N = 2
            bun = build_miop(lam, D, N)

            def f_check(u):
                um, up = fam.shift_arg(u, -1, lam), fam.shift_arg(u, 1, lam)
                umh, uph = fam.shift_arg(u, -HALF, lam), fam.shift_arg(u, HALF, lam)
                em, ep = fam.eta_at(um, lam), fam.eta_at(up, lam)
                xim, xip = bun.xi(fam.eta_at(umh, lam)), bun.xi(fam.eta_at(uph, lam))
                v = fam.v_at(bun.lam_D.a, u, lam)
                vs = fam.v_star_at(bun.lam_D.a, u, lam)
                dP = bun.P[N].derivative()
                return -(em * v * (xip / xim) * bun.P[N](em)
                         + ep * vs * (xim / xip) * bun.P[N](ep)) / dP(fam.eta_at(u, lam))

            for u in fam.sample_args(4, lam, "parity"):
                u_neg = 1 / u if fam.var_kind == "z" else -u
                a, b = f_check(u), f_check(u_neg)
                assert abs(a - b) <= mp.mpf(2) ** -180 * (abs(a) + 1)
            # conjugate zeros carry conjugate weights in physical mode
            zs = find_zeros(bun.P[N], 256, fam)
            F = [gstore(f, mp.mp.prec) for f in
                 compute_F(bun, [htilde_frame(bun, fam.arg_of_eta(e)) for e in zs.eta])[0]]
            for j, ej in enumerate(zs.eta):
                tgt = mp.conj(ej)
                jbar = min(range(len(zs.eta)), key=lambda k: abs(zs.eta[k] - tgt))
                assert abs(mp.conj(F[j]) - F[jbar]) <= mp.mpf(2) ** -150 * abs(F[j])


def test_orthogonality_empty_d_matches_classical_constant():
    """D = 0, N = 2: ratio k_0/k_1 agrees with the classical-route diagonal ratio."""
    with workbits(288):
        for tag in ("ch", "w", "aw"):
            lam = draw_params(tag, "physical", seed=31)
            rep = verify_orthogonality(lam, IndexSet.make([]), 2)
            assert rep.max_offdiag_rel <= mp.mpf("1e-25")
            classic = classical_discrete_ortho(lam, 2)
            got = rep.k[0] / rep.k[1]
            want = classic["diag"][0] / classic["diag"][1]
            assert abs(got - want) / abs(want) <= mp.mpf(2) ** -120


def test_lemma_guard_in_matrix_denominators():
    """(eta(a-c)-eta(b))(eta(a+c)-eta(b)) is symmetric for the sampled zeros."""
    with workbits(288):
        fam = FAMILIES["aw"]
        lam = draw_params("aw", "physical", seed=7)
        D = IndexSet.make([(1, "I")])
        bun = build_miop(lam, D, 2)
        zs = find_zeros(bun.P[2], 256, fam)
        g = fam.gamma_value(lam)
        for j in (0, 1):
            for k in (1, 2):
                a, b = zs.x[j], zs.x[k]
                lhs = ((mp.cos(a - 1j * g) - mp.cos(b)) * (mp.cos(a + 1j * g) - mp.cos(b)))
                rhs = ((mp.cos(b - 1j * g) - mp.cos(a)) * (mp.cos(b + 1j * g) - mp.cos(a)))
                assert abs(lhs - rhs) <= mp.mpf(2) ** -200 * (abs(lhs) + 1)


@pytest.mark.parametrize("tag", ["ch", "w", "aw"])
@pytest.mark.parametrize("mode", ["physical", "generic"])
def test_orthogonality_report(tag, mode):
    with workbits(288):
        lam = draw_params(tag, mode, seed=37)
        D = IndexSet.make([(1, "I"), (1, "II")])
        rep = verify_orthogonality(lam, D, 2)
        assert rep.max_offdiag_rel <= mp.mpf("1e-25")
        assert rep.symmetry_defect <= mp.mpf("1e-30")
        assert rep.diag_defect <= mp.mpf(2) ** -128
        assert rep.f_cross_defect <= mp.mpf(2) ** -128
        assert max(rep.eigen_residuals) <= mp.mpf(2) ** -128
        assert rep.extras["pa_defect"] <= mp.mpf(2) ** -128
        # k_a equals (c^P)^-2 <v, v> by construction: explicit bookkeeping check
        bun = rep.extras["bundle"]
        zs = rep.extras["zeros"]
        basis = rep.extras["basis"]
        cP = mp.mpc(bun.P[2].lead())
        dP = bun.P[2].derivative()
        a = 1
        vv = sum((1 / mp.mpc(f)) * (cP * mp.mpc(basis.entries[a].poly(e)) / mp.mpc(dP(e))) ** 2
                 for f, e in zip(rep.F, zs.eta))
        assert abs(vv / cP ** 2 - rep.k[a]) <= mp.mpf(2) ** -100 * abs(rep.k[a])


# documented failure witnesses for the naive weight (the split is instance
# specific; these are stable across the precision ladder)
NAIVE_WITNESS = {"ch": [(2, "I")], "w": [(3, "I")], "aw": [(3, "I")]}


def test_naive_weight_split():
    """The naive weight works for D = 0 and fails for multi-indexed D."""
    with workbits(288):
        for tag in ("ch", "w", "aw"):
            lam = draw_params(tag, "physical", seed=11)
            ok = naive_weight_demo(lam, IndexSet.make([]), 3)
            assert ok <= mp.mpf(2) ** -100
            D = IndexSet.make(NAIVE_WITNESS[tag])
            bad = naive_weight_demo(lam, D, 3)
            assert bad >= mp.mpf("1e-3")
            rep = verify_orthogonality(lam, D, 3)
            assert rep.max_offdiag_rel <= mp.mpf("1e-25")


def test_naive_weight_vanishes_at_n2():
    """At N = 2 the naive Gram has one off-diagonal entry, sum_j P_{D,0}(eta_j) / P'_{D,2}(eta_j),
    which vanishes identically because deg P_{D,0} = deg P_{D,2} - 2."""
    with workbits(288):
        for tag in ("ch", "w", "aw"):
            lam = draw_params(tag, "physical", seed=11)
            D = IndexSet.make(NAIVE_WITNESS[tag])
            assert naive_weight_demo(lam, D, 2) <= mp.mpf(2) ** -200


def test_htilde_formula_has_one_home():
    """dortho, identities._chain_pairs and identities.psi_d_squared take shifts, V and Xi_D
    values from miop.htilde_frame."""
    root = pathlib.Path(casoratia.__file__).parent
    banned = {"shift_arg", "eta_at", "v_at", "v_star_at"}

    def called(tree):
        return {node.func.attr for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}

    dortho = ast.parse((root / "dortho.py").read_text())
    assert called(dortho) & (banned | {"xi", "xi_shift"}) == set()
    identities = ast.parse((root / "identities.py").read_text())
    chain = next(f for f in identities.body
                 if isinstance(f, ast.FunctionDef) and f.name == "_chain_pairs")
    assert called(chain) & banned == set()
    psi = next(f for f in identities.body
               if isinstance(f, ast.FunctionDef) and f.name == "psi_d_squared")
    assert called(psi) & {"shift_arg", "eta_at"} == set()


@pytest.mark.parametrize("tag", ["ch", "w", "aw"])
def test_pa_defect_fires_on_a_perturbed_entry(tag):
    """The P_a difference equation holds to 2^-128 at the zeros of P_{D,N}, and a basis
    entry with its largest coefficient moved by 2^-100 relative pushes the defect above."""
    with workbits(288):
        lam = draw_params(tag, "generic", seed=1)
        D, N = IndexSet.make([(1, "I")]), 2
        bun = build_miop(lam, D, N)
        zs = find_zeros(bun.P[N], 256, lam.fam)
        basis = build_pa_basis(lam, D, N)
        frames = [htilde_frame(bun, lam.fam.arg_of_eta(e)) for e in zs.eta]
        assert pa_difference_equation_defect(basis, frames) <= mp.mpf(2) ** -128
        *rest, last = basis.entries
        cs = list(last.poly.coeffs)
        k = max(range(len(cs)), key=lambda j: abs(cs[j]))
        cs[k] = cs[k] * (1 + mp.mpf(2) ** -100)
        bad = PaBasis(rest + [replace(last, poly=Poly(cs, last.poly.scalars))])
        assert pa_difference_equation_defect(bad, frames) > mp.mpf(2) ** -128


def test_sqrt_branch_of_M_ignores_the_sign_of_noise():
    """A real negative F_j with a noise-level imaginary part, -256 + i 2^-270 or
    -256 - i 2^-270, gives the same M to noise: the sign of Im F_j picks no branch of
    g_j = sqrt(F_j), which would flip row and column j."""
    with workbits(288):
        lam = draw_params("w", "physical", seed=3)
        D, N = IndexSet.make([(1, "I")]), 2
        bun = build_miop(lam, D, N)
        zs = find_zeros(bun.P[N], 256, lam.fam)
        frames = [htilde_frame(bun, lam.fam.arg_of_eta(e)) for e in zs.eta]
        F, _ = compute_F(bun, frames)
        Ms = []
        for sign in (1, -1):
            F[1] = gload(mp.mpc(-256, sign * mp.mpf(2) ** -270), mp.mp.prec + GUARD_BITS)
            Ms.append([[gstore(m, mp.mp.prec) for m in row]
                       for row in build_M(lam, D, zs, frames, F)[1]])
        plus, minus = Ms
        scale = max(abs(m) for row in plus for m in row)
        assert max(abs(p - m) for rp, rm in zip(plus, minus) for p, m in zip(rp, rm)) \
            <= mp.mpf(2) ** -250 * scale


def test_builder_primed_at_a_low_precision_still_verifies(monkeypatch):
    """A builder whose column polynomials were first asked for at the ambient 53 bits makes
    them at its own bits + 32 all the same: they equal a fresh builder's, and
    verify_orthogonality passes its gates."""
    from casoratia import miop

    monkeypatch.setattr(miop, "_BUILDERS", {})
    lam = draw_params("ch", "generic", seed=1)
    D = IndexSet.make([(1, "I"), (1, "II")])
    cols = [(t, d) for d, t in D.entries] + [("P", n) for n in range(4)]
    with workbits(53):
        b = get_builder(lam, 256)
        primed = [b.col_poly(kind, deg).coeffs for kind, deg in cols]
    fresh = miop.Builder(lam, 256)
    assert primed == [fresh.col_poly(kind, deg).coeffs for kind, deg in cols]
    verify_orthogonality(lam, D, 3)


def test_pa_basis_owns_its_precision(monkeypatch):
    """build_pa_basis called at the ambient 53 bits builds at bits + 32, as build_miop does:
    the same P_a and energies as under workbits(288)."""
    from casoratia import miop

    lam = draw_params("w", "physical", seed=1)
    D = IndexSet.make([(2, "I")])
    bases = []
    for bits in (53, 288):
        monkeypatch.setattr(miop, "_BUILDERS", {})
        with workbits(bits):
            bases.append(build_pa_basis(lam, D, 3, 256))
    low, high = ([(e.poly.coeffs, e.energy) for e in basis.entries] for basis in bases)
    assert low == high


# one deep-size instance per family: M = 3, deg P_{D,N} = 10-12 (the benchmark's deep sets)
DEEP_SETS = {"ch": ("generic", [(1, "I"), (2, "I"), (3, "II")], 5),
             "w": ("physical", [(1, "I"), (3, "I"), (2, "II")], 5),
             "aw": ("generic", [(1, "I"), (2, "I"), (1, "II")], 5)}


def _close(got, want, tol):
    """|got - want| <= tol max |want|, entry by entry over flat lists."""
    scale = max(abs(x) for x in want)
    return all(abs(g - x) <= tol * scale for g, x in zip(got, want))


@pytest.mark.parametrize("tag", ["ch", "w", "aw"])
def test_zero_grid_matches_the_mpc_oracle(tag):
    """The Gaussian-float zero grid of verify_orthogonality agrees with the mpc formulas of
    tests/zero_grid_oracle.py to 2^-(bits-16) on a deep-size instance per family: each
    frame's etas and weights and each F_j relative to themselves, M-tilde and M relative to
    their largest entry, the f_cross_form gap and the eigen residuals (already relative)
    absolutely, and each Gram entry relative to sqrt(|G_aa| |G_bb|)."""
    mode, pairs, N = DEEP_SETS[tag]
    bits = 256
    tol = mp.mpf(2) ** (16 - bits)
    lam = draw_params(tag, mode, seed=1)
    rep = verify_orthogonality(lam, IndexSet.make(pairs), N, bits)
    bun, zs, basis = rep.extras["bundle"], rep.extras["zeros"], rep.extras["basis"]
    assert zs.eta and len(zs.eta) >= 10
    with workbits(bits + 32):
        us = [lam.fam.arg_of_eta(e) for e in zs.eta]
        frames = [oracle.htilde_frame(bun, u) for u in us]
        for want, got in zip(frames, (htilde_frame(bun, u) for u in us)):
            for name in ("eta", "eta_m", "eta_p", "eta_mh", "eta_ph", "xi_mh", "xi_ph",
                         "w_m", "w_p", "w_0"):
                assert _close([getattr(got, name)], [getattr(want, name)], tol), name
        F, cross = oracle.compute_F(bun, frames)
        assert all(_close([g], [f], tol) for g, f in zip(rep.F, F))
        assert abs(rep.f_cross_defect - cross) <= tol
        Mt, M = oracle.build_M(zs.eta, frames, F)
        for got, want in ((rep.extras["Mtilde"], Mt), (rep.extras["M"], M)):
            assert _close([x for row in got for x in row], [x for row in want for x in row], tol)
        eig = oracle.eigen_residuals(Mt, basis, zs.eta, bun.P[N])
        assert all(abs(g - e) <= tol for g, e in zip(rep.eigen_residuals, eig))
        dP = bun.P[N].derivative()
        vals = [[e.poly(z) for z in zs.eta] for e in basis.entries]
        G = oracle.zero_grid_gram([1 / f for f in F], vals, [dP(z) for z in zs.eta])
        for a, row in enumerate(G):
            for b, want in enumerate(row):
                assert abs(rep.gram[a][b] - want) <= tol * mp.sqrt(abs(G[a][a] * G[b][b]))
