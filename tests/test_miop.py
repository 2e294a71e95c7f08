"""Multi-index construction: degree laws, gates, operator, hermiticity, norms."""

import sys
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest

from casoratia import miop
from casoratia.families import FAMILIES, draw_params, params_from_values
from casoratia.miop import (Builder, DegenerateIndexSet, IndexSet, PoleAtSample,
                            PrefactorResidue, apply_htilde, build_miop, eigen_residual,
                            delta_tilde, ell_degree, get_builder, hermiticity_check,
                            h_ratio, htilde_frame, shifted_params)
from casoratia.numkernel import GUARD_BITS, HELD_OUT, gstore, mpc_parts, workbits
from casoratia.polycore import Poly, det_dense, ladder_points, lstsq_dense

TAGS = ["ch", "w", "aw"]


def test_ell_degree_examples():
    assert ell_degree(IndexSet.make([])) == 0
    assert ell_degree(IndexSet.make([(1, "I")])) == 1
    assert ell_degree(IndexSet.make([(1, "I"), (1, "II")])) == 3
    assert ell_degree(IndexSet.make([(0, "I"), (2, "I")])) == 1


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet.make([(1, "I"), (1, "I")])
    with pytest.raises(ValueError):
        IndexSet.make([(-1, "I")])


def test_empty_index_set_is_base():
    """P_{{},n} is the base polynomial p_n: bit for bit the family's run on the builder's
    scalars, and consecutive P_{{},n} satisfy that run's three-term recurrence."""
    with workbits(192):
        lam = draw_params("w", "physical", seed=3)
        b = get_builder(lam, 192)
        D = IndexSet.make([])
        ps = [b.P(D, n) for n in range(4)]
        with workbits(192 + 32):   # the builder's working precision
            run = FAMILIES["w"].base_poly(3, lam, b.sc)
            for n, p in enumerate(ps):
                assert p.coeffs == run.polys[n].coeffs

            def coeff(m, i):
                return ps[m].coeffs[i] if m >= 0 and i < len(ps[m].coeffs) else b.sc.zero
            for n, (a_n, b_n, c_n) in enumerate(run.triples):
                lhs = [b.sc.zero] + ps[n].coeffs            # eta p_n
                rhs = [a_n * coeff(n + 1, i) + b_n * coeff(n, i) + c_n * coeff(n - 1, i)
                       for i in range(n + 2)]
                assert max(abs(x - y) for x, y in zip(lhs, rhs)) \
                    <= mp.mpf(2) ** -200 * max(map(abs, lhs))


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("mode", ["physical", "generic"])
def test_column_polynomials_on_the_builders_scalars(tag, mode):
    """A builder's base polynomials have degree n: at 1024 bits up to n = 80, and on W
    physical, whose leading coefficient is 2^-250 of the height at n = 36 and 2^-379 at
    n = 50, at 256 bits from n = 36 to 50.  A trim at 2^(16 - bits) of the height gave
    W physical degree 35, 36, 37, 38, 39 there."""
    lam = draw_params(tag, mode, 1)
    cases = [(1024, (40, 50, 60, 80))]
    if (tag, mode) == ("w", "physical"):
        cases.append((256, (36, 38, 40, 45, 50)))
    for bits, ns in cases:
        b = Builder(lam, bits=bits)
        for n in ns:
            assert b.col_poly("P", n).degree == n, (bits, n)


@pytest.mark.parametrize("tag", TAGS)
def test_single_index_xi_proportional_to_virtual(tag):
    """M = 1: the 1x1 Casoratian makes Xi_D proportional to xi_d itself."""
    with workbits(256):
        lam = draw_params(tag, "physical", seed=7)
        fam = FAMILIES[tag]
        b = get_builder(lam)
        for d, t in ((2, "I"), (1, "II")):
            D = IndexSet.make([(d, t)])
            xi = b.xi(D)
            ref = fam.base_poly(d, lam.with_a(fam.twist_a(t, lam)), lam.scalars).polys[d]
            ratio = xi.lead() / ref.lead()
            for c1, c2 in zip(xi.coeffs, ref.coeffs):
                assert abs(c1 - ratio * c2) <= mp.mpf(2) ** -200 * abs(ratio)


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("mode", ["physical", "generic"])
def test_bundle_gates_on_small_grid(tag, mode):
    with workbits(288):
        lam = draw_params(tag, mode, seed=31)
        for pairs in ([(1, "I")], [(0, "II"), (2, "II")], [(1, "I"), (2, "II")]):
            D = IndexSet.make(pairs)
            bun = build_miop(lam, D, n_max=3)
            assert bun.xi.degree == D.ell
            for n, p in bun.P.items():
                assert p.degree == D.ell + n
            assert bun.gates["eigen_residual"] <= mp.mpf(2) ** -128
            assert bun.gates["shape_invariance"] <= mp.mpf(2) ** -128


def test_order_insensitivity():
    with workbits(256):
        lam = draw_params("w", "physical", seed=13)
        b1 = build_miop(lam, IndexSet.make([(2, "I"), (1, "II")]), 1, check=False)
        b2 = build_miop(lam, IndexSet.make([(1, "II"), (2, "I")]), 1, check=False)
        for c1, c2 in zip(b1.xi.coeffs, b2.xi.coeffs):
            assert c1 == c2


def test_reality_physical_mode():
    """Physical-mode Xi and P coefficients are real after a global phase."""
    with workbits(256):
        for tag in TAGS:
            lam = draw_params(tag, "physical", seed=19)
            bun = build_miop(lam, IndexSet.make([(2, "I")]), 2, check=False)
            for poly in [bun.xi, *bun.P.values()]:
                pivot = max(poly.coeffs, key=lambda c: abs(c))
                phase = pivot / abs(pivot)
                scale = abs(pivot)
                for c in poly.coeffs:
                    assert abs(mp.im(c / phase)) <= mp.mpf(2) ** -180 * scale


def test_apply_htilde_on_constants_and_linearity():
    with workbits(256):
        lam = draw_params("aw", "physical", seed=3)
        sc = lam.scalars
        D = IndexSet.make([])
        bun = build_miop(lam, D, 1, check=False)
        one = Poly([sc.one], sc)
        u = FAMILIES["aw"].sample_args(3, lam, "lin")[1]
        fr = htilde_frame(bun, u)
        assert abs(apply_htilde(fr, one)) <= mp.mpf(2) ** -180
        p = bun.P[1]
        r = Poly([sc.from_int(2), sc.one, sc.one], sc)
        al, be = mp.mpc("1.5", "-0.5"), mp.mpc("0.25", "2")
        pcs = p.coeffs + [sc.zero] * (len(r.coeffs) - len(p.coeffs))
        combo = Poly([al * x + be * y for x, y in zip(pcs, r.coeffs)], sc)
        lhs = apply_htilde(fr, combo)
        rhs = (al * apply_htilde(fr, p) + be * apply_htilde(fr, r))
        assert abs(lhs - rhs) <= mp.mpf(2) ** -180 * (1 + abs(lhs))


def test_shifted_params_counts_only():
    with workbits(192):
        lam = draw_params("w", "physical", seed=2)
        l1 = shifted_params(lam, IndexSet.make([(1, "I"), (3, "I")]))
        l2 = shifted_params(lam, IndexSet.make([(0, "I"), (2, "I")]))
        assert all(abs(x - y) == 0 for x, y in zip(l1.a, l2.a))
        l0 = shifted_params(lam, IndexSet.make([]))
        assert all(abs(x - y) == 0 for x, y in zip(l0.a, lam.a))
        # W, M_I = 1: lambda + delta-tilde^I componentwise
        dt = delta_tilde("w", "I")
        l3 = shifted_params(lam, IndexSet.make([(2, "I")]))
        want = FAMILIES["w"].apply_shift_vec(lam, dt)
        assert all(abs(x - y) == 0 for x, y in zip(l3.a, want.a))


def _shift_in_pattern(tag, u, w):
    """u on the first pair a twist acts on, w on the second: (u, u, w, w), cH (u, w, u, w)."""
    return (u, w, u, w) if tag == "ch" else (u, u, w, w)


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("vtype", ["I", "II"])
def test_delta_tilde_table_rederived(tag, vtype):
    """Of the 25 shifts with u, w in {0, +-1/2, +-1}, only the pinned one passes.

    The test is the deformed eigenrelation of P_{D,0..2}, D = {1^vtype}, at
    lambda + shift on a generic draw, 5 samples per n, gate 2^-60.
    """
    fam = FAMILIES[tag]
    vals = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1)]
    with workbits(192):
        lam = draw_params(tag, "generic", seed=1009)
        D = IndexSet.make([(1, vtype)])
        bun = build_miop(lam, D, 2, bits=192, check=False)
        b = get_builder(lam, 192)
        hits = []
        for u in vals:
            for w in vals:
                vec = _shift_in_pattern(tag, u, w)
                shifted = replace(bun, lam_D=fam.apply_shift_vec(lam, vec))
                try:
                    worst = max(eigen_residual([htilde_frame(shifted, x)
                                                for x in fam.sample_args(5, lam, f"dt|{n}")],
                                               [(p, fam.energy(n, lam))], b.sc)
                                for n, p in bun.P.items())
                except PoleAtSample:
                    continue
                if worst < mp.mpf(2) ** -60:
                    hits.append(vec)
    assert hits == [delta_tilde(tag, vtype)]


def test_delta_tilde_is_a_lookup(monkeypatch):
    """delta_tilde answers without building anything and keeps no cache."""
    def refuse(*args, **kwargs):
        raise AssertionError("delta_tilde built a Builder")

    monkeypatch.setattr(miop, "Builder", refuse)
    h = Fraction(1, 2)
    want = {("ch", "I"): (-h, h, -h, h), ("ch", "II"): (h, -h, h, -h),
            ("w", "I"): (-h, -h, h, h), ("w", "II"): (h, h, -h, -h),
            ("aw", "I"): (-h, -h, h, h), ("aw", "II"): (h, h, -h, -h)}
    for (tag, vtype), vec in want.items():
        got = delta_tilde(tag, vtype)
        assert got == vec and all(type(x) is Fraction for x in got)
    assert not getattr(miop, "_DTILDE", None)


def test_hermiticity_check():
    with workbits(256):
        lam = draw_params("w", "physical", seed=5)
        D = IndexSet.make([(2, "I")])
        bun = build_miop(lam, D, 1, check=False)
        ok, witness = hermiticity_check(bun)
        assert ok and not witness
        # deliberately inadmissible: tiny parameters break the zero-free strip
        bad = params_from_values("w", [("0.3", "0"), ("0.35", "0"), ("0.4", "0.1"),
                                       ("0.4", "-0.1")], mode="physical")
        bun_bad = build_miop(bad, D, 0, check=False)
        ok2, witness2 = hermiticity_check(bun_bad)
        assert not ok2 and witness2
        # empty index set is trivially hermitian
        bun0 = build_miop(lam, IndexSet.make([]), 0, check=False)
        ok3, _ = hermiticity_check(bun0)
        assert ok3


def test_h_ratio():
    with workbits(256):
        lam = draw_params("w", "physical", seed=21)
        fam = FAMILIES["w"]
        D = IndexSet.make([(1, "I")])
        assert h_ratio(lam, D, 2, 2) == 1
        d0 = IndexSet.make([])
        got = mp.mpc(h_ratio(lam, d0, 3, 1))
        want = mp.mpc(fam.h_ratio_base(3, 1, lam))
        assert abs(got - want) == 0
        got = mp.mpc(h_ratio(lam, D, 2, 0))
        ev = mp.mpc(fam.etilde("I", 1, lam))
        want = (mp.mpc(fam.h_ratio_base(2, 0, lam))
                * (mp.mpc(fam.energy(2, lam)) - ev) / (mp.mpc(fam.energy(0, lam)) - ev))
        assert abs(got - want) / abs(want) < mp.mpf(2) ** -200


def test_exact_backend_degree_laws():
    lam = params_from_values("w", [("5/2", "0"), ("11/4", "0"), ("9/4", "1/2"), ("9/4", "-1/2")],
                             mode="physical", backend="exact")
    b = get_builder(lam)
    for pairs in ([(2, "I")], [(1, "I"), (1, "II")]):
        D = IndexSet.make(pairs)
        assert b.xi(D).degree == D.ell
        assert b.P(D, 2).degree == D.ell + 2


EXACT_PARAMS = {
    "ch": ([("5/2", "1/2"), ("9/4", "1/3"), ("5/2", "-1/2"), ("9/4", "-1/3")], None),
    "w": ([("5/2", "0"), ("11/4", "0"), ("9/4", "1/2"), ("9/4", "-1/2")], None),
    "aw": ([("1/10", "0"), ("2/15", "0"), ("1/8", "1/16"), ("1/8", "-1/16")], "2/5"),
}


def test_exact_and_float_construction_agree():
    """Xi_D and P_{D,n} from the exact backend match the float build, on every family."""
    D = IndexSet.make([(1, "I"), (1, "II")])
    with workbits(256):
        for tag, (a_vals, q_val) in EXACT_PARAMS.items():
            lam_e = params_from_values(tag, a_vals, q_val, mode="physical", backend="exact")
            lam_f = params_from_values(tag, a_vals, q_val, mode="physical", backend="float",
                                       bits=256)
            b_e, b_f = get_builder(lam_e), get_builder(lam_f, 256)
            pairs = [(b_e.xi(D), b_f.xi(D))] + [(b_e.P(D, n), b_f.P(D, n)) for n in range(3)]
            for p_e, p_f in pairs:
                # normalize both by their leading coefficient before comparing
                ce = [(c / p_e.lead()).to_mpc() for c in p_e.coeffs]
                cf = [c / p_f.lead() for c in p_f.coeffs]
                assert len(ce) == len(cf), tag
                for a, b in zip(ce, cf):
                    assert abs(a - b) <= mp.mpf(2) ** -200 * (1 + abs(a)), tag


def test_verify_report_invariant_under_d_reordering():
    from casoratia.dortho import verify_orthogonality
    with workbits(256):
        lam = draw_params("aw", "physical", seed=3)
        r1 = verify_orthogonality(lam, IndexSet.make([(2, "I"), (1, "II")]), 2)
        r2 = verify_orthogonality(lam, IndexSet.make([(1, "II"), (2, "I")]), 2)
        for k1, k2 in zip(r1.k, r2.k):
            assert k1 == k2


def _row_weight(lam, kind: str, xs):
    """prod over the points xs of alpha N(x) for a column kind: N the numerator of V at the
    kind's parameters, from the family's v_numer_at (alpha = 1 and lambda's a for P)."""
    fam, sc = lam.fam, lam.scalars
    a, alpha = ((lam.a, sc.one) if kind == "P"
                else (fam.twist_a(kind, lam), fam.alpha(kind, lam)))
    out = sc.one
    for x in xs:
        out = out * alpha * fam.v_numer_at(a, x, lam)
    return out


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_rows_match_det_values(backend):
    """The row of the head columns at p_n is detPoly with the P_n column, for every n, and
    both agree with det_dense on the block [prod_{m<j} alpha N_k(x_m) p_k(eta(x_j))] with the
    phase i^(R(R-1)/2), made from the family's own eta_at, shift_arg and v_numer_at at the
    ladder points x_j = x + i t_j gamma; exact on exact."""
    a_vals, _ = EXACT_PARAMS["w"]
    with workbits(256):
        lam = params_from_values("w", a_vals, mode="physical", backend=backend, bits=256)
        fam, sc = lam.fam, lam.scalars
        b = Builder(lam)
        us = sc.sample_args(fam, 3, lam, "cofactors")
        for D in (IndexSet.make([(1, "I")]), IndexSet.make([(1, "I"), (2, "II")]),
                  IndexSet.make([(0, "I"), (2, "I"), (1, "II")])):
            R = D.M + 1
            nodes = [miop._Node(u, None, fr)
                     for u, fr in zip(us, b.frames(us, R, {"I", "II", "P"}))]
            rows = [b._row(miop._xi_cols(D), "P", nd) for nd in nodes]
            for n in range(3):
                cols = miop._p_cols(D, n)
                want = b.det_values(cols, us)
                polys = [b.col_poly(k, d) for k, d in cols]
                for u, nd, row, w in zip(us, nodes, rows, want):
                    got = row(b._column("P", n, nd))
                    xs = [fam.shift_arg(u, t, lam) for t in ladder_points(R)]
                    block = [[_row_weight(lam, k, xs[:j]) * p(fam.eta_at(x, lam))
                              for p, (k, _) in zip(polys, cols)] for j, x in enumerate(xs)]
                    dense = det_dense(block, sc) * sc.i ** ((R * (R - 1)) // 2)
                    if backend == "exact":
                        assert got == w == dense
                    else:
                        assert abs(got - w) <= mp.mpf(2) ** -220 * abs(w)
                        assert abs(dense - w) <= mp.mpf(2) ** -220 * abs(w)


def test_P_is_independent_of_call_order():
    """A cold builder and a warm one, which built P_{D,0..N} and the derived set's P in
    another order first, give the same float P_{D',n}, bit for bit, for every n <= N."""
    N = 2
    D = IndexSet.make([(1, "I"), (2, "II")])
    Dp = IndexSet.make([(1, "I"), (0, "II")])   # a case-(2) derived set of D
    with workbits(288):
        lam = draw_params("aw", "generic", seed=23)
        cold = Builder(lam)
        want = [cold.P(Dp, n).coeffs for n in range(N + 1)]
        warm = Builder(lam)
        for n in reversed(range(N + 1)):
            warm.P(D, n)
        warm.P(Dp, N + 1)
        warm.P(Dp, 1)
        assert [warm.P(Dp, n).coeffs for n in range(N + 1)] == want
        bun = build_miop(lam, Dp, N, check=False)
        assert [bun.P[n].coeffs for n in range(N + 1)] == want


def test_build_miop_makes_each_row_once(monkeypatch):
    """build_miop on a fresh builder makes the P-head row of each node once, for all n:
    no (node, head columns, last kind) is computed twice.  On a class reference D0, on a
    pure set whose head is D0's and on the mixed sets {1^I, d^II}, every row counts: the
    extraction of P_{D0,n}, and that of Xi_D, take the row the node's reference value
    came from, and Xi_D of {1^I, d^II} the row of the pairing bootstrap's D1 = {1^I, 0^II}."""
    made = []
    row = Builder._row

    def counting(self, head, kind, node):
        made.append((id(node), tuple(head), kind))
        return row(self, head, kind, node)

    monkeypatch.setattr(Builder, "_row", counting)
    with workbits(288):
        lam = draw_params("w", "generic", seed=4)
        for pairs, kinds, n_max in (
                ([(2, "I")], "P", 4), ([(1, "I"), (2, "II")], "P", 4),
                ([(0, "I"), (0, "II")], "I II P", 4), ([(0, "I"), (2, "I")], "I P", 4),
                ([(1, "I"), (1, "II")], "I II P", 2), ([(1, "I"), (0, "II")], "I II P", 2),
                ([(1, "I"), (2, "II")], "I II P", 2)):
            monkeypatch.setattr(miop, "_BUILDERS", {})
            made.clear()
            build_miop(lam, IndexSet.make(pairs), n_max=n_max, check=False)
            counted = [m for m in made if m[2] in kinds.split()]
            assert counted and len(set(counted)) == len(counted)


def test_build_miop_makes_each_column_value_once(monkeypatch):
    """A fresh builder fills each (node, kind, degree) entry of a node's store once, by one
    Horner run over the frame's etas, and keeps every fill: the head columns of each row,
    and the last column of each n and of each index set of a class, read the node's
    values.  Pure and mixed classes, on the builder and its shift builder, every kind."""
    made = []
    fill = Builder._fill

    def counting(self, kind, deg, frame):
        made.append((id(frame), kind, deg))
        return fill(self, kind, deg, frame)

    monkeypatch.setattr(Builder, "_fill", counting)
    monkeypatch.setattr(miop, "_BUILDERS", {})
    with workbits(288):
        lam = draw_params("w", "generic", seed=4)
        for pairs in ([(2, "I")], [(0, "I"), (2, "I")], [(1, "I"), (2, "II")],
                      [(1, "I"), (0, "II")], [(2, "I"), (1, "II")], [(3, "II")]):
            build_miop(lam, IndexSet.make(pairs), n_max=3, check=False)
        b = get_builder(lam)
        stored = sum(len(nd.values) for bld in (b, b.shift_builder())
                     for nd in bld._node_cache.values())
    assert len(made) == len(set(made)) == stored
    assert {kind for _, kind, _ in made} == {"I", "II", "P"}


def _float_or_exact(backend):
    """A W parameter set on the backend: a generic draw in floats, rationals exactly."""
    if backend == "float":
        return draw_params("w", "generic", seed=23)
    return params_from_values("w", EXACT_PARAMS["w"][0], mode="physical", backend="exact")


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_xi_and_pairing_are_independent_of_call_order(backend):
    """Two fresh builders that visit the index sets of one class (M_I, M_II) = (1, 1) in
    opposite orders give the same Xi_D (the reference's from the pairing bootstrap) and
    P_{D,n}, bit for bit: the nodes they share depend on their class alone."""
    sets = [IndexSet.make(pairs) for pairs in ([(0, "I"), (0, "II")], [(1, "I"), (0, "II")],
                                               [(2, "I"), (1, "II")], [(0, "I"), (3, "II")])]
    with workbits(288):
        lam = _float_or_exact(backend)
        built = []
        for order in (sets, sets[::-1]):
            b = Builder(lam)
            got = {D.key(): [b.xi(D).coeffs] + [b.P(D, n).coeffs for n in range(3)]
                   for D in order}
            built.append(got)
        assert built[0] == built[1]


def test_node_sets_nest():
    """The K fit nodes of an extraction are the first K of the 2K ones, bit for bit, and
    are the K-th roots of unity on the fit circle, turned by one salted angle; the
    held-out nodes do not depend on K."""
    from casoratia.numkernel import HELD_OUT, NODE_RADIUS
    with workbits(288):
        for tag in TAGS:
            lam = draw_params(tag, "generic", seed=23)
            sc, fam = lam.scalars, FAMILIES[tag]
            for fit, K in ((1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (9, 16)):
                ids, node = sc.extraction_nodes(fam, lam, fit, "nest", 1)
                ids2, node2 = sc.extraction_nodes(fam, lam, 2 * K, "nest", 1)
                assert len(ids) == K + HELD_OUT and len(ids2) == 2 * K + HELD_OUT
                assert ids2[:K] == ids[:K] and ids2[-HELD_OUT:] == ids[-HELD_OUT:]
                assert all(node(k) == node2(k) for k in ids)
                etas = [node(k)[1] for k in ids[:K]]
                turn = etas[0] / NODE_RADIUS
                for e in etas:
                    assert abs((e / NODE_RADIUS / turn) ** K - 1) <= mp.mpf(2) ** -270
                assert min((abs(e - f) for i, e in enumerate(etas) for f in etas[:i]),
                           default=2) > 1 / mp.mpf(K)


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_cached_nodes_match_fresh_frames(backend):
    """Every cached node's frame, reference value, column values, rows and reference ratio
    are what a fresh frames, det_values, Horner kernel, _row and Xi_{D0} give at its sample
    arg, its eta is the node's, and its frame's etas are the family's eta at the ladder
    points x + i t gamma of its sample arg: nothing in the cache is stale.  The column
    values are the fresh ones bit for bit on floats, exactly on exact.  The rows hold the
    reference's, the extractions' and, at the nodes of the mixed class, the pairing
    bootstrap's D1's."""
    *d1_head, (d1_kind, _) = miop._xi_cols(miop._bumped_reference((1, 1)))
    with workbits(288):
        lam = _float_or_exact(backend)
        b = Builder(lam)
        for D in (IndexSet.make([(2, "I")]), IndexSet.make([(1, "I"), (2, "II")])):
            b.xi(D)
            b.P(D, 2)
        assert {cls[0] for cls, _, _ in b._node_cache} == {1, 2, 3}
        rows, d1_rows, ratios, kinds_read = 0, 0, 0, set()
        for (cls, attempt, k), node in list(b._node_cache.items()):
            R, kinds, ref_cols = cls
            (frame,) = b.frames([node.u], R, set(kinds))
            assert frame == node.frame
            ladder = [lam.fam.eta_at(lam.fam.shift_arg(node.u, t, lam), lam)
                      for t in ladder_points(R)]
            if backend == "exact":
                assert frame[0] == ladder
            else:
                assert all(abs(gstore(x, 288) - e) <= mp.mpf(2) ** -250 * max(1, abs(e))
                           for x, e in zip(frame[0], ladder))
            assert b.det_values(list(ref_cols), [node.u]) == [node.ref]
            for (kind, deg), vals in node.values.items():
                fresh = lam.scalars.horner(b.col_poly(kind, deg).coeffs)
                assert vals == tuple(fresh.fixed(x, 288 + GUARD_BITS) for x in frame[0])
                kinds_read.add(kind)
            *head, (kind, _) = ref_cols
            assert (tuple(head), kind) in node.rows
            for (head, kind), row in node.rows.items():
                assert row == b._row(list(head), kind, miop._Node(node.u, None, frame))
            rows += len(node.rows) - 1
            d1_rows += (tuple(d1_head), d1_kind) in node.rows
            if backend == "exact":
                assert node.eta == lam.fam.eta_at(node.u, lam)
            else:
                assert abs(lam.fam.eta_at(node.u, lam) - node.eta) <= mp.mpf(2) ** -250
            D0 = IndexSet.make([(d, t) for t, d in ref_cols if t != "P"])
            ref_poly = b.shift_builder().xi(D0) if ref_cols[-1][0] == "P" else b.xi(D0)
            if node.ratio is not None:
                assert node.ratio == ref_poly(node.eta) / node.ref
                ratios += 1
        assert rows > 0 and d1_rows > 0 and ratios > 0 and kinds_read == {"I", "II", "P"}


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_extraction_values_are_ratio_times_kept_value(backend, monkeypatch):
    """After a mixed build, every value an extraction fits is its node's reference ratio
    times the node's _kept_value of its columns, and that is Xi_{D0}(eta) / detPoly_{D0}
    times detPoly from fresh det_values at the node's sample arg: equal exactly on the
    exact backend, and equal on floats too, being the same operations."""
    extract, fit = Builder._extract, Builder._fit_held_out
    seen = []

    def spy_extract(self, cols, deg, ref_cols, ref_poly):
        seen.append([self, cols, deg, ref_cols, ref_poly, None])
        return extract(self, cols, deg, ref_cols, ref_poly)

    def spy_fit(self, etas, vals, coeffs, deg):
        seen[-1][-1] = list(vals)
        return fit(self, etas, vals, coeffs, deg)

    monkeypatch.setattr(Builder, "_extract", spy_extract)
    monkeypatch.setattr(Builder, "_fit_held_out", spy_fit)
    with workbits(288):
        lam = _float_or_exact(backend)
        b = Builder(lam)
        for D in (IndexSet.make([(1, "I"), (0, "II")]), IndexSet.make([(1, "I"), (2, "II")])):
            b.xi(D)
            b.P(D, 2)
        assert {len(cols) for _, cols, *_ in seen} == {2, 3}
        for b_, cols, deg, ref_cols, ref_poly, vals in seen:
            nodes, _ = b_._nodes(deg + 1, len(cols), {k for k, _ in cols + ref_cols}, ref_cols)
            assert vals == [nd.ratio * b_._kept_value(cols, nd) for nd in nodes]
            us = [nd.u for nd in nodes]
            assert vals == [ref_poly(nd.eta) / r * v for nd, r, v in
                            zip(nodes, b_.det_values(ref_cols, us), b_.det_values(cols, us))]


def _perturb_row(monkeypatch, ref_cols, cols, at, off):
    """Make every solve on the nodes of the class with reference columns ref_cols take the
    kept row of cols (its head columns and last kind) at nodes[at] with its values times
    off."""
    *head, (kind, _) = cols
    nodes_ = Builder._nodes

    def perturbed(self, fit, R, kinds, ref_cols_):
        nodes, coeffs = nodes_(self, fit, R, kinds, ref_cols_)
        if list(ref_cols_) == list(ref_cols):
            nd = nodes[at]
            row = self._row(head, kind, nd)
            nd.rows[(tuple(head), kind)] = lambda vals: row(vals) * off
        return nodes, coeffs

    monkeypatch.setattr(Builder, "_nodes", perturbed)


@pytest.mark.parametrize("tag", TAGS)
def test_extraction_coefficient_gate_fires(tag, monkeypatch):
    """Xi_{2^I} has 3 unknowns and 4 fit nodes, so the inverse DFT's eta^3 coefficient
    must vanish.  One fit value off by a relative 2^-100, through the row of {2^I} at
    the first node (its reference value is made before), fails that gate."""
    D = IndexSet.make([(2, "I")])
    with workbits(288):
        lam = draw_params(tag, "generic", seed=5)
        Builder(lam).xi(D)
        _perturb_row(monkeypatch, miop._xi_cols(miop.reference_index_set(D.counts)),
                     miop._xi_cols(D), 0, 1 + mp.mpf(2) ** -100)
        with pytest.raises(PrefactorResidue, match="extraction coefficient residual"):
            Builder(lam).xi(D)


@pytest.mark.parametrize("backend", ["float", "exact"])
@pytest.mark.parametrize("tag", TAGS)
def test_extraction_lead_gate_fires(tag, backend):
    """The values of a polynomial of degree deg - 1 at the nodes of deg + 1 unknowns,
    fitted as degree deg, fail the lead gate: their c_deg is rounding noise in floats,
    at 128, 256 and 512 bits, and exactly 0 on the exact backend.  Fitted as degree
    deg - 1, the same values pass."""
    if backend == "exact":
        a_vals, q_val = EXACT_PARAMS[tag]
        lam = params_from_values(tag, a_vals, q_val, mode="physical", backend="exact")
    else:
        lam = draw_params(tag, "generic", 1)
    sc = lam.scalars
    for bits in ((128, 256, 512) if backend == "float" else (256,)):
        b = Builder(lam, bits)
        with workbits(bits + 32):
            for deg in (3, 8, 15, 30):
                ids, node = sc.extraction_nodes(lam.fam, lam, deg + 1, "lead", 0)
                etas = [node(k)[1] for k in ids]
                coeffs = sc.interpolator(etas[:len(ids) - HELD_OUT])
                p = Poly([sc.from_fraction(Fraction(3 * k % 7 + 1, k + 2), Fraction(k % 3 - 1, 5))
                          for k in range(deg)], sc)
                vals = [p(e) for e in etas]
                with pytest.raises(DegenerateIndexSet, match=f"degree {deg} below the noise floor"):
                    b._fit_held_out(etas, vals, coeffs, deg)
                assert b._fit_held_out(etas, vals, coeffs, deg - 1).degree == deg - 1


def test_vanishing_reference_takes_the_next_rotation(monkeypatch):
    """A vanishing reference value moves the solve to the next node rotation; after
    ROTATIONS such rotations the index set counts as degenerate.  Both solves
    take their nodes this way: an extraction against detPoly_{D0} ({2^I}) and the
    pairing bootstrap of a mixed reference, whose detPoly_{D0} is {0^I, 0^II}'s."""
    for D in (IndexSet.make([(2, "I")]), IndexSet.make([(0, "I"), (0, "II")])):
        with workbits(288), monkeypatch.context() as patch:
            lam = draw_params("w", "generic", seed=41)
            want = Builder(lam).xi(D)
            sc = lam.scalars
            nodes, vanishing = sc.extraction_nodes, miop._vanishing
            attempts = []

            def spy(fam, lam_, fit, salt, attempt):
                attempts.append(attempt)
                return nodes(fam, lam_, fit, salt, attempt)

            def vanish_at_first_rotation(sc_, values, bits):
                return attempts[-1] == 0 or vanishing(sc_, values, bits)

            patch.setattr(sc, "extraction_nodes", spy)
            patch.setattr(miop, "_vanishing", vanish_at_first_rotation)
            got = Builder(lam).xi(D)
            assert attempts == [0, 1]
            assert got.degree == want.degree == D.ell
            for c1, c2 in zip(got.coeffs, want.coeffs):
                assert abs(c1 - c2) <= mp.mpf(2) ** -200 * abs(want.lead())
            attempts.clear()
            patch.setattr(miop, "_vanishing", lambda sc_, values, bits: True)
            with pytest.raises(DegenerateIndexSet):
                Builder(lam).xi(D)
            assert attempts == list(range(miop.ROTATIONS))


@pytest.mark.parametrize("tag", TAGS)
def test_mixed_reference_solves_no_normal_equations(tag, monkeypatch):
    """A float mixed build bootstraps Xi_{D0} by a square solve on the extraction nodes:
    polycore.lstsq_dense is never called, through any module that holds it."""
    def refuse(*_):
        raise AssertionError("lstsq_dense called")

    for name, mod in list(sys.modules.items()):
        if name.startswith("casoratia") and getattr(mod, "lstsq_dense", None) is lstsq_dense:
            monkeypatch.setattr(mod, "lstsq_dense", refuse)
    with workbits(288):
        lam = draw_params(tag, "generic", seed=5)
        assert Builder(lam).xi(IndexSet.make([(1, "I"), (1, "II")])).degree == 3


def _perturb_last_d1_row(monkeypatch, off):
    """Make the pairing bootstrap of the class (1, 1) take the row of its D1 at its last
    node, a held-out one, times off."""
    _perturb_row(monkeypatch, miop._xi_cols(miop.reference_index_set((1, 1))),
                 miop._xi_cols(miop._bumped_reference((1, 1))), -1, off)


@pytest.mark.parametrize("tag", TAGS)
def test_pairing_held_out_gate_fires(tag, monkeypatch):
    """One held-out detPoly_{D1} value of the pairing bootstrap off by a relative
    2^-100, through D1's row at that node, fails its gate."""
    D0 = miop.reference_index_set((1, 1))
    with workbits(288):
        _perturb_last_d1_row(monkeypatch, 1 + mp.mpf(2) ** -100)
        lam = draw_params(tag, "generic", seed=5)
        with pytest.raises(PrefactorResidue, match="pairing held-out residual"):
            Builder(lam).xi(D0)


@pytest.mark.parametrize("gate", ["extraction", "pairing"])
def test_exact_held_out_gate_fires(gate, monkeypatch):
    """On the exact backend one held-out value off by a relative 10^-100 fails
    the held-out gate: an exact gate passes on exact equality only.  The extraction
    gate is Xi_{1^I}'s against the constant Xi_{0^I}, the pairing gate that of the
    mixed reference {0^I, 0^II}."""
    D = IndexSet.make([(1, "I")]) if gate == "extraction" else miop.reference_index_set((1, 1))
    lam = params_from_values("w", EXACT_PARAMS["w"][0], mode="physical", backend="exact")
    assert Builder(lam).xi(D).degree == D.ell
    off = 1 + Fraction(1, 10 ** 100)
    if gate == "extraction":
        _perturb_row(monkeypatch, miop._xi_cols(miop.reference_index_set(D.counts)),
                     miop._xi_cols(D), -1, off)
    else:
        _perturb_last_d1_row(monkeypatch, off)
    with pytest.raises(PrefactorResidue, match=f"{gate} held-out residual"):
        Builder(lam).xi(D)


def test_exact_eigen_gate_fires(monkeypatch):
    """On the exact backend the lead coefficient of one P_{D,n} off by a relative 10^-100
    fails the deformed eigenrelation: its stencil residual is no longer an exact zero."""
    monkeypatch.setattr(miop, "_BUILDERS", {})
    D = IndexSet.make([(1, "I")])
    lam = params_from_values("w", EXACT_PARAMS["w"][0], mode="physical", backend="exact")
    assert build_miop(lam, D, 2).gates["eigen_residual"] == 0
    b = get_builder(lam)
    coeffs = list(b.P(D, 1).coeffs)
    coeffs[-1] = coeffs[-1] * (1 + Fraction(1, 10 ** 100))
    b._p_cache[D.key(), 1] = Poly(coeffs, lam.scalars)
    with pytest.raises(PrefactorResidue, match="deformed eigenrelation"):
        build_miop(lam, D, 2)


def test_exact_pole_test_decides_on_the_trivial_magnitude():
    """On the exact backend a nonzero Xi_D has magnitude 1: with either pole bound 2, above
    it, the sample point is a pole, and at the drawn bounds (2^(-bits/2) times the
    height 1) it is not."""
    lam = params_from_values("w", EXACT_PARAMS["w"][0], mode="physical", backend="exact")
    bun = build_miop(lam, IndexSet.make([(1, "I"), (1, "II")]), 1, check=False)
    u = lam.scalars.sample_args(lam.fam, 3, lam, "pole")[1]
    assert all(0 < m < 1 for m in bun.pole_bounds)
    fr = htilde_frame(bun, u)
    assert not (lam.scalars.is_zero(fr.xi_mh) or lam.scalars.is_zero(fr.xi_ph))
    for k in range(2):
        bounds = list(bun.pole_bounds)
        bounds[k] = mp.mpf(2)
        with pytest.raises(PoleAtSample):
            htilde_frame(replace(bun, pole_bounds=tuple(bounds)), u)


def test_eigen_gate_builds_one_frame_set(monkeypatch):
    """The eigen gate builds GATE_SAMPLES pole-free frames for all n, not one set per n."""
    made = []
    frame = miop.htilde_frame

    def counting(bundle, u):
        try:
            fr = frame(bundle, u)
        except PoleAtSample:
            made.append(False)
            raise
        made.append(True)
        return fr

    monkeypatch.setattr(miop, "htilde_frame", counting)
    with workbits(288):
        lam = draw_params("ch", "generic", seed=3)
        bun = build_miop(lam, IndexSet.make([(1, "I"), (1, "II")]), n_max=3)
    assert made.count(True) == miop.GATE_SAMPLES and len(made) <= miop.GATE_SAMPLES + 6
    assert bun.gates["eigen_residual"] <= mp.mpf(2) ** -128


def test_builder_owns_its_trimming_precision():
    """A 512-bit builder makes Xi_D and P_{D,n} at its own 544 working bits, whatever the
    caller's precision, and its shift builder has its bits; its scalars are the draw's,
    which carry no precision, on either backend."""
    lam = draw_params("aw", "generic", 1)
    with workbits(64):
        b = get_builder(lam, 512)
        assert b.sc is lam.scalars and b.bits == b.shift_builder().bits == 512
        D = IndexSet.make([(1, "I")])
        for p in (b.xi(D), b.P(D, 1)):
            assert max(part[3] for c in p.coeffs for part in mpc_parts(c)) > 512
    exact = params_from_values("w", EXACT_PARAMS["w"][0], mode="physical", backend="exact")
    assert get_builder(exact, 512).sc is exact.scalars


def test_benchmark_tracer_records_builder_spans():
    """perfbench/tracing.py wraps Builder.det_values, .xi and .P and puts them back.
    build_miop makes every value from the rows its nodes keep, so det_values, the entry
    for values at arbitrary arguments, is called here directly."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = {k: Builder.__dict__[k] for k in ("det_values", "xi", "P")}
    build = miop.build_miop
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with workbits(256):
            lam = draw_params("w", "generic", seed=4243)
            D = IndexSet.make([(1, "I"), (1, "II")])
            miop.build_miop(lam, D, 1)
            us = lam.scalars.sample_args(lam.fam, 2, lam, "tracer")
            miop.get_builder(lam).det_values(miop._p_cols(D, 1), us)
    finally:
        tracer.restore()
    summary = tracer.summary()
    spans = summary["spans"]
    assert spans["miop.build_miop"]["calls"] == 1
    assert spans["miop.Builder.P"]["calls"] == 2
    assert spans["miop.det_values"]["calls"] == 1
    assert summary["counts"]["miop.det_values.points"] == 2
    assert {k: Builder.__dict__[k] for k in originals} == originals
    assert miop.build_miop is build


def _perturbed(p: Poly) -> Poly:
    """p with its largest coefficient moved by 2^-100 relative."""
    cs = list(p.coeffs)
    k = max(range(len(cs)), key=lambda j: abs(cs[j]))
    cs[k] = cs[k] * (1 + mp.mpf(2) ** -100)
    return Poly(cs, p.scalars)


@pytest.mark.parametrize("tag", TAGS)
def test_eigen_gate_fires_on_a_perturbed_coefficient(tag, monkeypatch):
    """A P_{D,1} with one coefficient moved by 2^-100 relative fails the deformed
    eigenrelation gate of build_miop (2^-128 at 256 bits)."""
    P = Builder.P

    def perturbed_p1(self, D, n):
        p = P(self, D, n)
        return _perturbed(p) if n == 1 else p

    monkeypatch.setattr(Builder, "P", perturbed_p1)
    with workbits(288):
        lam = draw_params(tag, "generic", seed=1)
        with pytest.raises(PrefactorResidue, match="deformed eigenrelation"):
            build_miop(lam, IndexSet.make([(1, "I")]), n_max=2)


def test_frame_kernels_follow_the_working_precision():
    """A builder makes its ladder frames at its own working precision, whatever the
    caller's: frames asked for at 53, 288 and 544 bits equal one another and a fresh
    builder's.  A bundle makes its H~_D kernel, shift steps included, once per working
    precision: after a frame at 288 bits, the frame at 544 bits (a 512-bit escalation's
    working precision) equals that of a fresh bundle.  The etas, through AW's steps
    q^(-t), are good to 2^-530 there: the H~_D frame's at x + i gamma/2 and the ladder
    frame's at x + i t gamma, t = 1, 0, -1."""
    lam = draw_params("aw", "generic", 1)
    D = IndexSet.make([(1, "I")])
    with workbits(544):
        bun = build_miop(lam, D, 1, bits=512, check=False)
    u = lam.fam.sample_args(3, lam, "prec")[1]
    used, frames = Builder(lam, 512), []
    for bits in (53, 288, 544):
        with workbits(bits):
            frames.append(used.frames([u], 3, {"I", "P"}))
    assert frames[0] == frames[1] == frames[2] == Builder(lam, 512).frames([u], 3, {"I", "P"})
    with workbits(288):
        htilde_frame(bun, u)
    with workbits(544):
        assert htilde_frame(bun, u) == htilde_frame(replace(bun), u)
        (etas, _), = used.frames([u], 3, {"I"})
        got = [htilde_frame(bun, u).eta_ph] + [gstore(x, 544) for x in etas]
    with workbits(1100):
        want = [lam.fam.eta_at(u * mp.power(lam.q, t), lam) for t in (mp.mpf(-1) / 2, -1, 0, 1)]
    for g, e in zip(got, want):
        assert abs(g - e) <= mp.mpf(2) ** -530 * max(1, abs(e))


def test_pole_tests_decide_on_each_side_of_the_bounds():
    """htilde_frame raises PoleAtSample exactly when |Xi_D| at a half shift is below
    pole_bounds[0], or |Xi_D(lambda + delta)| at x below pole_bounds[1]: with either bound
    a relative 2^-200 above that magnitude at a sample point the point is a pole, and
    2^-200 below it the frame is the one the drawn bounds give."""
    with workbits(288):
        lam = draw_params("w", "generic", seed=1)
        bun = build_miop(lam, IndexSet.make([(1, "I"), (1, "II")]), 1, check=False)
        u = lam.fam.sample_args(3, lam, "pole")[1]
        fr = htilde_frame(bun, u)
        mags = (min(abs(fr.xi_mh), abs(fr.xi_ph)), abs(bun.xi_shift(fr.eta)))
        for k, m in enumerate(mags):
            assert m > bun.pole_bounds[k]
            for factor in (1 + mp.mpf(2) ** -200, 1 - mp.mpf(2) ** -200):
                bounds = list(bun.pole_bounds)
                bounds[k] = m * factor
                moved = replace(bun, pole_bounds=tuple(bounds))
                if factor > 1:
                    with pytest.raises(PoleAtSample):
                        htilde_frame(moved, u)
                else:
                    assert htilde_frame(moved, u) == fr


def test_node_sets_keep_their_interpolator(monkeypatch):
    """A node set keeps its interpolator and its vanishing verdict: over P_{D,0..3} of
    {2^I}, which take fit node sets of K = 4, 4, 8 and 8, the backend's interpolator and
    _vanishing run once per (class, rotation, node count), and every P_{D,n} equals, bit
    for bit, that of a builder that forgets its node sets before each extraction."""
    lam = draw_params("w", "generic", seed=4)
    sc, calls = lam.scalars, {"interpolator": 0, "vanishing": 0}
    interpolator, vanishing = sc.interpolator, miop._vanishing

    def count(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(sc, "interpolator", count("interpolator", interpolator))
    monkeypatch.setattr(miop, "_vanishing", count("vanishing", vanishing))
    D = IndexSet.make([(2, "I")])
    b, forgetful = Builder(lam), Builder(lam)
    got = [b.P(D, n).coeffs for n in range(4)]
    assert calls == {"interpolator": len(b._node_sets), "vanishing": len(b._node_sets)}
    assert sorted(key[2] for key in b._node_sets) == [4 + HELD_OUT, 8 + HELD_OUT]
    want = []
    for n in range(4):
        forgetful._node_sets.clear()
        want.append(forgetful.P(D, n).coeffs)
    assert got == want
