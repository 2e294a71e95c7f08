"""Supporting identities: coordinate lemma, chain relations, prefactor ratios, classical."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from casoratia.exact import ExactScalars, QQi
from casoratia.families import draw_params, params_from_values
from casoratia.identities import (check_prefactor_ratio_identity, check_eta_identity,
                                  check_chain_identity, classical_discrete_ortho,
                                  eta_identity_residual, mixed_constant,
                                  chain_identity_exact)
from casoratia.miop import IndexSet
from casoratia.numkernel import workbits

TAGS = ["ch", "w", "aw"]


def test_eta_identity_exact_linear_and_square():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (QQi(Fraction(rng.randrange(-20, 20), rng.randrange(1, 9)),
                       Fraction(rng.randrange(-20, 20), rng.randrange(1, 9)))
                   for _ in range(3))
        assert check_eta_identity("ch", a, b, c).is_zero()
        assert check_eta_identity("w", a, b, c).is_zero()


def test_eta_identity_cos():
    with workbits(256):
        rng = random.Random(11)
        worst = mp.mpf(0)
        for _ in range(100):
            a, b, c = (mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
            worst = max(worst, eta_identity_residual("aw", a, b, c))
        assert worst <= mp.mpf(2) ** -240


@pytest.mark.parametrize("tag", TAGS)
def test_chain_identity_same_and_mixed(tag):
    with workbits(288):
        lam = draw_params(tag, "physical", seed=3)
        tol = mp.mpf(2) ** -128
        D = IndexSet.make([(1, "I")])
        r = check_chain_identity(lam, D, (0, "I"), (3, "I"), 1, samples=10)
        assert r["case"] == "same-type" and r["max_residual"] <= tol
        r = check_chain_identity(lam, D, (2, "I"), (1, "II"), 1, samples=10)
        assert r["case"] == "mixed-type" and r["max_residual"] <= tol
        # the closed-form mixed constant holds for every type-count class (m1, m2) of
        # D, whatever d', d'' and n
        for D, dp, dpp, n in ((IndexSet.make([]), (1, "I"), (0, "II"), 1),
                              (IndexSet.make([(1, "I")]), (2, "I"), (0, "II"), 2),
                              (IndexSet.make([(1, "II")]), (0, "I"), (2, "II"), 1),
                              (IndexSet.make([(1, "I"), (0, "II")]), (0, "I"), (2, "II"), 0)):
            c = mixed_constant(lam, D.counts)
            r = check_chain_identity(lam, D, dp, dpp, n, samples=8, constant=c)
            assert r["max_residual"] <= tol, (D.counts, r["max_residual"])


def test_chain_identity_invariant_under_reordering():
    with workbits(256):
        lam = draw_params("w", "physical", seed=9)
        D1 = IndexSet.make([(2, "I"), (1, "II")])
        D2 = IndexSet.make([(1, "II"), (2, "I")])
        r1 = check_chain_identity(lam, D1, (0, "I"), (3, "I"), 1, samples=6)
        r2 = check_chain_identity(lam, D2, (0, "I"), (3, "I"), 1, samples=6)
        assert r1["max_residual"] <= mp.mpf(2) ** -128
        assert abs(r1["max_residual"] - r2["max_residual"]) == 0


EXACT_PARAMS = {
    "ch": dict(a_vals=[("5/2", "1/2"), ("9/4", "1/3"), ("5/2", "-1/2"), ("9/4", "-1/3")]),
    "w": dict(a_vals=[("5/2", "0"), ("11/4", "0"), ("9/4", "1/2"), ("9/4", "-1/2")]),
    "aw": dict(a_vals=[("1/10", "0"), ("2/15", "0"), ("1/8", "1/16"), ("1/8", "-1/16")],
               q_val="2/5"),
}


def exact_params(tag):
    cfg = EXACT_PARAMS[tag]
    return params_from_values(tag, cfg["a_vals"], cfg.get("q_val"),
                              mode="physical", backend="exact")


def test_chain_identity_exact_smallest_instances():
    lam = exact_params("ch")
    r = chain_identity_exact(lam, IndexSet.make([]), (0, "I"), (1, "I"), 1)
    assert r["exact"], r
    r = chain_identity_exact(lam, IndexSet.make([]), (0, "I"), (0, "II"), 1)
    assert r["exact"], r


@pytest.mark.parametrize("tag", TAGS)
def test_prefactor_ratio_identity(tag):
    with workbits(288):
        lam = draw_params(tag, "physical", seed=3)
        D = IndexSet.make([(1, "I")])
        tol = mp.mpf(2) ** -128
        for u in lam.fam.sample_args(5, lam, "appx"):
            r = check_prefactor_ratio_identity(lam, D, (2, "I"), (1, "II"), u)
            assert r["squared_residual"] <= tol
            assert r["signed_residual"] <= tol


def test_prefactor_ratio_refuses_same_type():
    lam = draw_params("w", "physical", seed=3)
    with pytest.raises(ValueError):
        check_prefactor_ratio_identity(lam, IndexSet.make([]), (0, "I"), (1, "I"), mp.mpf(1))


@pytest.mark.parametrize("tag", TAGS)
def test_classical_discrete_orthogonality(tag):
    with workbits(288):
        lam = draw_params(tag, "physical", seed=5)
        r = classical_discrete_ortho(lam, 6)
        assert r["max_offdiag_rel"] <= mp.mpf("1e-25")
        assert r["diag_rel_err"] <= mp.mpf("1e-20")
        # the diagonal is C_N h_n / h_N, and h_n / h_N is positive in physical mode
        for h in (dval / r["C_N"] for dval in r["diag"]):
            assert mp.re(h) > 0 and abs(mp.im(h)) <= mp.mpf("1e-40") * mp.re(h)


def test_quadrature_integrand_stops_at_a_pole():
    """psi_D^2 at x with x + i gamma/2 on a zero of Xi_D raises PoleAtSample."""
    from casoratia.identities import psi_d_squared
    from casoratia.miop import PoleAtSample, build_miop
    from casoratia.zeros import find_zeros
    D = IndexSet.make([(2, "I")])
    with workbits(288):
        lam = draw_params("w", "physical", seed=11)
        bundle = build_miop(lam, D, 1, check=False)
        x0 = lam.fam.recover_x(find_zeros(bundle.xi, 256, lam.fam).eta[0])
        assert abs(psi_d_squared(lam, D, bundle, x0 - mp.mpc(0, "0.25"))) > 0
        with pytest.raises(PoleAtSample):
            psi_d_squared(lam, D, bundle, x0 - mp.mpc(0, "0.5"))


@pytest.mark.slow
def test_partial_fraction_split_wilson():
    from casoratia.identities import partial_fraction_integral_check
    with workbits(192):
        lam = draw_params("w", "physical", seed=11)
        r0 = partial_fraction_integral_check(lam, IndexSet.make([]), 3, 1, 2, bits=192)
        assert r0["rel"] <= mp.mpf("1e-8")
        r1 = partial_fraction_integral_check(lam, IndexSet.make([(3, "I")]), 3, 1, 2, bits=192)
        assert r1["rel"] >= mp.mpf("1e-3")
