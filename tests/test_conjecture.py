"""Conjectured normalization constants against measured Gram diagonals."""

from itertools import chain

import mpmath as mp
import pytest

from casoratia.conjecture import FormulaSingular, compare, predicted_k, zeta_constant
from casoratia.dortho import PaEntry, derived_index_sets, verify_orthogonality
from casoratia.exact import QQi
from casoratia.families import FAMILIES, draw_params, params_from_values
from casoratia.identities import mixed_constant
from casoratia.miop import IndexSet, h_ratio, reference_index_set
from casoratia.numkernel import workbits
from chain_oracle import measured_mixed_constant

TAGS = ["ch", "w", "aw"]
TOL = mp.mpf("1e-20")


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("mode", ["physical", "generic"])
def test_conjecture_small_instances(tag, mode):
    with workbits(288):
        lam = draw_params(tag, mode, seed=13)
        for pairs, N in ([[(2, "I")], 3], [[(1, "II")], 2], [[(1, "I"), (1, "II")], 2]):
            D = IndexSet.make(pairs)
            if tag == "ch" and mode == "physical" and D.ell % 2 == 1:
                continue
            rep = verify_orthogonality(lam, D, N)
            res = compare(lam, D, N, rep)
            assert res.max_rel_err <= TOL, f"{tag}/{mode} D={D}"
            if mode == "generic":
                assert any(abs(mp.im(e.predicted)) > mp.mpf("1e-18") * abs(e.predicted)
                           for e in res.entries), "generic k should be genuinely complex"


def test_case0_formula_spotcheck():
    """k for P_{D,n} equals (h_{D,n}/h_{D,N}) / (2(b1+2N-1)) for cH/W."""
    with workbits(288):
        lam = draw_params("w", "physical", seed=13)
        D = IndexSet.make([(2, "I")])
        N = 3
        rep = verify_orthogonality(lam, D, N)
        basis = rep.extras["basis"]
        b1 = mp.mpc(lam.b1())
        for a, entry in enumerate(basis.entries):
            if entry.case != 0:
                continue
            want = mp.mpc(h_ratio(lam, D, entry.n, N)) / (2 * (b1 + 2 * N - 1))
            got = predicted_k(lam, D, N, entry)
            assert abs(got - want) <= mp.mpf(2) ** -180 * abs(want)
            assert abs(rep.k[a] - want) <= TOL * abs(want)


def test_case3_zeta_stability_across_instances():
    """The closed-form count-pair constant reconciles other D and N in the class."""
    with workbits(288):
        lam = draw_params("aw", "physical", seed=13)
        z1 = zeta_constant(lam, (1, 1))
        for pairs, N in ([[(2, "I"), (1, "II")], 2], [[(1, "I"), (2, "II")], 3]):
            D = IndexSet.make(pairs)
            rep = verify_orthogonality(lam, D, N)
            res = compare(lam, D, N, rep)
            assert res.zeta == z1
            case3 = [e for e in res.entries if e.case == 3]
            assert case3
            for e in case3:
                assert e.rel_err <= TOL


def test_predicted_invariant_under_input_order():
    with workbits(256):
        lam = draw_params("w", "physical", seed=13)
        D1 = IndexSet.make([(2, "I"), (1, "II")])
        D2 = IndexSet.make([(1, "II"), (2, "I")])
        rep = verify_orthogonality(lam, D1, 2)
        basis = rep.extras["basis"]
        entry = basis.entries[0]
        k1 = predicted_k(lam, D1, 2, entry)
        k2 = predicted_k(lam, D2, 2, entry)
        assert k1 == k2


def fitted_zeta(lam, counts):
    """zeta fitted from the measured k_a of the first case-(3) entry on the reference
    instance of the class, with C measured on the chain identity: the calibration the
    closed forms replaced, kept as their oracle."""
    D = reference_index_set(counts)
    rep = verify_orthogonality(lam, D, 2)
    m1, m2 = counts[0] - 1, counts[1] - 1
    C = measured_mixed_constant(lam, reference_index_set((m1, m2)), (m1, "I"), (m2, "II"), 0)
    for a, entry in enumerate(rep.extras["basis"].entries):
        if entry.case == 3:
            # predicted_k with zeta = 1 and the chain-identity C in place of the closed form
            raw = predicted_k(lam, D, 2, entry) / zeta_constant(lam, counts)
            raw *= (C / mixed_constant(lam, (m1, m2))) ** 2
            return rep.k[a] / raw
    raise AssertionError("reference instance has no case-(3) entry")


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("mode", ["physical", "generic"])
def test_zeta_closed_form_matches_the_fit(tag, mode):
    """The closed-form zeta equals zeta fitted from k_a, on every mixed count pair the
    CLI accepts (M <= 3), on a draw the forms were not derived from."""
    with workbits(288):
        lam = draw_params(tag, mode, seed=6)
        for counts in ((1, 1), (2, 1), (1, 2)):
            z = mp.mpc(zeta_constant(lam, counts))
            fit = fitted_zeta(lam, counts)
            assert abs(fit - z) <= TOL * abs(z), (counts, mp.nstr(abs(fit - z) / abs(z), 3))


def test_compare_runs_no_second_pass(monkeypatch):
    """compare predicts case (3) from closed forms alone: no orthogonality pass and no
    chain identity beyond the report it is given.  Pairs outside the table are
    singular, never fitted."""
    from casoratia import dortho, identities

    with workbits(288):
        lam = draw_params("w", "generic", seed=13)
        D = IndexSet.make([(1, "I"), (1, "II")])
        rep = verify_orthogonality(lam, D, 2)

        def no_pass(*_, **__):
            raise AssertionError("compare must not run a second pass")

        monkeypatch.setattr(dortho, "verify_orthogonality", no_pass)
        monkeypatch.setattr(identities, "check_chain_identity", no_pass)
        res = compare(lam, D, 2, rep)
        assert res.max_rel_err <= TOL and res.zeta is not None and res.mixed_C is not None
        assert any(e.case == 3 for e in res.entries)
        with pytest.raises(FormulaSingular):
            zeta_constant(lam, (2, 2))


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("mode", ["physical", "generic"])
def test_mixed_m3_index_sets_pass(tag, mode, tmp_path):
    """M = 3 mixed sets of both count classes, (2,1) and (1,2), pass every check at 256
    bits, case (3) included: the per-member factors of a derived set D'_{3,jk} take
    each member's position in D'_{3,jk}."""
    import json

    from casoratia import cli
    out = tmp_path / "rep.json"
    for dI, dII in (("1,2", "0"), ("0", "1,2")):   # ell_D = 4, even for cH physical
        argv = ["verify", "--family", tag, "--mode", mode, "--dI", dI, "--dII", dII,
                "--N", "2", "--out", str(out)]
        assert cli.main(argv) == 0, argv
        doc = json.loads(out.read_text())
        assert [a["precision_bits"] for a in doc["attempts"]] == [256]
        assert doc["manifest"]["checks"]["conjecture"]
        assert any(e["case"] == 3 for e in doc["conjecture"]["entries"])


RATIONAL_PARAMS = {
    "ch": ([("5/2", "1/2"), ("9/4", "1/3"), ("5/2", "-1/2"), ("9/4", "-1/3")], None),
    "w": ([("5/2", "0"), ("11/4", "0"), ("9/4", "1/2"), ("9/4", "-1/2")], None),
    "aw": ([("1/10", "0"), ("2/15", "0"), ("1/8", "1/16"), ("1/8", "-1/16")], "2/5"),
}


def pa_entries(D, N):
    """The Pa-basis entries of D at N as predicted_k reads them (case, n, derived set),
    without their polynomials."""
    out = [PaEntry(f"case0(n={n})", 0, None, None, n=n) for n in range(N)]
    return out + [PaEntry("", ds.case, None, None, derived=ds)
                  for ds in chain(*derived_index_sets(D))]


@pytest.mark.parametrize("tag", TAGS)
def test_exact_predictions_are_the_oracle_of_the_float_ones(tag):
    """On rational parameters predicted_k is exact (Gaussian rationals, with sqrt(q)
    for AW), and the float prediction on the same rationals agrees with it to
    2^-(bits-16): every case (0)-(3) entry of five index sets at N = 2."""
    bits = 256
    a_vals, q_val = RATIONAL_PARAMS[tag]
    exact = params_from_values(tag, a_vals, q_val, backend="exact")
    flt = params_from_values(tag, a_vals, q_val, bits=bits)
    with workbits(bits + 32):
        for pairs in ([(1, "I"), (1, "II")], [(2, "I"), (1, "II")], [(1, "I"), (2, "II")],
                      [(2, "I")], [(0, "I"), (2, "II")]):
            D = IndexSet.make(pairs)
            for entry in pa_entries(D, 2):
                want = predicted_k(exact, D, 2, entry)
                assert isinstance(want, QQi) and want.q == exact.scalars.q, (D, entry.case)
                want = want.to_mpc()
                got = predicted_k(flt, D, 2, entry)
                assert abs(got - want) <= mp.mpf(2) ** (16 - bits) * abs(want), (D, entry.case)
