"""Family data gates: eigenrelations, virtual states, energies, norms."""

from fractions import Fraction

import mpmath as mp
import pytest

from base_sums import base_sum
from casoratia.families import (FAMILIES, ParamSet, draw_params, params_from_values,
                                validate_physical)
from casoratia.numkernel import pochhammer, workbits

TAGS = ["ch", "w", "aw"]


class CalibrationFailure(RuntimeError):
    """No candidate twist / shift passed its gate."""


def calibrate_twist(lam: ParamSet, vtype: str, samples: int = 6):
    """Fit (alpha, Etilde_0) for the family's parameter twist and gate them.

    Identity (A): alpha^2 V'*(x) V'(x+i gamma) = V*(x) V(x+i gamma)
    Identity (B): V + V* = alpha (V' + V'*) - Etilde_0
    Gate: Etilde_v = alpha E_v(t(lam)) + Etilde_0 matches the closed forms for
    v <= 6.  Returns (alpha, Etilde_0, max_rel_err).
    """
    fam = lam.fam
    ta = fam.twist_a(vtype, lam)
    tlam = lam.with_a(ta)
    us = fam.sample_args(samples + 2, lam, f"twist|{vtype}")
    alpha2 = None
    for u in us:
        up = fam.shift_arg(u, 1, lam)
        lhs = fam.v_star_at(lam.a, u, lam) * fam.v_at(lam.a, up, lam)
        rhs = fam.v_star_at(ta, u, lam) * fam.v_at(ta, up, lam)
        val = lhs / rhs
        if alpha2 is None:
            alpha2 = val
        elif abs(val - alpha2) > mp.mpf(2) ** (-mp.mp.prec // 2) * (1 + abs(alpha2)):
            raise CalibrationFailure(f"{lam.family} type {vtype}: alpha^2 not constant")
    alpha = mp.sqrt(alpha2)
    best = None
    for cand in (alpha, -alpha):
        e0s = []
        ok = True
        for u in us:
            vv = fam.v_at(lam.a, u, lam) + fam.v_star_at(lam.a, u, lam)
            vvt = fam.v_at(ta, u, lam) + fam.v_star_at(ta, u, lam)
            e0s.append(cand * vvt - vv)
        for e in e0s[1:]:
            if abs(e - e0s[0]) > mp.mpf(2) ** (-mp.mp.prec // 2) * (1 + abs(e0s[0])):
                ok = False
                break
        if ok:
            best = (cand, e0s[0])
            break
    if best is None:
        raise CalibrationFailure(f"{lam.family} type {vtype}: no consistent alpha sign")
    alpha, e0 = best
    worst = mp.mpf(0)
    for v in range(7):
        pred = alpha * mp.mpc(fam.energy(v, tlam)) + e0
        ref = mp.mpc(fam.etilde(vtype, v, lam))
        worst = max(worst, abs(pred - ref) / max(1, abs(ref)))
    if worst > mp.mpf(2) ** (-mp.mp.prec // 2):
        raise CalibrationFailure(
            f"{lam.family} type {vtype}: fitted virtual energies disagree ({mp.nstr(worst, 5)})")
    closed = mp.mpc(fam.alpha(vtype, lam))
    if abs(alpha - closed) > mp.mpf(2) ** (-mp.mp.prec // 2) * (1 + abs(closed)):
        raise CalibrationFailure(f"{lam.family} type {vtype}: alpha differs from closed form")
    return alpha, e0, worst


def _eigen_residual(fam, lam, p, E, u):
    um = fam.shift_arg(u, -1, lam)
    up = fam.shift_arg(u, 1, lam)
    pu = p(fam.eta_at(u, lam))
    t1 = fam.v_at(lam.a, u, lam) * (p(fam.eta_at(um, lam)) - pu)
    t2 = fam.v_star_at(lam.a, u, lam) * (p(fam.eta_at(up, lam)) - pu)
    r = t1 + t2 - E * pu
    return abs(r) / (abs(t1) + abs(t2) + abs(E * pu) + 1)


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("mode", ["physical", "generic"])
def test_base_eigenrelation_gate(tag, mode):
    with workbits(256):
        fam = FAMILIES[tag]
        lam = draw_params(tag, mode, seed=17)
        tol = mp.mpf(2) ** -128
        for n, p in enumerate(fam.base_poly(8, lam, lam.scalars).polys):
            E = fam.energy(n, lam)
            for u in fam.sample_args(20, lam, f"t{n}"):
                assert _eigen_residual(fam, lam, p, E, u) <= tol
            assert p.degree == n


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("vtype", ["I", "II"])
def test_virtual_gate(tag, vtype):
    with workbits(256):
        fam = FAMILIES[tag]
        lam = draw_params(tag, "physical", seed=23)
        ta = fam.twist_a(vtype, lam)
        tlam = lam.with_a(ta)
        tol = mp.mpf(2) ** -128
        for v, xi in enumerate(fam.base_poly(6, tlam, lam.scalars).polys):
            assert xi.degree == v
            Ev = fam.energy(v, tlam)
            for u in fam.sample_args(8, lam, f"v{v}"):
                assert _eigen_residual(fam, tlam, xi, Ev, u) <= tol
            # physical-mode negativity holds within the draw's degree margin
            if v <= 3:
                ev = mp.mpc(fam.etilde(vtype, v, lam))
                assert mp.re(ev) < 0 and abs(mp.im(ev)) < 1e-20


@pytest.mark.parametrize("tag", TAGS)
def test_twist_calibration(tag):
    with workbits(256):
        lam = draw_params(tag, "generic", seed=5)
        for vtype in ("I", "II"):
            alpha, e0, worst = calibrate_twist(lam, vtype)
            assert worst <= mp.mpf(2) ** -100


EXACT_PARAMS = {
    "ch": ([("5/2", "1/3"), ("11/4", "1/5"), ("9/4", "-1/2"), ("13/5", "2/7")], None),
    "w": ([("5/2", "0"), ("11/4", "1/6"), ("9/4", "1/2"), ("7/3", "-1/4")], None),
    "aw": ([("1/2", "1/7"), ("3/5", "0"), ("2/3", "-1/4"), ("5/7", "1/9")], "1/3"),
}


@pytest.mark.parametrize("tag", TAGS)
def test_type_pairing_exact(tag):
    """Type II is type I on swap_types(a), exactly, for the virtual energies and alpha;
    swap_types is an involution; delta-tilde is the paper's table.  The independent
    oracles of the pairing itself are calibrate_twist and test_miop's
    test_delta_tilde_table_rederived."""
    a_vals, q = EXACT_PARAMS[tag]
    lam = params_from_values(tag, a_vals, q, mode="generic", backend="exact")
    fam = lam.fam
    swapped = lam.with_a(fam.swap_types(lam.a))
    assert any(not (x - y).is_zero() for x, y in zip(swapped.a, lam.a))
    assert all((x - y).is_zero() for x, y in zip(fam.swap_types(swapped.a), lam.a))
    for v in range(4):
        assert (fam.etilde("II", v, lam) - fam.etilde("I", v, swapped)).is_zero()
        assert (fam.etilde("I", v, lam) - fam.etilde("II", v, swapped)).is_zero()
    assert (fam.alpha("II", lam) - fam.alpha("I", swapped)).is_zero()
    h = Fraction(1, 2)
    table = {"ch": {"I": (-h, h, -h, h), "II": (h, -h, h, -h)},
             "w": {"I": (-h, -h, h, h), "II": (h, h, -h, -h)},
             "aw": {"I": (-h, -h, h, h), "II": (h, h, -h, -h)}}
    assert {t: fam.dtilde(t) for t in ("I", "II")} == table[tag]


def test_energy_examples():
    with workbits(192):
        for tag in TAGS:
            fam = FAMILIES[tag]
            lam = draw_params(tag, "physical", seed=2)
            assert abs(mp.mpc(fam.energy(0, lam))) == 0
            if tag in ("ch", "w"):
                assert abs(mp.mpc(fam.energy(1, lam)) - mp.mpc(lam.b1())) < mp.mpf(2) ** -150
            else:
                q = mp.mpc(lam.q)
                want = (1 / q - 1) * (1 - mp.mpc(lam.b4()))
                assert abs(mp.mpc(fam.energy(1, lam)) - want) < mp.mpf(2) ** -150


def test_ch_p1_closed_form():
    with workbits(192):
        lam = draw_params("ch", "physical", seed=9)
        a1, a2, a3, a4 = (mp.mpc(x) for x in lam.a)
        b1 = a1 + a2 + a3 + a4
        p1 = FAMILIES["ch"].base_poly(1, lam, lam.scalars).polys[1]
        for eta in (mp.mpc("0.3", "0.2"), mp.mpc(-1), mp.mpc(2, -1)):
            want = 1j * ((a1 + a3) * (a1 + a4) - b1 * (a1 + 1j * eta))
            assert abs(p1(eta) - want) < mp.mpf(2) ** -140


def test_virtual_energy_factorizations():
    with workbits(192):
        lam = draw_params("w", "physical", seed=4)
        fam = FAMILIES["w"]
        a1, a2, a3, a4 = (mp.mpc(x) for x in lam.a)
        for n in range(4):
            for v in range(4):
                lhs = mp.mpc(fam.energy(n, lam)) - mp.mpc(fam.etilde("I", v, lam))
                rhs = (n + a1 + a2 - v - 1) * (n + a3 + a4 + v)
                assert abs(lhs - rhs) < mp.mpf(2) ** -140
        lam = draw_params("aw", "physical", seed=4)
        fam = FAMILIES["aw"]
        a1, a2, a3, a4 = (mp.mpc(x) for x in lam.a)
        q = mp.mpc(lam.q)
        for n in range(4):
            for v in range(4):
                lhs = q ** n * (mp.mpc(fam.energy(n, lam)) - mp.mpc(fam.etilde("I", v, lam)))
                rhs = (1 - a1 * a2 * q ** (n - v - 1)) * (1 - a3 * a4 * q ** (n + v))
                assert abs(lhs - rhs) / abs(rhs) < mp.mpf(2) ** -140


def test_w_documented_virtual_energy():
    with workbits(128):
        lam = params_from_values("w", [("1.5", 0), ("1.5", 0), ("0.5", 0), ("0.5", 0)])
        got = mp.mpc(FAMILIES["w"].etilde("I", 0, lam))
        assert abs(got - (-2)) < 1e-30


@pytest.mark.parametrize("tag", TAGS)
def test_h_ratio_against_recurrence(tag):
    """h_{n+1}/h_n = C_{n+1} / A_n on the triple of the base polynomials' own run: a
    transcription-free cross-check of the closed-form norms.  The run itself is checked
    against the hypergeometric sums (test_base_poly_matches_the_sums_*)."""
    with workbits(256):
        lam = draw_params(tag, "physical", seed=8)
        fam = FAMILIES[tag]
        run = fam.base_poly(6, lam, lam.scalars)
        for n in range(5):
            want = mp.mpc(run.triples[n + 1][2]) / mp.mpc(run.triples[n][0])
            got = mp.mpc(fam.h_ratio_base(n + 1, n, lam))
            assert abs(got - want) / abs(want) < mp.mpf(2) ** -120


# the exact workload's parameter shapes: a3 = conj a1, a4 = conj a2 (cH); a1, a2 real,
# a4 = conj a3 (W, AW)
SUM_PARAMS = {
    "ch": ([("5/2", "1/2"), ("9/4", "1/3"), ("5/2", "-1/2"), ("9/4", "-1/3")], None),
    "w": ([("5/2", "0"), ("11/4", "0"), ("9/4", "1/2"), ("9/4", "-1/2")], None),
    "aw": ([("1/10", "0"), ("2/15", "0"), ("1/8", "1/16"), ("1/8", "-1/16")], "2/5"),
}


def _at_kind(lam, kind):
    """lam itself for 'P', else lam at the type's twisted (virtual-state) parameters."""
    return lam if kind == "P" else lam.with_a(lam.fam.twist_a(kind, lam))


@pytest.mark.parametrize("tag", TAGS)
def test_base_poly_matches_the_sums_exactly(tag):
    """On exact parameters the recurrence and the hypergeometric sum give the same
    polynomial, n <= 6, at plain and at both twisted parameters.  The sum divides by
    (a1 + a3)_n, which vanishes on the cH type-I twist of SUM_PARAMS (a1 + a3 = -3)
    from n = 4 on: there it raises as it always did, and the recurrence's polynomial
    still has degree n and solves the eigenrelation exactly."""
    raised = []
    for a_vals, q in (SUM_PARAMS[tag], EXACT_PARAMS[tag]):
        lam = params_from_values(tag, a_vals, q, mode="generic", backend="exact")
        fam = lam.fam
        for kind in ("P", "I", "II"):
            klam = _at_kind(lam, kind)
            for n, p in enumerate(fam.base_poly(6, klam, lam.scalars).polys):
                try:
                    ref = base_sum(n, klam)
                except ZeroDivisionError:
                    assert pochhammer(klam.a[0] + klam.a[2], n).is_zero()
                    raised.append((kind, n))
                    assert p.degree == n
                    E = fam.energy(n, klam)
                    for u in fam.exact_sample_args(4, lam):
                        um, up = fam.shift_arg(u, -1, lam), fam.shift_arg(u, 1, lam)
                        pu = p(fam.eta_at(u, lam))
                        r = (fam.v_at(klam.a, u, lam) * (p(fam.eta_at(um, lam)) - pu)
                             + fam.v_star_at(klam.a, u, lam) * (p(fam.eta_at(up, lam)) - pu)
                             - E * pu)
                        assert r.is_zero()
                    continue
                assert p.coeffs == ref.coeffs, (kind, n)
    assert raised == ([("I", 4), ("I", 5), ("I", 6)] if tag == "ch" else [])


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("mode", ["physical", "generic"])
def test_base_poly_matches_the_sums_in_float(tag, mode):
    """At 256 bits (288 working) every coefficient of p_n, n <= 30, plain and twisted, is
    within 2^-(256-16) x height of the sum at 2048 bits.  The AW sum itself misses this
    from n = 12 on (its 4phi3 terms cancel), so the reference runs at 2048 bits."""
    bits = 256
    lam = draw_params(tag, mode, 1)
    fam = lam.fam
    for kind in ("P", "I", "II"):
        with workbits(bits + 32):
            run = fam.base_poly(30, _at_kind(lam, kind), lam.scalars)
        with workbits(2048):
            klam = _at_kind(lam, kind)
            for n in range(31):
                ref = base_sum(n, klam)
                err = max(abs(x - y) for x, y in zip(run.polys[n].coeffs, ref.coeffs))
                assert len(run.polys[n].coeffs) == len(ref.coeffs) == n + 1
                assert err <= mp.mpf(2) ** (16 - bits) * ref.height, (kind, n)


def test_validate_physical():
    lam = draw_params("ch", "physical", seed=1)
    assert validate_physical(lam, 256)
    lam = draw_params("w", "physical", seed=1)
    assert validate_physical(lam, 256)
    lam_bad = lam.with_a((lam.a[0] + 1j, lam.a[1], lam.a[2], lam.a[3]))
    assert not validate_physical(lam_bad, 256)


def test_validate_physical_reads_params_at_their_precision():
    """A parameter file whose a4 misses conj(a3) by 1e-20 is not physical: the check
    compares the parameters at their own precision, not rounded to 53 bits."""
    a = [("12/5", "0"), ("2.7", "0"), ("2.3", "0.6"), ("2.3", "-0.6")]
    assert validate_physical(params_from_values("w", a), 256)
    a[3] = ("2.3", "-0.60000000000000000001")
    assert not validate_physical(params_from_values("w", a), 256)


def test_params_file_roundtrip(tmp_path):
    lam = params_from_values("aw", [("0.85", "0"), ("0.8", "0"), ("0.6", "0.2"), ("0.6", "-0.2")],
                             q_val="0.4", mode="physical")
    assert validate_physical(lam, 256)
    assert lam.digest() == params_from_values(
        "aw", [("0.85", "0"), ("0.8", "0"), ("0.6", "0.2"), ("0.6", "-0.2")],
        q_val="0.4", mode="physical").digest()


def test_digest_separates_draws_that_differ_past_digit_60():
    """Two 256-bit draws equal to 60 digits get different digests, so the _BUILDERS
    keys, which start with the digest, differ too."""
    from casoratia.miop import get_builder

    with workbits(288):
        lam = draw_params("w", "generic", seed=5)
        a = list(lam.a)
        a[1] = a[1] * (1 + mp.mpf(10) ** -65)
        near = lam.with_a(a)
        assert mp.nstr(mp.mpc(a[1]), 60) == mp.nstr(mp.mpc(lam.a[1]), 60)
        assert near.digest() != lam.digest()
        assert get_builder(near) is not get_builder(lam)
        assert lam.with_a(lam.a).digest() == lam.digest()


@pytest.mark.parametrize("tag", TAGS)
def test_affine_factors_are_the_textbook_formulas(tag):
    """eta, V, V* and the shifted argument from the families' affine factors equal their mpc
    formulas: cH eta = x, V = (a1 + i x)(a2 + i x), V* = (a3 - i x)(a4 - i x); W eta = x^2,
    V = prod (a_k + i x) / (2 i x (2 i x + 1)), V*(x) = V(-x); AW eta = (z + 1/z) / 2,
    V = prod (1 - a_k z) / ((1 - z^2)(1 - q z^2)), V*(z) = V(1/z); x + i t and z q^-t."""
    fam = FAMILIES[tag]

    def v_formula(a, u, q):
        if tag == "ch":
            return (a[0] + 1j * u) * (a[1] + 1j * u)
        if tag == "w":
            return mp.fprod(ai + 1j * u for ai in a) / (2j * u * (2j * u + 1))
        return mp.fprod(1 - ai * u for ai in a) / ((1 - u * u) * (1 - q * u * u))

    def v_star_formula(a, u, q):
        if tag == "ch":
            return (a[2] - 1j * u) * (a[3] - 1j * u)
        return v_formula(a, -u if tag == "w" else 1 / u, q)

    with workbits(288):
        for mode in ("physical", "generic"):
            lam = draw_params(tag, mode, seed=4)
            twisted = fam.twist_a("I", lam)
            for u in fam.sample_args(3, lam, "factors") + [mp.mpc("0.3", "-1.7")]:
                eta = {"ch": u, "w": u * u, "aw": (u + 1 / u) / 2}[tag]
                checks = [(fam.eta_at(u, lam), eta)]
                for a in (lam.a, twisted):
                    checks += [(fam.v_at(a, u, lam), v_formula(a, u, lam.q)),
                               (fam.v_star_at(a, u, lam), v_star_formula(a, u, lam.q))]
                for t in (-1, Fraction(1, 2), Fraction(3, 2)):
                    shifted = u + 1j * t if tag != "aw" else u * mp.power(lam.q, -t)
                    checks.append((fam.shift_arg(u, t, lam), shifted))
                for got, want in checks:
                    assert abs(got - want) <= mp.mpf(2) ** -270 * (1 + abs(want))
