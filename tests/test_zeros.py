"""Root finding: seeds vs oracles, certificates, recovery and zero structure."""

import os
import random
import subprocess
import sys
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

import casoratia
from casoratia import zeros
from casoratia.families import FAMILIES, draw_params
from casoratia.miop import IndexSet, build_miop, hermiticity_check
from casoratia.numkernel import GUARD_BITS, MPScalars, gstore, workbits
from casoratia.polycore import Poly
from casoratia.zeros import find_zeros
from zero_structure import conjugation_closure_defect, interlace, physical_interval_zeros

# the double-precision companion-matrix eigensolver is the independent seed oracle
np = pytest.importorskip("numpy")


def _poly(coeffs, bits=256):
    sc = MPScalars()
    return Poly([mp.mpc(c) for c in coeffs], sc)


def test_simple_quadratics():
    with workbits(256):
        zs = find_zeros(_poly([-1, 0, 1]), 256)
        assert abs(zs.eta[0] + 1) < mp.mpf(2) ** -200 and abs(zs.eta[1] - 1) < mp.mpf(2) ** -200
        zs = find_zeros(_poly([1, 0, 1]), 256)
        got = sorted(zs.eta, key=lambda z: mp.im(z))
        assert abs(got[0] + 1j) < mp.mpf(2) ** -200 and abs(got[1] - 1j) < mp.mpf(2) ** -200


def test_companion_matrix_oracle():
    """Refined roots match the double-precision companion eigenvalues to 1e-12."""
    with workbits(256):
        lam = draw_params("w", "physical", seed=41)
        bun = build_miop(lam, IndexSet.make([(2, "I")]), 3, check=False)
        p = bun.P[3]
        zs = find_zeros(p, 256, FAMILIES["w"])
        arr = np.array([complex(c) for c in reversed(p.coeffs)], dtype=complex)
        arr /= np.abs(arr).max()
        seeds = list(np.roots(arr))
        for z in zs.eta:
            best = min(abs(mp.mpc(zr) - z) for zr in seeds)
            assert best < 1e-12 * max(1, abs(z))
        assert zs.residual_bound <= mp.mpf(2) ** (-256 // 2 + 10)
        assert zs.min_pair_distance > 0


def test_recover_x_branches():
    with workbits(256):
        assert abs(FAMILIES["aw"].recover_x(mp.mpf(1))) == 0
        x = FAMILIES["w"].recover_x(mp.mpf(-1))
        assert abs(x - mp.mpc(0, 1)) < mp.mpf("1e-50")
        z = mp.mpc("2", "3")
        assert FAMILIES["ch"].recover_x(z) == z
        # AW branch: Re x within [0, pi]
        for eta in (mp.mpc("0.3", "0.7"), mp.mpc(-2), mp.mpc("1.4")):
            x = FAMILIES["aw"].recover_x(eta)
            assert -mp.mpf("1e-20") <= mp.re(x) <= mp.pi + mp.mpf("1e-20")
            assert abs(mp.cos(x) - eta) < mp.mpf("1e-60")


def test_wilson_x_of_a_real_negative_eta_ignores_the_noise_sign():
    """A real negative eta whose Im eta is rounding noise of either sign gives x with
    Im x > 0, within the tie of find_zeros at 256 bits; outside the tie the principal
    branch stands."""
    with workbits(288):
        tie = mp.mpf(2) ** (-256 // 2) * mp.mpf("3.3")
        xs = [FAMILIES["w"].recover_x(mp.mpc("-3.3", s * mp.mpf(2) ** -280), tie) for s in (1, -1)]
        assert all(mp.im(x) > 0 for x in xs)
        assert abs(xs[0] - xs[1]) <= mp.mpf(2) ** -270
        assert mp.im(FAMILIES["w"].recover_x(mp.mpc(-3.3, -1), tie)) < 0


def test_askey_wilson_x_of_a_real_eta_outside_the_interval_ignores_the_noise_sign():
    """A real eta outside [-1, 1] whose Im eta is rounding noise of either sign gives x with
    Im x > 0, within the tie of find_zeros at 256 bits: pi + 0.962i at eta = -1.5 and
    +1.567i at eta = 2.5.  Outside the tie the principal branch stands."""
    with workbits(288):
        aw = FAMILIES["aw"]
        for eta, want in (("-1.5", mp.pi + 1j * mp.acosh(mp.mpf("1.5"))),
                          ("2.5", 1j * mp.acosh(mp.mpf("2.5")))):
            tie = mp.mpf(2) ** (-256 // 2) * abs(mp.mpf(eta))
            for s in (1, -1):
                x = aw.recover_x(mp.mpc(eta, s * mp.mpf(2) ** -280), tie)
                assert abs(x - want) <= mp.mpf(2) ** -270
        assert mp.im(aw.recover_x(mp.mpc("2.5", 1), tie)) < 0


@pytest.mark.parametrize("tag", ["ch", "w", "aw"])
def test_zero_structure_physical(tag):
    """Conjugation closure, physical-interval count and interlacing."""
    with workbits(288):
        fam = FAMILIES[tag]
        lam = draw_params(tag, "physical", seed=47)
        D = IndexSet.make([(2, "I")])
        bun = build_miop(lam, D, 4, check=False)
        ok, _ = hermiticity_check(bun)
        assert ok, "draw should give an admissible instance"
        prev = None
        for n in range(1, 5):
            zs = find_zeros(bun.P[n], 256, fam)
            assert conjugation_closure_defect(zs) <= mp.mpf("1e-30")
            phys = physical_interval_zeros(zs, fam)
            assert len(phys) == n
            assert len(zs.eta) == D.ell + n
            if prev is not None:
                assert interlace(prev, phys)
            prev = phys


def test_find_zeros_rejects_low_precision():
    with pytest.raises(ValueError):
        find_zeros(_poly([-1, 0, 1]), 32)


@pytest.mark.parametrize("sign", [1, -1])
def test_conjugate_pair_order_ignores_noise_digits(sign):
    """Roots whose Re agree to far below 2^-128 are ordered by Im, whichever Re is larger."""
    with workbits(256):
        z1 = mp.mpc(1, -2)
        z2 = mp.mpc(1 + sign * mp.mpf(2) ** -200, 2)
        p = _poly([z1 * z2, -(z1 + z2), 1])
        zs = find_zeros(p, 256)
        assert [int(mp.nint(mp.im(e))) for e in zs.eta] == [-2, 2]


@pytest.mark.parametrize("module", ["casoratia", "casoratia.cli"])
def test_import_loads_no_numpy(module):
    """The program seeds its roots without numpy, so importing it loads none."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(casoratia.__file__)))
    code = f"import {module}, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _from_roots(roots, lead=1):
    """The coefficients, lowest degree first, of lead * prod_r (eta - r)."""
    coeffs = [mp.mpc(lead)]
    for r in roots:
        coeffs = [-r * coeffs[0]] + [a - r * b for a, b in zip(coeffs, coeffs[1:])] + [coeffs[-1]]
    return coeffs


ROOT_GRID = 64          # roots are Gaussian rationals m / ROOT_GRID, |m| <= 4 ROOT_GRID
CLUSTER_STEP = 1 / 1024  # about 1e-3: a power of two, so a clustered root stays exact


@st.composite
def root_sets(draw):
    """(roots, coefficients lowest first) of degree 1..16: exact binary Gaussian
    rationals, or real roots and conjugate pairs (real coefficients), or runs of up to
    three roots CLUSTER_STEP apart; the roots scaled by 2^t, |t| <= 12, and the
    coefficients by 2^s, |s| <= 200, so that they range over up to 2^192."""
    n = draw(st.integers(1, 16))
    shape = draw(st.sampled_from(["complex", "real", "cluster"]))
    part = st.integers(-4 * ROOT_GRID, 4 * ROOT_GRID)
    roots = []
    while len(roots) < n:
        z = mp.mpc(draw(part), draw(part)) / ROOT_GRID
        if shape == "real" and (mp.im(z) == 0 or len(roots) == n - 1):
            roots.append(mp.mpc(mp.re(z)))
        elif shape == "real":
            roots += [z, mp.conj(z)]
        elif shape == "cluster":
            roots += [z + k * CLUSTER_STEP for k in range(min(draw(st.integers(1, 3)),
                                                                n - len(roots)))]
        else:
            roots.append(z)
    assume(min((abs(a - b) for i, a in enumerate(roots) for b in roots[:i]),
               default=1) >= CLUSTER_STEP / 2)
    with workbits(1024):
        t, s = draw(st.integers(-12, 12)), draw(st.integers(-200, 200))
        roots = [r * mp.mpf(2) ** t for r in roots]
        coeffs = _from_roots(roots, mp.mpf(2) ** s)
    return roots, coeffs


def _matched(found, want, tol):
    """Whether found and want have one size, each member w of want lies within tol(w) of
    a member of found, and each member of found within tol(w) of its nearest w."""
    nearest = [min(want, key=lambda w: abs(w - z)) for z in found]
    return len(found) == len(want) and \
        all(min(abs(w - z) for z in found) <= tol(w) for w in want) and \
        all(abs(w - z) <= tol(w) for w, z in zip(nearest, found))


def _double_root_tol(coeffs):
    """w -> 2^-46 max_k |a_k| sum_k |w|^k / |p'(w)|: 64 ulps of double times the
    normwise condition number of the root w, the reach of a backward-stable double
    eigensolver (the largest ratio seen over 3,264 roots of root_sets was 2.7 ulps)."""
    n, top = len(coeffs) - 1, max(abs(c) for c in coeffs)

    def tol(w):
        dp = sum(k * coeffs[k] * w ** (k - 1) for k in range(1, n + 1))
        return mp.mpf(2) ** -46 * top * sum(abs(w) ** k for k in range(n + 1)) / abs(dp)
    return tol


@settings(max_examples=40, deadline=None)
@given(root_sets())
def test_find_zeros_matches_oracles(case):
    """find_zeros gives the known roots to 2^-100 of their scale, and agrees with the
    double companion-matrix eigenvalues (np.roots) and with mpmath's polyroots.  Its
    start circle is built in doubles: the mpmath one is never made."""
    roots, coeffs = case
    with workbits(288):
        scale = max(max(abs(r) for r in roots), mp.mpf(2) ** -12)

        def close(w):
            return mp.mpf(2) ** -100 * scale

        with mock.patch.object(zeros, "_start_circle", side_effect=AssertionError("made")):
            zs = find_zeros(_poly(coeffs), 256)
        assert _matched(zs.eta, roots, close)
        mags = max(abs(c) for c in coeffs)
        seeds = np.roots([complex(c / mags) for c in reversed(coeffs)])
        assert _matched([mp.mpc(z) for z in seeds], zs.eta, _double_root_tol(coeffs))
        ref = mp.polyroots([mp.mpc(c) for c in reversed(coeffs)], maxsteps=400, extraprec=300)
        assert _matched([mp.mpc(z) for z in ref], zs.eta, close)


def test_seeds_reach_double_accuracy_in_a_cluster(monkeypatch):
    """Three roots 1e-4 apart: Horner's rounding in doubles leaves steps of about 1e-8,
    above the step rule, so the float run of the Aberth loop must stop on the rounding
    bound of p(z), before its sweep cap, to give seeds at double accuracy; that bound
    over |p'| is about 1e-6."""
    roots = [mp.mpf(1), mp.mpf("1.0001"), mp.mpf("1.0002"), mp.mpc(-2, 1), mp.mpc(-2, -1)]
    calls, runs, aberth = [], [], zeros._aberth

    def counted(evaluate, zs, ar, sweeps):
        def spy(z):
            calls.append(z)
            return evaluate(z)
        runs.append(aberth(spy, zs, ar, sweeps))
        return runs[-1]

    monkeypatch.setattr(zeros, "_aberth", counted)
    with workbits(288):
        seeds = zeros._seeds(_from_roots(roots))
    assert runs[0][1] and len(calls) < len(roots) * zeros.SEED_MAX_ITER
    assert _matched([mp.mpc(z) for z in seeds], [mp.mpc(r) for r in roots],
                    lambda w: mp.mpf("1e-6"))


def test_roots_beyond_the_double_range():
    """2^-2000 eta^2 + 1 has the roots +-i 2^1000: its leading coefficient scales to 0 in
    doubles, so the float run breaks down and the working-precision run starts from the
    start circle, whose radius 2^1000 only mpmath holds."""
    with workbits(288), mock.patch.object(zeros, "_start_circle",
                                          wraps=zeros._start_circle) as circle:
        zs = find_zeros(_poly([1, 0, mp.mpf(2) ** -2000]), 256)
        assert circle.call_count == 1
        big = mp.mpf(2) ** 1000
        assert _matched(zs.eta, [mp.mpc(0, -big), mp.mpc(0, big)],
                        lambda w: mp.mpf(2) ** -200 * abs(w))


def test_roots_far_apart_in_scale(monkeypatch):
    """Roots 1..5 and 2^100: the start circle has radius about 2^100, and its points
    need more than SEED_MAX_ITER float sweeps to come down to 1..5; the working-precision
    run goes on from where the float run stopped, with no other root finder (at 256
    bits the pair-distance certificate relative to 2^100 fails, so it ends at 512)."""
    def polyroots(*args, **kwargs):
        raise AssertionError("find_zeros must not call mp.polyroots")

    monkeypatch.setattr(mp, "polyroots", polyroots)
    roots = [mp.mpc(k) for k in range(1, 6)] + [mp.mpc(mp.mpf(2) ** 100)]
    with workbits(288):
        zs = find_zeros(_poly(_from_roots(roots)), 256)
    assert zs.precision_bits == 512
    assert _matched(zs.eta, roots, lambda w: mp.mpf(2) ** -200 * max(abs(w), 1))


@pytest.mark.parametrize("roots", [[1, 1, -2], [1 + 1j, 1 + 1j]], ids=["real", "complex"])
def test_double_root_raises_after_escalation(roots, monkeypatch):
    """A double root fails the pair-distance certificate at 256 bits and again at 512,
    and then raises MultipleRootSuspected."""
    tried = []

    def spy(bits):
        tried.append(bits)
        return workbits(bits)

    monkeypatch.setattr(zeros, "workbits", spy)
    with workbits(288):
        p = _poly(_from_roots([mp.mpc(r) for r in roots]))
        with pytest.raises(zeros.MultipleRootSuspected):
            find_zeros(p, 256)
    assert tried == [256 + 32, 512 + 32]


def test_arg_of_eta_takes_the_principal_x():
    """arg_of_eta(eta) is the working variable of recover_x(eta) (x for cH and W, e^{ix} for
    AW), within 2^-270 relative of the 1200-bit reference at 288 bits: at random eta, on the
    node circles |eta| = 2 and 2.5, on and beside the branch cuts of AW's acos, and at
    |eta| = 2^40, where eta + i sqrt(1 - eta^2) cancels on half the circle."""
    import random

    rng = random.Random(3)
    with workbits(288):
        etas = [mp.mpc(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(300)]
        etas += [r * mp.expjpi(mp.mpf(k) / 16) for r in (2, mp.mpf(5) / 2) for k in range(32)]
        etas += [mp.mpc(x, s * mp.mpf(2) ** -200) for x in (-3, -1.5, -1, 0, 1, 1.5, 3)
                 for s in (-1, 0, 1)]
        etas += [mp.mpf(2) ** 40 * mp.expjpi(mp.mpf(k) / 8) for k in range(16)]
        for tag, fam in FAMILIES.items():
            for eta in etas:
                got = fam.arg_of_eta(eta)
                with workbits(1200):
                    want = fam.arg_of_x(fam.recover_x(eta))
                assert abs(got - want) <= mp.mpf(2) ** -270 * abs(want), (tag, eta)


def test_a_run_that_ends_on_its_sweep_cap_raises(monkeypatch):
    """A working-precision run that ends on its sweep cap without meeting the step rule
    certifies nothing: with one sweep allowed, (eta - 1)(eta - 2)(eta - 3) breaks down at
    256 bits and again at 512, and then raises."""
    tried = []

    def spy(bits):
        tried.append(bits)
        return workbits(bits)

    monkeypatch.setattr(zeros, "workbits", spy)
    monkeypatch.setattr(zeros, "MAX_SWEEPS", 1)
    with workbits(288):
        with pytest.raises(zeros.MultipleRootSuspected, match="sweep cap"):
            find_zeros(_poly(_from_roots([mp.mpc(r) for r in (1, 2, 3)])), 256)
    assert tried == [256 + 32, 512 + 32]


def test_exact_rules_match_the_mpf_formulas():
    """The step, rounding and pair rules of the working run, decided on squared magnitudes
    of Gaussian floats, give the verdicts of their mpf formulas at 1024 bits: on random
    values near each boundary, and on values placed at it exactly and one unit past it."""
    bits, n = 256, 7
    prec = bits + 32
    w, rng = prec + GUARD_BITS, random.Random(11)

    def rand(e):
        """A random Gaussian float of w bits and magnitude in [2^(e-3), 2^(e+3))."""
        part = lambda: rng.choice((1, -1)) * (rng.getrandbits(w - 1) | 1 << (w - 1))  # noqa: E731
        return part(), part(), e - w + rng.randint(-2, 2)

    def past(z):
        """z one unit larger in its real part's magnitude."""
        return z[0] + (1 if z[0] >= 0 else -1), z[1], z[2]

    def mag(z):
        """|z| as an mpf at 1024 bits."""
        return abs(gstore(z, 1024))

    with workbits(1024):
        def step_rule(step, z):
            return mag(step) <= mp.mpf(2) ** (24 - bits) * max(mag(z), 1)

        def quiet_rule(v, bound):
            return mag(v) <= n * mp.mpf(2) ** -prec * mag(bound)

        def pair_rule(d, scale):
            return mag(d) >= mp.mpf(2) ** (-bits // 4) * mag(scale)

        cases = []   # (rule, exact form, arguments, the verdict, or None where random)
        for _ in range(300):
            z, e = rand(rng.randint(-4, 4)), rng.randint(-2, 2)
            cases.append((step_rule, zeros._small, (rand(z[2] + w + 24 - bits + e), z), None))
            bound = rng.getrandbits(w), 0, rng.randint(-w - 4, -w + 4)
            cases.append((quiet_rule, zeros._quiet, (rand(bound[2] + w - prec + e), bound), None))
            cases.append((pair_rule, zeros._apart, (rand(z[2] + w - bits // 4 + e), z), None))
            big = rand(6)                  # |big| > 1, so the step bound is 2^(24-bits) |big|
            at = big[0], big[1], big[2] + 24 - bits
            cases += [(step_rule, zeros._small, (at, big), True),
                      (step_rule, zeros._small, ((-at[1], at[0], at[2]), big), True),
                      (step_rule, zeros._small, (past(at), big), False)]
            small = rand(-4)               # |small| < 1, so the step bound is 2^(24-bits)
            at = 1 << w, 0, 24 - bits - w
            cases += [(step_rule, zeros._small, (at, small), True),
                      (step_rule, zeros._small, ((0, -at[0], at[2]), small), True),
                      (step_rule, zeros._small, (past(at), small), False)]
            m, e = rng.getrandbits(w - 3), rng.randint(-w - 4, -w + 4)
            bound, at = (5 * m, 0, e), (3 * n * m, 4 * n * m, e - prec)    # |at| = 5 n m 2^e
            cases += [(quiet_rule, zeros._quiet, (at, bound), True),
                      (quiet_rule, zeros._quiet, ((0, -5 * n * m, e - prec), bound), True),
                      (quiet_rule, zeros._quiet, (past(at), bound), False)]
            scale, at = (3 * m, -4 * m, e), (5 * m, 0, e - bits // 4)
            cases += [(pair_rule, zeros._apart, (at, scale), True),
                      (pair_rule, zeros._apart, ((0, 5 * m, at[2]), scale), True),
                      (pair_rule, zeros._apart, ((5 * m - 1, 0, at[2]), scale), False)]
        for rule, exact, args, verdict in cases:
            got = exact(*args, bits) if exact is not zeros._quiet else exact(*args, n, prec)
            assert got == rule(*args), (exact.__name__, args)
            assert verdict is None or got == verdict, (exact.__name__, args)
        assert len({rule(*args) for rule, _, args, verdict in cases if verdict is None}) == 2


# the golden verify instances of test_report.py and one deep benchmark instance per family
ACCURACY_CASES = [("ch", "physical", [(1, "I"), (2, "II")], 2),
                  ("w", "physical", [(1, "I"), (1, "II")], 2),
                  ("aw", "generic", [(1, "I"), (1, "II")], 2),
                  ("ch", "generic", [(1, "I"), (2, "I"), (3, "II")], 5),
                  ("w", "generic", [(2, "II"), (3, "II"), (4, "II")], 5),
                  ("aw", "physical", [(2, "I"), (3, "I"), (4, "I")], 4)]


@pytest.mark.parametrize("tag, mode, entries, N", ACCURACY_CASES,
                         ids=[f"{c[0]}-{c[1]}-N{c[3]}" for c in ACCURACY_CASES])
def test_zeros_agree_with_a_1024_bit_search(tag, mode, entries, N):
    """The 256-bit zeros of P_{D,N} at seed 1 lie within 2^-250 max(|eta|, 1) of those of a
    1024-bit search of the same polynomial, and its min pair distance and min |P'| at the
    zeros within 2^-200 relative (the error is about 2^-288, the rounding of a root)."""
    with workbits(288):
        p = build_miop(draw_params(tag, mode, 1), IndexSet.make(entries), N, 256, check=False).P[N]
        zs, ref = find_zeros(p, 256), find_zeros(p, 1024)
        assert _matched(zs.eta, ref.eta, lambda w: mp.mpf(2) ** -250 * max(abs(w), 1))
        for got, want in ((zs.min_pair_distance, ref.min_pair_distance),
                          (zs.min_deriv_magnitude, ref.min_deriv_magnitude)):
            assert abs(got - want) <= mp.mpf(2) ** -200 * want
