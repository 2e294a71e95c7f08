"""Acceptance criteria: every stated tolerance pinned, one printed line each.

The verification grid is families x {M <= 2, d_j <= 3} x N in {2,3,4}, run at
256 bits in both physical and generic-complex parameter modes.  Set
CASORATIA_ACCEPT_SCALE=small to subsample during development; the default is
the full grid.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath as mp
import pytest

from casoratia.cli import grid_index_sets
from casoratia.conjecture import compare, predicted_k, zeta_constant
from casoratia.dortho import DegenerateSpectrum, naive_weight_demo, verify_orthogonality
from casoratia.exact import QQi
from casoratia.families import FAMILIES, draw_params, params_from_values
from casoratia.identities import (check_prefactor_ratio_identity, check_eta_identity,
                                  check_chain_identity, classical_discrete_ortho,
                                  eta_identity_residual, mixed_constant,
                                  partial_fraction_integral_check, chain_identity_exact)
from casoratia.miop import (IndexSet, PoleAtSample, build_miop, eigen_residual,
                            hermiticity_check, htilde_frame)
from casoratia.numkernel import workbits
from casoratia.zeros import find_zeros
from chain_oracle import measured_mixed_constant
from zero_structure import conjugation_closure_defect, interlace, physical_interval_zeros

TAGS = ["ch", "w", "aw"]
SMALL = os.environ.get("CASORATIA_ACCEPT_SCALE", "full") == "small"
DMAX = 2 if SMALL else 3
NS = (2, 3) if SMALL else (2, 3, 4)
DRAWS = 1 if SMALL else 3

EXACT_PARAMS = {
    "ch": dict(a_vals=[("5/2", "1/2"), ("9/4", "1/3"), ("5/2", "-1/2"), ("9/4", "-1/3")]),
    "w": dict(a_vals=[("5/2", "0"), ("11/4", "0"), ("9/4", "1/2"), ("9/4", "-1/2")]),
    "aw": dict(a_vals=[("1/10", "0"), ("2/15", "0"), ("1/8", "1/16"), ("1/8", "-1/16")],
               q_val="2/5"),
}

NAIVE_WITNESS = {"ch": [(2, "I")], "w": [(3, "I")], "aw": [(3, "I")]}
# documented zero pairs (j, k) where the partial-fraction integral visibly
# fails to vanish for the multi-indexed witness above (value instance-specific)
PF_WITNESS = {"ch": ([(2, "I")], 1, 2), "w": ([(3, "I")], 1, 2), "aw": ([(3, "I")], 2, 3)}


def _passline(num, name, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


def _eigen_residual_at(bun, samples):
    """The eigen gate's worst residual over every P_{D,n} of the bundle, at up to samples
    pole-free points of its own sample stream (at least samples / 2)."""
    lam, fam = bun.lam, bun.lam.fam
    frames = []
    for u in lam.scalars.sample_args(fam, samples + 6, lam, f"gate|{bun.D.key()}"):
        if len(frames) >= samples:
            break
        try:
            frames.append(htilde_frame(bun, u))
        except PoleAtSample:
            continue
    assert len(frames) >= samples // 2
    return eigen_residual(frames, [(p, fam.energy(n, lam)) for n, p in bun.P.items()])


@pytest.mark.acceptance
def test_criterion_01_eigenrelation_suite():
    """Deformed eigenrelation residual <= 2^-128 at 20 points, <= 10 min."""
    t0 = time.time()
    worst = mp.mpf(0)
    count = 0
    with workbits(288):
        for tag in TAGS:
            for draw in range(DRAWS):
                lam = draw_params(tag, "physical", seed=100 + draw)
                for D in grid_index_sets(DMAX, 2):
                    bun = build_miop(lam, D, n_max=4)
                    worst = max(worst, bun.gates["eigen_residual"], _eigen_residual_at(bun, 20))
                    count += 1
    elapsed = time.time() - t0
    assert worst <= mp.mpf(2) ** -128
    assert elapsed <= 600
    _passline(1, "eigenrelation suite",
              f"{count} instances, worst residual {mp.nstr(worst, 3)}, {elapsed:.0f}s")


@pytest.mark.acceptance
def test_criterion_02_degree_laws_exact():
    """Exact backend: deg Xi_D = ell_D, deg P = ell_D + n, shape invariance."""
    checked = 0
    for tag in TAGS:
        cfg = EXACT_PARAMS[tag]
        lam = params_from_values(tag, cfg["a_vals"], cfg.get("q_val"),
                                 mode="physical", backend="exact")
        ds = grid_index_sets(2 if (SMALL or tag == "aw") else 3, 2)
        for D in ds:
            bun = build_miop(lam, D, n_max=2 if SMALL else 3, check=False)
            assert bun.xi.degree == D.ell
            assert not bun.xi.lead().is_zero()
            for n, p in bun.P.items():
                assert p.degree == D.ell + n
                assert not p.lead().is_zero()
            ratio = bun.P[0].lead() / bun.xi_shift.lead()
            for c1, c2 in zip(bun.P[0].coeffs, bun.xi_shift.coeffs):
                assert (c1 - ratio * c2).is_zero()
            checked += 1
    _passline(2, "exact degree laws", f"{checked} exact index sets, all coefficient-exact")


def _grid_reports():
    """Shared verification-grid run: cached for criteria 3, 4, 5."""
    if _grid_reports.cache is not None:
        return _grid_reports.cache
    out = []
    with workbits(288):
        for tag in TAGS:
            for mode in ("physical", "generic"):
                seed = 1
                even = tag == "ch" and mode == "physical"
                for D in grid_index_sets(DMAX, 2, even_ell_only=even):
                    for N in NS:
                        for attempt in range(3):
                            lam = draw_params(tag, mode, seed=seed + 100 * attempt)
                            try:
                                rep = verify_orthogonality(lam, D, N)
                                conj = compare(lam, D, N, rep)
                            except DegenerateSpectrum:
                                continue
                            out.append((tag, mode, lam, D, N, rep, conj))
                            break
                        else:
                            raise AssertionError(f"no admissible draw for {tag}/{mode} {D}")
    _grid_reports.cache = out
    return out


_grid_reports.cache = None


@pytest.mark.acceptance
def test_criterion_03_matrix_symmetry():
    worst = mp.mpf(0)
    for tag, mode, lam, D, N, rep, conj in _grid_reports():
        assert N + D.ell <= 12
        worst = max(worst, rep.symmetry_defect)
    assert worst <= mp.mpf("1e-30")
    _passline(3, "matrix symmetry", f"worst defect {mp.nstr(worst, 3)}")


@pytest.mark.acceptance
def test_criterion_04_discrete_orthogonality_grid():
    worst = mp.mpf(0)
    count = 0
    for tag, mode, lam, D, N, rep, conj in _grid_reports():
        worst = max(worst, rep.max_offdiag_rel)
        count += 1
    assert worst <= mp.mpf("1e-25")
    _passline(4, "discrete orthogonality",
              f"{count} instances (both modes), worst offdiag {mp.nstr(worst, 3)}")


@pytest.mark.acceptance
def test_criterion_05_conjecture_grid():
    worst = mp.mpf(0)
    zetas = {}
    for tag, mode, lam, D, N, rep, conj in _grid_reports():
        worst = max(worst, conj.max_rel_err)
        if conj.zeta is not None:
            key = (tag, mode, lam.digest(), D.counts)
            zetas.setdefault(key, set()).add(mp.nstr(mp.mpc(conj.zeta), 40))
    for key, vals in zetas.items():
        assert len(vals) == 1, f"count-pair constant drifted for {key}"
    # refit on an independent instance: zeta fitted from the measured k_a, with C
    # measured on the chain identity, must reproduce the closed form
    with workbits(288):
        for tag in TAGS:
            lam = draw_params(tag, "physical", seed=1)
            z = mp.mpc(zeta_constant(lam, (1, 1)))
            C = measured_mixed_constant(lam, IndexSet.make([]), (0, "I"), (0, "II"), 0)
            D = IndexSet.make([(1, "I"), (2, "II")])
            rep = verify_orthogonality(lam, D, 2)
            basis = rep.extras["basis"]
            for a, entry in enumerate(basis.entries):
                if entry.case == 3:
                    raw = predicted_k(lam, D, 2, entry) / z
                    raw *= (C / mixed_constant(lam, (0, 0))) ** 2
                    refit = rep.k[a] / raw
                    assert abs(refit - z) <= mp.mpf("1e-20") * abs(z)
    assert worst <= mp.mpf("1e-20")
    _passline(5, "conjecture", f"worst rel err {mp.nstr(worst, 3)}; "
              f"{len(zetas)} closed-form count-pair constants, all stable and refit")


@pytest.mark.acceptance
def test_criterion_06_chain_identities():
    tol = mp.mpf(2) ** -128
    same_cases = [
        (IndexSet.make([]), (0, "I"), (1, "I"), 1),
        (IndexSet.make([(1, "I")]), (0, "I"), (2, "I"), 2),
        (IndexSet.make([]), (1, "II"), (2, "II"), 1),
        (IndexSet.make([(0, "II")]), (1, "II"), (3, "II"), 0),
    ]
    mixed_cases = [
        (IndexSet.make([]), (0, "I"), (0, "II"), 1),
        (IndexSet.make([(1, "I")]), (2, "I"), (1, "II"), 1),
        (IndexSet.make([(1, "II")]), (1, "I"), (2, "II"), 2),
        (IndexSet.make([(0, "I"), (0, "II")]), (1, "I"), (1, "II"), 0),
    ]
    with workbits(288):
        for tag in TAGS:
            lam = draw_params(tag, "physical", seed=7)
            for D, dp, dpp, n in same_cases:
                r = check_chain_identity(lam, D, dp, dpp, n, samples=10)
                assert r["max_residual"] <= tol, f"{tag} same-type {D}"
            for D, dp, dpp, n in mixed_cases:
                r = check_chain_identity(lam, D, dp, dpp, n, samples=10)
                assert r["max_residual"] <= tol, f"{tag} mixed-type {D}"
    exact_pts = []
    for tag in TAGS:
        cfg = EXACT_PARAMS[tag]
        lam = params_from_values(tag, cfg["a_vals"], cfg.get("q_val"),
                                 mode="physical", backend="exact")
        r1 = chain_identity_exact(lam, IndexSet.make([]), (0, "I"), (1, "I"), 1)
        assert r1["exact"], f"{tag} same-type exact"
        r2 = chain_identity_exact(lam, IndexSet.make([]), (0, "I"), (0, "II"), 1)
        assert r2["exact"], f"{tag} mixed-type exact"
        exact_pts.append(r1["points"] + r2["points"])
    _passline(6, "forward/backward identities",
              f"4+4 float instances per family at 10 samples; "
              f"coefficient-exact instances verified at {exact_pts} points")


@pytest.mark.acceptance
def test_criterion_07_eta_lemma():
    rng = random.Random(2024)
    for _ in range(100):
        a, b, c = (QQi(Fraction(rng.randrange(-30, 30), rng.randrange(1, 12)),
                       Fraction(rng.randrange(-30, 30), rng.randrange(1, 12)))
                   for _ in range(3))
        assert check_eta_identity("ch", a, b, c).is_zero()
        assert check_eta_identity("w", a, b, c).is_zero()
    with workbits(256):
        worst = mp.mpf(0)
        for _ in range(100):
            a, b, c = (mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
            worst = max(worst, eta_identity_residual("aw", a, b, c))
        assert worst <= mp.mpf(2) ** -240
    _passline(7, "sinusoidal-coordinate lemma",
              f"exact zero for eta = x, x^2; cos residual {mp.nstr(worst, 3)}")


@pytest.mark.acceptance
def test_criterion_08_prefactor_ratio_identity():
    tol = mp.mpf(2) ** -128
    worst = mp.mpf(0)
    with workbits(288):
        for tag in TAGS:
            lam = draw_params(tag, "physical", seed=7)
            for D, dp, dpp in [(IndexSet.make([]), (0, "I"), (0, "II")),
                               (IndexSet.make([(1, "I")]), (2, "I"), (1, "II"))]:
                for u in lam.fam.sample_args(5, lam, f"pfr|{D.key()}"):
                    r = check_prefactor_ratio_identity(lam, D, dp, dpp, u)
                    worst = max(worst, r["signed_residual"])
                    assert r["signed_residual"] <= tol
    _passline(8, "prefactor-ratio intermediate identity",
              f"5 samples x 2 instances x 3 families, worst {mp.nstr(worst, 3)}")


@pytest.mark.acceptance
def test_criterion_09_classical_orthogonality():
    """Physical and generic draws at N = 8, and the CLI on W physical at N = 40, whose
    p_40 has its leading coefficient 2^-285 of the height: a trim at 2^(16 - bits) of
    the height left it 39 zeros.  With a complex C_N the diagonal is C_N h_n/h_N."""
    worst_off, worst_diag = mp.mpf(0), mp.mpf(0)
    with workbits(288):
        for tag in TAGS:
            for mode in ("physical", "generic"):
                lam = draw_params(tag, mode, seed=3)
                r = classical_discrete_ortho(lam, 8)
                worst_off = max(worst_off, r["max_offdiag_rel"])
                worst_diag = max(worst_diag, r["diag_rel_err"])
    assert worst_off <= mp.mpf("1e-25")
    assert worst_diag <= mp.mpf("1e-20")
    r = subprocess.run([sys.executable, "-m", "casoratia.cli", "identities", "--family", "w",
                        "--classical", "--N", "40"], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    _passline(9, "classical discrete orthogonality",
              f"N = 8 physical and generic, offdiag {mp.nstr(worst_off, 3)}, diagonal vs "
              f"C_N h_n/h_N {mp.nstr(worst_diag, 3)}; W N = 40 exits 0")


@pytest.mark.acceptance
def test_criterion_10_negative_controls():
    details = []
    with workbits(288):
        for tag in TAGS:
            lam = draw_params(tag, "physical", seed=11)
            D = IndexSet.make(NAIVE_WITNESS[tag])
            naive = naive_weight_demo(lam, D, 3)
            assert naive >= mp.mpf("1e-3"), f"{tag} naive weight unexpectedly small"
            rep = verify_orthogonality(lam, D, 3)
            assert rep.max_offdiag_rel <= mp.mpf("1e-25")
            details.append(f"{tag}:naive={mp.nstr(naive, 2)}")
    with workbits(192):
        for tag in TAGS:
            lam = draw_params(tag, "physical", seed=11)
            r0 = partial_fraction_integral_check(lam, IndexSet.make([]), 3, 1, 2, bits=192)
            assert r0["rel"] <= mp.mpf("1e-8"), f"{tag} classical integral split"
            pairs, j, k = PF_WITNESS[tag]
            r1 = partial_fraction_integral_check(lam, IndexSet.make(pairs), 3, j, k, bits=192)
            assert r1["rel"] >= mp.mpf("1e-3"), f"{tag} multi-indexed integral split"
            details.append(f"{tag}:pf0={mp.nstr(r0['rel'], 2)},pf1={mp.nstr(r1['rel'], 2)}")
    _passline(10, "negative controls", "; ".join(details))


@pytest.mark.acceptance
def test_criterion_11_zero_structure():
    with workbits(288):
        for tag in TAGS:
            fam = FAMILIES[tag]
            lam, admissible = None, None
            for seed in (47, 48, 49, 50):
                cand = draw_params(tag, "physical", seed=seed)
                Ds = [IndexSet.make([(2, "I")]), IndexSet.make([(2, "II")])]
                bundles = [build_miop(cand, D, 4, check=False) for D in Ds]
                if all(hermiticity_check(b)[0] for b in bundles):
                    lam, admissible = cand, list(zip(Ds, bundles))
                    break
            assert lam is not None, f"no admissible {tag} draw found"
            for D, bun in admissible:
                prev = None
                for n in range(1, 5):
                    zs = find_zeros(bun.P[n], 256, fam)
                    assert conjugation_closure_defect(zs) <= mp.mpf("1e-30")
                    phys = physical_interval_zeros(zs, fam)
                    assert len(phys) == n
                    assert len(zs.eta) - len(phys) == D.ell
                    if prev is not None:
                        assert interlace(prev, phys)
                    prev = phys
    _passline(11, "zero structure", "conjugation closure, counts and interlacing on the grid")


@pytest.mark.acceptance
def test_criterion_12_determinism_and_precision(tmp_path):
    base = [sys.executable, "-m", "casoratia.cli", "verify", "--family", "w",
            "--dI", "2", "--N", "3"]
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        r = subprocess.run(base + ["--out", str(out)], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    resid = {}
    for bits in (256, 512):
        with workbits(bits + 32):
            lam = draw_params("w", "physical", seed=11)
            rep = verify_orthogonality(lam, IndexSet.make([(2, "I")]), 3, bits=bits)
            resid[bits] = max(rep.max_offdiag_rel,
                              mp.mpf(2) ** (-4 * bits))  # floor far below both
    shrink = resid[256] / resid[512]
    assert shrink >= mp.mpf(2) ** 64
    _passline(12, "determinism and precision monotonicity",
              f"byte-identical reports; residual shrink factor 2^{mp.nstr(mp.log(shrink, 2), 4)}")


@pytest.mark.acceptance
@pytest.mark.parametrize("mode, dI, N", [("physical", "1", 20), ("physical", "1", 30),
                                         ("generic", "1,2", 20)])
def test_aw_large_n_in_one_rung(mode, dI, N, tmp_path):
    """AW at N = 20 and 30 passes every check in the first, 256-bit rung, within 60 s.
    Built from the 4phi3 sum its base polynomials lost about quadratically many bits in
    n, and these instances failed their construction gate at 256 bits."""
    from casoratia import cli
    out = tmp_path / "rep.json"
    argv = ["verify", "--family", "aw", "--mode", mode, "--dI", dI, "--dII", "1",
            "--N", str(N), "--seed", "1", "--out", str(out)]
    t0 = time.time()
    assert cli.main(argv) == 0, argv
    elapsed = time.time() - t0
    doc = json.loads(out.read_text())
    assert [a["precision_bits"] for a in doc["attempts"]] == [256]
    assert all(doc["manifest"]["checks"].values())
    assert elapsed <= 30


@pytest.mark.acceptance
def test_w_physical_at_n36(tmp_path):
    """W physical {1^I, 1^II} at N = 36 passes within 30 s.  Its P_{D,n} have leading
    coefficients down to 2^-250 of the height, and a trim at 2^(16 - bits) of the
    height made this a degenerate instance: "deg P_D,n = 37 but ell_D + n = 38"."""
    from casoratia import cli
    out = tmp_path / "rep.json"
    argv = ["verify", "--family", "w", "--mode", "physical", "--dI", "1", "--dII", "1",
            "--N", "36", "--seed", "1", "--out", str(out)]
    t0 = time.time()
    assert cli.main(argv) == 0, argv
    elapsed = time.time() - t0
    assert all(json.loads(out.read_text())["manifest"]["checks"].values())
    assert elapsed <= 30
