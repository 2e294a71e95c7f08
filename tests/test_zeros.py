"""Root finding: seeds vs oracle, certificates, recovery and zero structure."""

import mpmath as mp
import numpy as np
import pytest

from casoratia.families import FAMILIES, draw_params
from casoratia.miop import IndexSet, build_miop, hermiticity_check
from casoratia.numkernel import MPScalars, workbits
from casoratia.polycore import Poly
from casoratia.zeros import find_zeros
from zero_structure import conjugation_closure_defect, interlace, physical_interval_zeros


def _poly(coeffs, bits=256):
    sc = MPScalars(bits)
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
