"""Shifted factorials and precision reruns."""

from fractions import Fraction

import mpmath as mp
from hypothesis import given, settings, strategies as st

from casoratia.exact import ExactScalars, QQi
from casoratia.numkernel import pochhammer, q_pochhammer, workbits


def test_pochhammer_trivial():
    with workbits(128):
        assert pochhammer(mp.mpc(7, 3), 0) == 1
        assert pochhammer(mp.mpc(1), 4) == 24
        assert mp.almosteq(pochhammer(mp.mpf(0.5), 2), mp.mpf(3) / 4)


def test_pochhammer_exact():
    sc = ExactScalars()
    assert pochhammer(sc.from_fraction(Fraction(1, 2)), 2) == sc.from_fraction(Fraction(3, 4))


def test_q_pochhammer_trivial():
    with workbits(128):
        assert q_pochhammer(mp.mpc(5), mp.mpf(0.5), 0) == 1
        assert q_pochhammer(mp.mpc(2), mp.mpf(0.5), 1) == -1
        q = mp.mpf(0.37)
        assert mp.almosteq(q_pochhammer(q, q, 2), (1 - q) * (1 - q ** 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 20), st.integers(0, 20))
def test_pochhammer_functional_equation(ar, ai, m, n):
    sc = ExactScalars()
    a = sc.from_fraction(Fraction(ar, 3), Fraction(ai, 5))
    lhs = pochhammer(a, m + n)
    rhs = pochhammer(a, m) * pochhammer(a + m, n)
    assert (lhs - rhs).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(-4, 4), st.integers(0, 12), st.integers(0, 12))
def test_q_pochhammer_functional_equation(ar, m, n):
    sc = ExactScalars()
    a = sc.from_fraction(Fraction(ar, 3), Fraction(1, 7))
    q = sc.from_fraction(Fraction(2, 5))
    lhs = q_pochhammer(a, q, m + n)
    rhs = q_pochhammer(a, q, m) * q_pochhammer(a * q ** m, q, n)
    assert (lhs - rhs).is_zero()


def test_precision_rerun_consistency():
    a = ("1.375", "-0.625")
    vals = {}
    for bits in (128, 256):
        with workbits(bits):
            vals[bits] = pochhammer(mp.mpc(mp.mpf(a[0]), mp.mpf(a[1])), 17)
    with workbits(512):
        diff = abs(mp.mpc(vals[128]) - mp.mpc(vals[256])) / abs(mp.mpc(vals[256]))
        assert diff < mp.mpf(2) ** -64


def test_float_inverse_dft_recovers_a_polynomial():
    """A random degree-15 polynomial comes back from its 16 circle nodes to 2^-(bits-16)."""
    import random

    from casoratia.families import FAMILIES, draw_params
    from casoratia.numkernel import HELD_OUT, HELD_RADIUS, NODE_RADIUS
    from casoratia.polycore import Poly

    bits = 256
    rng = random.Random(15)
    with workbits(bits + 32):
        for tag in ("ch", "w", "aw"):
            lam = draw_params(tag, "generic", seed=5, bits=bits)
            sc, fam = lam.scalars, FAMILIES[tag]
            want = [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(16)]
            p = Poly(want, sc)
            us, etas = sc.extraction_nodes(fam, lam, 16, "dft", 0)
            # the fit nodes lie on the fit circle, the held-out ones on theirs, and the
            # sample args map back onto them
            assert len(etas) == 16 + HELD_OUT
            for k, (u, e) in enumerate(zip(us, etas)):
                radius = NODE_RADIUS if k < 16 else HELD_RADIUS
                assert abs(abs(e) - radius) <= mp.mpf(2) ** -bits
                assert abs(fam.eta_at(u, lam) - e) <= mp.mpf(2) ** -bits
            got = sc.interpolator(etas[:16])([p(e) for e in etas[:16]], 15)
            err = max(abs(g - w) for g, w in zip(got, want))
            assert err <= mp.mpf(2) ** -(bits - 16) * max(abs(w) for w in want), tag
            # eta^32 is constant on the 16 fit nodes and aliases onto the constant
            # coefficient; every held-out node still sees it
            bad = [p(e) + e ** 32 for e in etas]
            fitted = Poly(sc.interpolator(etas[:16])(bad[:16], 15), sc)
            for e, v in zip(etas[16:], bad[16:]):
                assert abs(fitted(e) - v) > abs(e) ** 31
            # few fit nodes: all nodes stay apart
            for fit in (1, 2, 3):
                _, etas = sc.extraction_nodes(fam, lam, fit, "few", 0)
                gaps = [abs(e - f) for i, e in enumerate(etas) for f in etas[:i]]
                assert min(gaps) > mp.mpf("0.1")
