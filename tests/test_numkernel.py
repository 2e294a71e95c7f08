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
