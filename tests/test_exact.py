"""Gaussian rationals and their sqrt(q) extension: one element type, QQi."""

import hashlib
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from casoratia.exact import ExactScalars, QQi, fraction_from_decimal
from casoratia.families import params_from_values
from casoratia.miop import IndexSet, build_miop
from casoratia.numkernel import workbits

frac = st.fractions(min_value=-5, max_value=5, max_denominator=16)
nonzero = frac.filter(bool)


@settings(max_examples=60, deadline=None)
@given(frac, frac)
def test_conjugation_involution(re, im):
    z = QQi(re, im)
    assert z.conjugate().conjugate() == z


@settings(max_examples=60, deadline=None)
@given(frac, frac, frac, frac)
def test_qqi_field_ops(a, b, c, d):
    x, y = QQi(a, b), QQi(c, d)
    assert (x + y) - y == x
    assert x * y == y * x
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=40, deadline=None)
@given(frac, frac, frac, frac)
def test_sqrt_ext_inverse(a, b, c, d):
    q = Fraction(2, 5)
    x = QQi(a, b, c, d, q=q)
    if x.is_zero():
        return
    assert x * x.inverse() == QQi(1, q=q)


def test_sqrt_ext_norm():
    q = Fraction(3, 7)
    x = QQi(Fraction(1, 2), 0, Fraction(2, 3), 0, q=q)
    conj = QQi(x.re, x.im, -x.sre, -x.sim, q=q)
    prod = x * conj
    assert prod.sre == prod.sim == 0
    assert prod == QQi(Fraction(1, 4) - Fraction(4, 9) * q)


def test_q_power_half_integers():
    q = Fraction(4, 9)
    sc = ExactScalars(q)
    assert sc.q_power(Fraction(1, 2)) == QQi(0, 0, 1, 0, q=q)
    v = sc.q_power(Fraction(-3, 2))
    direct = sc.one / (sc.q_power(1) * sc.q_power(Fraction(1, 2)))
    assert v == direct
    got = v.to_mpc()
    want = mp.power(mp.mpf(4) / 9, mp.mpf(-1.5))
    assert abs(got - want) < 1e-12


def test_to_mpc_roundtrip():
    z = QQi(Fraction(3, 8), Fraction(-5, 16))
    m = z.to_mpc()
    assert m.real == mp.mpf(3) / 8 and m.imag == mp.mpf(-5) / 16


def test_fraction_from_decimal():
    assert fraction_from_decimal("-1.25") == Fraction(-5, 4)
    assert fraction_from_decimal("3/2") == Fraction(3, 2)


def test_mixed_q_is_an_error():
    """Operands whose q are both set and differ are refused, whatever their sqrt(q) parts;
    an operand without q (an int, a Fraction, a Q(i) value) takes the other's."""
    x, y = QQi(1, 2, q=Fraction(1, 3)), QQi(3, 0, 1, 0, q=Fraction(1, 5))
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__eq__"):
        with pytest.raises(ValueError, match="mixing sqrt"):
            getattr(x, op)(y)
    for other in (2, Fraction(1, 2), QQi(1, 1)):
        assert (x + other).q == (other + x).q == (x * other).q == x.q
    with pytest.raises(ValueError, match="needs q"):
        QQi(1, 0, 1, 0)


@settings(max_examples=40, deadline=None)
@given(nonzero, frac, frac, nonzero, frac, frac, nonzero, frac, st.integers(-4, 5))
def test_sqrt_parts_against_mpc(a, b, c, d, e, f, g, h, n):
    """Products, quotients and powers with sqrt(q) parts on both sides agree with the
    same arithmetic on their to_mpc values to 2^-(bits-8), relatively.  The mpc side
    runs 64 bits above that, as re + sre sqrt(q) can cancel: for |parts| <= 5 with
    denominators <= 16, by at most 25 bits, since |e^2 - g^2 q| >= 1/(7 16^4)."""
    bits, q = 192, Fraction(3, 7)
    x, y = QQi(a, b, c, d, q=q), QQi(e, f, g, h, q=q)
    tol = mp.mpf(2) ** (8 - bits)
    with workbits(bits + 64):
        mx, my = x.to_mpc(), y.to_mpc()
        for got, want in ((x * y, mx * my), (x / y, mx / my), (x ** n, mx ** n)):
            assert abs(got.to_mpc() - want) <= tol * abs(want)


@settings(max_examples=40, deadline=None)
@given(frac, frac, frac, frac, st.integers(-3, 3))
def test_fast_paths_match_the_constructor(a, b, c, d, n):
    """Q(i) results and results with zero sqrt(q) parts equal the values built through
    the public constructor, and keep the q of their operands."""
    q = Fraction(2, 5)
    for qq in (None, q):
        x, y = QQi(a, b, q=qq), QQi(c, d, q=qq)
        assert x + y == QQi(a + c, b + d, q=qq) and (x + y).q == qq
        assert x - y == QQi(a - c, b - d, q=qq)
        assert x * y == QQi(a * c - b * d, a * d + b * c, q=qq) and (x * y).q == qq
        assert -x == QQi(-a, -b, q=qq) and x.conjugate() == QQi(a, -b, q=qq)
        if not y.is_zero():
            m = c * c + d * d
            assert x / y == QQi((a * c + b * d) / m, (b * c - a * d) / m, q=qq)
            assert (y ** n).q == qq and y ** n * y ** -n == QQi(1)


def _bundle_sha256(family, a_vals, q_val):
    """sha256 of the four rational parts of every coefficient of Xi_D, Xi_D(lambda+delta)
    and P_{D,n}, n <= 2, for D = {1^I, 1^II} on exact rational parameters."""
    lam = params_from_values(family, a_vals, q_val, backend="exact")
    b = build_miop(lam, IndexSet.make([(1, "I"), (1, "II")]), 2, check=False)
    h = hashlib.sha256()
    for p in (b.xi, b.xi_shift, *(b.P[n] for n in sorted(b.P))):
        for c in p.coeffs:
            h.update(f"{c.re}|{c.im}|{c.sre}|{c.sim};".encode())
        h.update(b"#")
    return lam.digest(), h.hexdigest()


@pytest.mark.parametrize("family, a_vals, q_val, digest, sha", [
    ("w", [("5/2", "0"), ("11/4", "0"), ("9/4", "1/2"), ("9/4", "-1/2")], None,
     "c6832c8c4c4b842b", "74cb51f7f0ea37255ae2c0e7cc644f33140b1c512c758eb3b1e2895296eba761"),
    ("aw", [("1/10", "0"), ("2/15", "0"), ("1/8", "1/16"), ("1/8", "-1/16")], "2/5",
     "6d4c770c505c0d43", "49c03be653943ef8f3d0d742c594e26dfb333e774906663db904355453332f52"),
])
def test_golden_exact_bundles(family, a_vals, q_val, digest, sha):
    """An exact W and AW bundle and their ParamSet digests, recorded when Q(i, sqrt(q))
    was a second element class over Q(i): one class gives the same exact values."""
    assert _bundle_sha256(family, a_vals, q_val) == (digest, sha)
