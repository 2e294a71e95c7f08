"""Test oracle: the base polynomials as terminating hypergeometric sums.

The Askey-scheme definitions of Koekoek, Lesky & Swarttouw (2010), summed in eta:
continuous Hahn (9.4.1) as a 3F2, Wilson (9.1.1) and Askey-Wilson (14.1.1) as a
4F3 and a 4phi3.  The package builds the same polynomials from the three-term
recurrences (families.recurrence_run); these sums are independent of that code
and serve as its reference.  A sum divides by (a1 + a3)_k (a1 + a4)_k and its
kin, so it raises ZeroDivisionError where one of those vanishes, even where the
polynomial exists.  The sums expand their products on coefficient lists with their
own two helpers below, not with polycore's linear-factor step.
"""

from casoratia.numkernel import pochhammer, q_pochhammer
from casoratia.polycore import Poly


def base_sum(n, lam) -> Poly:
    """p_n(eta) of lam's family at lam's parameters, from the hypergeometric sum."""
    return _SUMS[lam.family](n, lam)


def _times(cs, c0, c1):
    """The coefficients of (c0 + c1 v) p from those cs of p."""
    return [c0 * cs[0]] + [c0 * a + c1 * b for a, b in zip(cs[1:], cs)] + [c1 * cs[-1]]


def _plus(acc, cs, c, zero):
    """The coefficients of acc + c p from those of acc and cs of p, len(acc) <= len(cs)."""
    return [x + c * y for x, y in zip(acc + [zero] * (len(cs) - len(acc)), cs)]


def _ch_sum(n, lam):
    sc = lam.scalars
    a1, a2, a3, a4 = lam.a
    b1 = a1 + a2 + a3 + a4
    acc, coef, base = [sc.one], sc.one, [sc.one]
    for k in range(1, n + 1):
        km1 = sc.from_int(k - 1)
        coef = coef * (sc.from_int(-n) + km1) * (sc.from_int(n - 1) + b1 + km1)
        coef = coef / ((a1 + a3 + km1) * (a1 + a4 + km1) * sc.from_int(k))
        base = _times(base, a1 + km1, sc.i)
        acc = _plus(acc, base, coef, sc.zero)
    pref = (sc.i ** n) * pochhammer(a1 + a3, n) * pochhammer(a1 + a4, n)
    fact = sc.one
    for k in range(2, n + 1):
        fact = fact * sc.from_int(k)
    return Poly([x * (pref / fact) for x in acc], sc).trim()


def _w_sum(n, lam):
    sc = lam.scalars
    a1, a2, a3, a4 = lam.a
    b1 = a1 + a2 + a3 + a4
    acc, coef, base = [sc.one], sc.one, [sc.one]
    for k in range(1, n + 1):
        km1 = sc.from_int(k - 1)
        coef = coef * (sc.from_int(-n) + km1) * (sc.from_int(n - 1) + b1 + km1)
        coef = coef / ((a1 + a2 + km1) * (a1 + a3 + km1) * (a1 + a4 + km1) * sc.from_int(k))
        s = a1 + km1
        base = _times(base, s * s, sc.one)
        acc = _plus(acc, base, coef, sc.zero)
    pref = pochhammer(a1 + a2, n) * pochhammer(a1 + a3, n) * pochhammer(a1 + a4, n)
    return Poly([x * pref for x in acc], sc).trim()


def _aw_sum(n, lam):
    sc = lam.scalars
    a1, a2, a3, a4 = lam.a
    q = lam.q
    b4 = a1 * a2 * a3 * a4
    acc, coef, base = [sc.one], sc.one, [sc.one]
    qk = sc.one  # q^{k-1}
    qn = q ** n
    for k in range(1, n + 1):
        coef = coef * (sc.one - qk / qn) * (sc.one - b4 * qn * qk / q) * q
        coef = coef / ((sc.one - a1 * a2 * qk) * (sc.one - a1 * a3 * qk)
                       * (sc.one - a1 * a4 * qk) * (sc.one - qk * q))
        base = _times(base, sc.one + a1 * a1 * qk * qk, sc.from_int(-2) * a1 * qk)
        acc = _plus(acc, base, coef, sc.zero)
        qk = qk * q
    pref = q_pochhammer(a1 * a2, q, n) * q_pochhammer(a1 * a3, q, n) * q_pochhammer(a1 * a4, q, n)
    return Poly([x * (pref / (a1 ** n)) for x in acc], sc).trim()


_SUMS = {"ch": _ch_sum, "w": _w_sum, "aw": _aw_sum}
