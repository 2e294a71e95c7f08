"""Registry of the three idQM systems: continuous Hahn, Wilson, Askey-Wilson.

Carries the per-family data the construction needs: the potentials and the
sinusoidal coordinate as ratios of products of affine factors of the working
variable, the shift x -> x + i t gamma as a step on it, energies, base
polynomials from the three-term recurrences of Koekoek, Lesky & Swarttouw (2010;
"KLS") through recurrence_run (at the twisted parameters they are the
virtual-state polynomials), virtual-state parameter twists with their alpha
constants and energies, the parameter shifts delta / delta-tilde, the h_n ratios
and the ground-state weight phi_0^2 of the quadrature control.

Exact and float parameter sets run the same code: where the two differ (AW's
q**t, the sample points) the scalar backend answers.

Each virtual-state type acts on one pair of a1..a4 (Family.pairs): the
delta-tilde shifts, the virtual energies, alpha, the twists, the combined type
pair and b' are derived from it, and case (2) of the closed forms is case (1)
on swap_types(a).

Every checked build gates base polynomials, energies and the delta-tilde
shifts through the (deformed) eigenrelation at lambda_D (miop.build_miop).  The
twists, alpha and the virtual energies are checked by a test oracle
(calibrate_twist in tests/test_families.py), which fits them from the potential
functional identities; h_n ratios are checked against the recurrence coefficients.
"""

from __future__ import annotations

import hashlib
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .exact import ExactScalars, QQi, fraction_from_decimal
from .numkernel import MPScalars, jitter, mpc_parts, pochhammer, q_pochhammer, workbits
from .polycore import Poly, times_linear

HALF = Fraction(1, 2)
PHYSICAL_TOL = 1e-25   # relative, of the conjugation constraints of validate_physical
DRAW_DMAX = 3   # the largest degree d_j the virtual-state margins of draw_params allow


@dataclass(frozen=True, eq=False)
class ParamSet:
    """Family parameters (a1..a4, q for AW) in a concrete scalar backend."""

    family: str                # 'ch' | 'w' | 'aw'
    a: tuple
    q: object                  # scalar, AW only (None otherwise)
    mode: str                  # 'physical' | 'generic'
    scalars: object

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if len(self.a) != 4:
            raise ValueError("need four parameters a1..a4")
        if (self.family == "aw") != (self.q is not None):
            raise ValueError("q is required exactly for the AW family")
        if self.mode not in ("physical", "generic"):
            raise ValueError(f"mode must be physical or generic, got {self.mode!r}")

    @property
    def fam(self) -> "Family":
        return FAMILIES[self.family]

    def with_a(self, a, q=None) -> "ParamSet":
        return ParamSet(self.family, tuple(a), self.q if q is None else q,
                        self.mode, self.scalars)

    def b1(self):
        return self.a[0] + self.a[1] + self.a[2] + self.a[3]

    def b4(self):
        return self.a[0] * self.a[1] * self.a[2] * self.a[3]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.family}|{self.mode}|{self.scalars.name}|".encode())
        for v in (*self.a, self.q):
            h.update(_render_scalar(v).encode())
            h.update(b"|")
        return h.hexdigest()[:16]


def _render_scalar(v) -> str:
    """Exact text of a scalar: Fractions for exact ones, the (sign, mantissa,
    exponent) of both parts for mpmath ones, so distinct values never collide."""
    if v is None:
        return "-"
    if isinstance(v, QQi):
        return f"{v.re},{v.im}" + ("" if v.q is None else f"+s({v.q})*{v.sre},{v.sim}")
    return ";".join(f"{sign},{man:x},{exp}" for sign, man, exp, _ in mpc_parts(v))


# -- base polynomials -------------------------------------------------------------


class SingularStep(RuntimeError):
    """A base-polynomial recurrence step divides by an exact zero.  The denominators t(m)
    of recurrence_run vanish exactly where energies meet, E_j = E_{m-j}: the spectrum
    is degenerate and the eigenpolynomial of that degree is not unique."""


@dataclass(frozen=True)
class BaseRun:
    """p_0 .. p_n of one family at one parameter set, and the triple (A_k, B_k, C_k) of
    each step k < n: eta p_k = A_k p_{k+1} + B_k p_k + C_k p_{k-1}, with C_0 = 0."""

    polys: tuple
    triples: tuple


def _quo(num, den):
    if den == 0:
        raise SingularStep("a base-polynomial recurrence step divides by zero")
    return num / den


def recurrence_run(n: int, t, step, sc, run: BaseRun | None = None) -> BaseRun:
    """p_0 = 1 and p_{k+1} = ((eta - B_k) p_k - C_k p_{k-1}) / A_k up to degree n, as Polys
    on sc (each step on coefficient lists, by times_linear), continuing run if one is
    given.  step(k, r, e, f) gives the triple from r = t(k)/t(2k), e = 1/t(2k+1) and
    f = 1/(t(2k-1) t(2k)), t(m) = m + b1 - 1 (cH, W) or 1 - b4 q^(m-1) (AW); at k = 0,
    r = 1 (t(0) cancels) and f = 0 (C_0 = 0).  A divisor that is exactly zero raises
    SingularStep."""
    polys, triples = (list(run.polys), list(run.triples)) if run else ([Poly([sc.one], sc)], [])
    for k in range(len(polys) - 1, n):
        r, f = (1, 0) if k == 0 else (_quo(t(k), t(2 * k)), _quo(1, t(2 * k - 1) * t(2 * k)))
        a_k, b_k, c_k = step(k, r, _quo(1, t(2 * k + 1)), f)
        cs, inv = times_linear(polys[k].coeffs, b_k), _quo(1, a_k)
        if k:
            cs[:k] = [x - y * c_k for x, y in zip(cs, polys[k - 1].coeffs)]
        polys.append(Poly([x * inv for x in cs], sc))
        triples.append((a_k, b_k, c_k))
    return BaseRun(tuple(polys), tuple(triples))


class Family:
    tag = ""
    var_kind = "x"  # 'x' or 'z'
    # the pair of a1..a4 (0-based) each virtual-state type acts on
    pairs = {"I": (0, 1), "II": (2, 3)}
    # how type_pair combines a pair into one scalar, and how bprime compares the two
    _join, _split = staticmethod(operator.add), staticmethod(operator.sub)

    # -- coordinates and potential ------------------------------------------------
    # eta and the potential are ratios (num, den) of products of affine factors
    # c0 + c1 u of the working variable u, given as lists of (c0, c1): the frame kernels
    # of the scalar backend evaluate them, _at in the backend's scalars, and
    # shift_factors takes a factor to a shifted argument, so a frame of shifted points
    # is one set of factors in u.

    def eta_factors(self, lam: ParamSet) -> tuple:
        raise NotImplementedError

    def v_factors(self, a, lam: ParamSet) -> tuple:
        """V = v_numer / v_denom at parameters a."""
        raise NotImplementedError

    def v_star_factors(self, a, lam: ParamSet) -> tuple:
        """The starred partner V*: the generic-mode rule, the conjugate-parameter form
        when physical."""
        raise NotImplementedError

    @staticmethod
    def _at(ratio, u, lam: ParamSet):
        num, den = ([c0 + c1 * u for c0, c1 in fs] for fs in ratio)   # num is never empty
        value = math.prod(num[1:], start=num[0])
        return value / math.prod(den[1:], start=den[0]) if den else value

    def eta_at(self, u, lam: ParamSet):
        return self._at(self.eta_factors(lam), u, lam)

    def v_numer_at(self, a, u, lam: ParamSet):
        return self._at((self.v_factors(a, lam)[0], []), u, lam)

    def v_at(self, a, u, lam: ParamSet):
        return self._at(self.v_factors(a, lam), u, lam)

    def v_star_at(self, a, u, lam: ParamSet):
        return self._at(self.v_star_factors(a, lam), u, lam)

    def shift_step(self, t, lam: ParamSet):
        """The s of shift_arg(u, t) = u + s: i t (gamma = 1 here)."""
        return lam.scalars.i * lam.scalars.from_fraction(Fraction(t))

    def shift_arg(self, u, t, lam: ParamSet):
        """Working-variable image of x -> x + i t gamma (t rational)."""
        return u + self.shift_step(t, lam)

    @staticmethod
    def shift_factors(factors, s) -> list:
        """The factors c0 + c1 (u + s) as affine factors in u, s a shift_step."""
        return [(c0 + c1 * s, c1) for c0, c1 in factors]

    def gamma_value(self, lam: ParamSet) -> mp.mpf:
        """Numeric gamma (float path only)."""
        return mp.mpf(1)

    # -- spectra ----------------------------------------------------------------

    def energy(self, n: int, lam: ParamSet):
        sc = lam.scalars
        return sc.from_int(n) * (lam.b1() + sc.from_int(n - 1))

    def etilde(self, vtype: str, v: int, lam: ParamSet):
        """Virtual energy: -(s - v - 1)(s' + v), s the type's own pair sum, s' the other's."""
        own, other = self._own_other(vtype, lam.a)
        sc = lam.scalars
        vv = sc.from_int(v)
        return -(own - vv - sc.one) * (other + vv)

    def twist_a(self, vtype: str, lam: ParamSet) -> tuple:
        """Parameters of the type's virtual-state polynomials: its pair reflected."""
        a = list(lam.a)
        for i in self.pairs[vtype]:
            a[i] = self._reflect(a[i], lam)
        return tuple(a)

    def _reflect(self, x, lam: ParamSet):
        return lam.scalars.one - x

    def alpha(self, vtype: str, lam: ParamSet):
        return lam.scalars.one

    # -- type pairing ---------------------------------------------------------------

    def type_pair(self, a) -> tuple:
        """The type-I and type-II pairs of a, each combined into one scalar: the sums
        s1, s2 (the products A, B for AW)."""
        (i, j), (k, l) = self.pairs["I"], self.pairs["II"]
        return self._join(a[i], a[j]), self._join(a[k], a[l])

    def _own_other(self, vtype: str, a) -> tuple:
        s1, s2 = self.type_pair(a)
        return (s1, s2) if vtype == "I" else (s2, s1)

    def bprime(self, a):
        """b' of the closed forms: s1 - s2 (A / B for AW)."""
        return self._split(*self.type_pair(a))

    def swap_types(self, a) -> tuple:
        """a with the type-I and type-II pairs exchanged (case (2) is case (1) on it)."""
        out = list(a)
        for i, j in zip(self.pairs["I"], self.pairs["II"]):
            out[i], out[j] = a[j], a[i]
        return tuple(out)

    # -- shifts -------------------------------------------------------------------

    delta_vec = (HALF, HALF, HALF, HALF)

    def dtilde(self, vtype: str) -> tuple:
        """delta-tilde^vtype, with lambda_D = lambda + M_I dtilde("I") + M_II dtilde("II"):
        -1/2 on the type's own pair and +1/2 on the other."""
        return tuple(-HALF if i in self.pairs[vtype] else HALF for i in range(4))

    def apply_shift_vec(self, lam: ParamSet, vec) -> ParamSet:
        """lambda + vec (additive parameters; AW shifts multiplicatively)."""
        sc = lam.scalars
        return lam.with_a(tuple(ai + sc.from_fraction(f) for ai, f in zip(lam.a, vec)))

    # -- ranges (float path) -------------------------------------------------------

    def x_bounds(self, lam: ParamSet):
        raise NotImplementedError

    def recover_x(self, eta, tie=0):
        """x with eta(x) = eta on the family's branch; tie: zeros._canonical_order's."""
        raise NotImplementedError

    def arg_of_x(self, x):
        """Working variable u for a complex x: x itself, or z = e^{ix} for AW (float path)."""
        return mp.exp(1j * mp.mpc(x)) if self.var_kind == "z" else mp.mpc(x)

    def arg_of_eta(self, eta):
        """The working variable u of x = recover_x(eta), from eta (float path): x itself."""
        return self.recover_x(eta)

    def sample_args(self, count: int, lam: ParamSet, salt: str):
        raise NotImplementedError

    def exact_sample_args(self, count: int, lam: ParamSet):
        raise NotImplementedError

    # -- norms ----------------------------------------------------------------------

    def h_ratio_base(self, n, m, lam: ParamSet):
        """h_n / h_m of the base family."""
        return self._h_over_h0(n, lam) / self._h_over_h0(m, lam)

    def _h_over_h0(self, n, lam: ParamSet):
        raise NotImplementedError


def _qp_inf(a, q):
    """(a; q)_infty by direct truncated product at the working precision."""
    absq = abs(q)
    if absq >= 1:
        raise ValueError("need |q| < 1")
    terms = int(mp.mp.prec * mp.log(2) / (-mp.log(absq))) + 12
    out = mp.mpc(1)
    aq = mp.mpc(a)
    for _ in range(terms):
        out *= 1 - aq
        aq *= q
    return out


class ContinuousHahn(Family):
    tag = "ch"
    var_kind = "x"

    def eta_factors(self, lam):
        return [(lam.scalars.zero, lam.scalars.one)], []

    def v_factors(self, a, lam):
        i = lam.scalars.i
        return [(a[0], i), (a[1], i)], []

    def v_star_factors(self, a, lam):
        i = -lam.scalars.i
        return [(a[2], i), (a[3], i)], []

    # the types act on the conjugate pairs (a1, a3) and (a2, a4)
    pairs = {"I": (0, 2), "II": (1, 3)}

    def twist_a(self, vtype, lam):
        # reflected swap within the conjugate pair; plain reflection fails the
        # potential consistency identity (calibration pins this down)
        a = list(super().twist_a(vtype, lam))
        i, j = self.pairs[vtype]
        a[i], a[j] = a[j], a[i]
        return tuple(a)

    def x_bounds(self, lam):
        return (mp.mpf("-inf"), mp.mpf("+inf"))

    def recover_x(self, eta, tie=0):
        return mp.mpc(eta)

    def sample_args(self, count, lam, salt):
        j = jitter(salt)
        lo, hi = mp.mpf("-2.4"), mp.mpf("2.6")
        return [lo + (hi - lo) * (s + mp.mpf(0.35) + mp.mpf(0.3) * j) / count for s in range(count)]

    def exact_sample_args(self, count, lam):
        return [lam.scalars.from_fraction(Fraction(2 * s + 1, 3)) for s in range(count)]

    def base_poly(self, n, lam, sc, run=None) -> BaseRun:
        """Continuous Hahn p_0 .. p_n(eta) (Askey-scheme normalization) by KLS (9.4.3)."""
        (a, b, c, d), s = lam.a, lam.b1()

        def step(k, r, e, f):
            down = f * (k + b + c - 1) * (k + b + d - 1)                    # KLS C_k / k
            return ((k + 1) * r * e, sc.i * (a - r * e * (k + a + c) * (k + a + d) + k * down),
                    down * (k + a + c - 1) * (k + a + d - 1))
        return recurrence_run(n, lambda m: m + s - 1, step, sc, run)

    def _h_over_h0(self, n, lam):
        a1, a2, a3, a4 = lam.a
        sc = lam.scalars
        b1 = lam.b1()
        num = (pochhammer(a1 + a3, n) * pochhammer(a1 + a4, n)
               * pochhammer(a2 + a3, n) * pochhammer(a2 + a4, n) * (b1 - sc.one))
        den = pochhammer(sc.one, n) * pochhammer(b1 - sc.one, n) * (b1 + sc.from_int(2 * n - 1))
        return num / den

    def phi0_sq(self, x, lam):
        a1, a2, a3, a4 = (mp.mpc(v) for v in lam.a)
        return (mp.gamma(a1 + 1j * x) * mp.gamma(a2 + 1j * x)
                * mp.gamma(a3 - 1j * x) * mp.gamma(a4 - 1j * x))


class Wilson(Family):
    tag = "w"
    var_kind = "x"

    def eta_factors(self, lam):
        return [(lam.scalars.zero, lam.scalars.one)] * 2, []

    def v_factors(self, a, lam):
        """prod (a_k + i u) / (2 i u (2 i u + 1))."""
        sc = lam.scalars
        two_i = sc.from_int(2) * sc.i
        return [(ai, sc.i) for ai in a], [(sc.zero, two_i), (sc.one, two_i)]

    def v_star_factors(self, a, lam):
        """V*(u) = V(-u)."""
        return tuple([(c0, -c1) for c0, c1 in fs] for fs in self.v_factors(a, lam))

    def x_bounds(self, lam):
        return (mp.mpf(0), mp.mpf("+inf"))

    def recover_x(self, eta, tie=0):
        """sqrt(eta) on the principal branch, Re x >= 0, but with Im x >= 0 where |Re x| <= tie:
        for a real negative eta, Im x does not take the sign of a noise-level Im eta."""
        x = mp.sqrt(mp.mpc(eta))
        return -x if abs(mp.re(x)) <= tie and mp.im(x) < 0 else x

    def sample_args(self, count, lam, salt):
        j = jitter(salt)
        lo, hi = mp.mpf("0.37"), mp.mpf("3.9")
        return [lo + (hi - lo) * (s + mp.mpf(0.3) + mp.mpf(0.4) * j) / count for s in range(count)]

    def exact_sample_args(self, count, lam):
        return [lam.scalars.from_fraction(Fraction(2 * s + 1, 2)) for s in range(count)]

    def base_poly(self, n, lam, sc, run=None) -> BaseRun:
        """Wilson W_0 .. W_n(eta) (eta = x^2, Askey-scheme normalization) by KLS (9.1.3)."""
        (a, b, c, d), s = lam.a, lam.b1()

        def step(k, r, e, f):
            up = r * e * (k + a + b) * (k + a + c) * (k + a + d)                # KLS A_k
            down = f * k * (k + b + c - 1) * (k + b + d - 1) * (k + c + d - 1)  # KLS C_k
            return (-r * e, up + down - a * a,
                    -down * (k + a + b - 1) * (k + a + c - 1) * (k + a + d - 1))
        return recurrence_run(n, lambda m: m + s - 1, step, sc, run)

    def _h_over_h0(self, n, lam):
        a = lam.a
        sc = lam.scalars
        b1 = lam.b1()
        num = pochhammer(sc.one, n) * pochhammer(b1 + sc.from_int(n - 1), n)
        for i in range(4):
            for j in range(i + 1, 4):
                num = num * pochhammer(a[i] + a[j], n)
        return num / pochhammer(b1, 2 * n)

    def phi0_sq(self, x, lam):
        a = [mp.mpc(v) for v in lam.a]
        num = mp.mpf(1)
        for ai in a:
            num *= mp.gamma(ai + 1j * x) * mp.gamma(ai - 1j * x)
        return num / (mp.gamma(2j * x) * mp.gamma(-2j * x))


class AskeyWilson(Family):
    tag = "aw"
    var_kind = "z"
    _join, _split = staticmethod(operator.mul), staticmethod(operator.truediv)

    def eta_factors(self, lam):
        """(z + 1/z) / 2 = (z - i)(z + i) / (2 z)."""
        sc = lam.scalars
        return [(-sc.i, sc.one), (sc.i, sc.one)], [(sc.zero, sc.from_int(2))]

    def v_factors(self, a, lam):
        """prod (1 - a_k z) / ((1 - z^2)(1 - q z^2))."""
        sc = lam.scalars
        one, r = sc.one, sc.q_power(HALF, lam.q)
        return [(one, -ai) for ai in a], [(one, -one), (one, one), (one, -r), (one, r)]

    def v_star_factors(self, a, lam):
        """V(1/z) = prod (z - a_k) / ((z^2 - 1)(z^2 - q))."""
        sc = lam.scalars
        one, r = sc.one, sc.q_power(HALF, lam.q)
        return [(-ai, one) for ai in a], [(-one, one), (one, one), (-r, one), (r, one)]

    def shift_step(self, t, lam):
        """The s of shift_arg(z, t) = z s: x -> x + i t gamma is z -> z q^{-t} (gamma = log q)."""
        return lam.scalars.q_power(-Fraction(t), lam.q)

    def shift_arg(self, u, t, lam):
        return u * self.shift_step(t, lam)

    @staticmethod
    def shift_factors(factors, s):
        return [(c0, c1 * s) for c0, c1 in factors]

    def gamma_value(self, lam):
        return mp.log(mp.mpf(mp.re(mp.mpc(lam.q))))

    def energy(self, n, lam):
        sc = lam.scalars
        q = lam.q
        qn = q ** n
        q_mn = sc.one / qn
        return (q_mn - sc.one) * (sc.one - lam.b4() * qn / q)

    def etilde(self, vtype, v, lam):
        own, other = self._own_other(vtype, lam.a)
        sc = lam.scalars
        qv = lam.q ** v
        q_mv1 = sc.one / (qv * lam.q)
        return -(sc.one - own * q_mv1) * (sc.one - other * qv)

    def _reflect(self, x, lam):
        return lam.q / x

    def alpha(self, vtype, lam):
        return self._own_other(vtype, lam.a)[0] / lam.q

    def apply_shift_vec(self, lam, vec):
        sc = lam.scalars
        return lam.with_a(tuple(ai * sc.q_power(f, lam.q) for ai, f in zip(lam.a, vec)))

    def x_bounds(self, lam):
        return (mp.mpf(0), mp.pi)

    def recover_x(self, eta, tie=0):
        """acos(eta), Re x in [0, pi], but where Re x is nearer than tie to an end e (0 or pi)
        the twin 2e - x with Im x >= 0: a real eta's x does not take the sign of its noise.
        At tie = 0 it is the principal acos, as arg_of_eta."""
        x = mp.acos(mp.mpc(eta))
        end = 0 if abs(mp.re(x)) < tie else mp.pi if abs(mp.re(x) - mp.pi) < tie else None
        return 2 * end - x if end is not None and mp.im(x) < 0 else x

    def arg_of_eta(self, eta):
        """z = e^{i acos eta} = eta + s, s = i sqrt(1 - eta^2), or 1 / (eta - s) where that sum
        cancels: |eta + s|^2 - |eta - s|^2 = 4 Re(conj(eta) s)."""
        s = mp.mpc(0, 1) * mp.sqrt(1 - eta * eta)
        return eta + s if eta.real * s.real + eta.imag * s.imag >= 0 else 1 / (eta - s)

    def sample_args(self, count, lam, salt):
        j = jitter(salt)
        lo, hi = mp.mpf("0.17"), mp.pi - mp.mpf("0.19")
        return [mp.exp(1j * (lo + (hi - lo) * (s + mp.mpf(0.3) + mp.mpf(0.4) * j) / count))
                for s in range(count)]

    def exact_sample_args(self, count, lam):
        return [lam.scalars.from_fraction(Fraction(s + 2, 1)) + lam.scalars.from_fraction(Fraction(1, s + 3))
                for s in range(count)]

    def base_poly(self, n, lam, sc, run=None) -> BaseRun:
        """Askey-Wilson p_0 .. p_n(eta) (eta = cos x, Askey-scheme normalization), KLS (14.1.4)."""
        (a, b, c, d), q, s = lam.a, lam.q, lam.b4()
        ia = _quo(1, a)

        def step(k, r, e, f):
            qk, qm = q ** k, q ** (k - 1)
            up = r * e * (1 - a * b * qk) * (1 - a * c * qk) * (1 - a * d * qk) * ia    # KLS A_k
            down = f * a * (1 - qk) * (1 - b * c * qm) * (1 - b * d * qm) * (1 - c * d * qm)
            return (r * e / 2, (a + ia - up - down) / 2,
                    down * (1 - a * b * qm) * (1 - a * c * qm) * (1 - a * d * qm) * ia / 2)
        return recurrence_run(n, lambda m: 1 - s * q ** (m - 1), step, sc, run)

    def _h_over_h0(self, n, lam):
        a = lam.a
        sc = lam.scalars
        q = lam.q
        b4 = lam.b4()
        num = q_pochhammer(b4 * q ** (n - 1), q, n) * q_pochhammer(q, q, n)
        for i in range(4):
            for j in range(i + 1, 4):
                num = num * q_pochhammer(a[i] * a[j], q, n)
        return num / q_pochhammer(b4, q, 2 * n)

    def phi0_sq(self, x, lam):
        a = [mp.mpc(v) for v in lam.a]
        q = mp.mpc(lam.q)
        z = mp.exp(1j * mp.mpc(x))
        num = _qp_inf(z * z, q) * _qp_inf(1 / (z * z), q)
        den = mp.mpf(1)
        for ai in a:
            den *= _qp_inf(ai * z, q) * _qp_inf(ai / z, q)
        return num / den


FAMILIES = {"ch": ContinuousHahn(), "w": Wilson(), "aw": AskeyWilson()}


# -- parameter construction -----------------------------------------------------


def params_from_values(family: str, a_vals, q_val=None, mode: str = "physical",
                       backend: str = "float", bits: int = 256) -> ParamSet:
    """Build a ParamSet from (re, im) pairs of numbers/decimal strings, each read as the
    rational it spells.  Float parameters are converted at 2 bits + 32, the working
    precision of the top rung of the CLI's precision ladder."""
    qf = None if family != "aw" or q_val is None else fraction_from_decimal(str(q_val))
    if qf == 0:
        raise ValueError("AW needs q != 0")
    sc = ExactScalars(qf) if backend == "exact" else MPScalars()
    with workbits(2 * bits + 32):
        a = tuple(sc.from_fraction(fraction_from_decimal(str(re)), fraction_from_decimal(str(im)))
                  for re, im in a_vals)
        q = None if qf is None else sc.from_fraction(qf)
    return ParamSet(family, a, q, mode, sc)


def validate_physical(lam: ParamSet, bits: int) -> bool:
    """Check the physical-mode conjugation constraints to PHYSICAL_TOL at 2 bits + 32, as
    params are read."""
    with workbits(2 * bits + 32):
        a = [mp.mpc(lam.scalars.to_mpc(x)) for x in lam.a]
        if lam.family == "ch":
            return (abs(a[2] - mp.conj(a[0])) <= PHYSICAL_TOL * (1 + abs(a[0]))
                    and abs(a[3] - mp.conj(a[1])) <= PHYSICAL_TOL * (1 + abs(a[1]))
                    and all(mp.re(x) > 0 for x in a))
        conj_set = sorted((mp.conj(x) for x in a), key=lambda z: (mp.re(z), mp.im(z)))
        orig = sorted(a, key=lambda z: (mp.re(z), mp.im(z)))
        ok = all(abs(u - v) <= PHYSICAL_TOL * (1 + abs(u)) for u, v in zip(conj_set, orig))
        if lam.family == "aw":
            q = mp.mpc(lam.scalars.to_mpc(lam.q))
            ok = ok and abs(mp.im(q)) <= PHYSICAL_TOL and 0 < mp.re(q) < 1
        return ok


def draw_params(family: str, mode: str, seed: int) -> ParamSet:
    """Deterministic random parameter draw with virtual-state margins for d_j <= DRAW_DMAX."""
    rng = random.Random(f"{family}|{mode}|{seed}")
    sc = MPScalars()

    def u(lo, hi):
        return lo + (hi - lo) * rng.random()

    if family == "ch":
        need = (DRAW_DMAX + 1) / 2 + 0.35
        if mode == "physical":
            r1, r2 = u(need, need + 1.0), u(need, need + 1.2)
            v1, v2 = u(0.15, 0.8), u(0.15, 0.9)
            a = (mp.mpc(r1, v1), mp.mpc(r2, v2), mp.mpc(r1, -v1), mp.mpc(r2, -v2))
        else:
            a = tuple(mp.mpc(u(need, need + 1.2), u(-0.9, 0.9)) for _ in range(4))
        return ParamSet("ch", a, None, mode, sc)
    if family == "w":
        need = (DRAW_DMAX + 1) / 2 + 0.3
        if mode == "physical":
            a1, a2 = u(need, need + 0.9), u(need, need + 1.1)
            r, v = u(need, need + 0.8), u(0.2, 0.9)
            a = (mp.mpc(a1), mp.mpc(a2), mp.mpc(r, v), mp.mpc(r, -v))
        else:
            a = tuple(mp.mpc(u(need, need + 1.0), u(-0.8, 0.8)) for _ in range(4))
        return ParamSet("w", a, None, mode, sc)
    if family == "aw":
        q = u(0.32, 0.52)
        if mode == "physical":
            # virtual-state margins in q-space: a1 a2 < q^{v+1} and a3 a4 < q^{v+1}
            # for v <= DRAW_DMAX, i.e. exponents mu with mu_1 + mu_2 > DRAW_DMAX + 1
            need = (DRAW_DMAX + 1) / 2 + 0.2
            m1, m2 = u(need, need + 0.6), u(need, need + 0.7)
            m3, th = u(need, need + 0.6), u(0.35, 1.2)
            a = (mp.mpf(q) ** m1, mp.mpf(q) ** m2,
                 mp.mpf(q) ** m3 * mp.exp(1j * th), mp.mpf(q) ** m3 * mp.exp(-1j * th))
            return ParamSet("aw", a, mp.mpc(q), mode, sc)
        a = tuple(mp.mpc(u(0.55, 0.95), u(-0.25, 0.25)) for _ in range(4))
        return ParamSet("aw", a, mp.mpc(q, u(-0.04, 0.04)), mode, sc)
    raise ValueError(f"unknown family {family!r}")
