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
    """The inverse FFT of MPScalars.interpolator on loaded values, for K = 1, 2, 4, ..., 64
    fit nodes at 128, 256 and 512 bits: a random polynomial of degree K - 1 comes back
    from its values at the K nodes eta_0 o^r(k) (o = e^{2 pi i / K}, r(k) the bit
    reversal of k, eta_0 the first extraction node), loaded, to 2^-(bits-16) of its
    height.  The values are taken at 2 bits + 64 bits, so that only the transform's own
    rounding counts: rounding the nodes to bits + 32 bits alone moves a degree-63
    polynomial on the circle |eta| = 2 by about 2^(37-bits) of its height."""
    import random

    from casoratia.families import FAMILIES, draw_params
    from casoratia.numkernel import (GUARD_BITS, HELD_OUT, HELD_RADIUS, NODE_RADIUS,
                                     _van_der_corput, gload, gstore)
    from casoratia.polycore import Poly

    rng = random.Random(15)
    for bits in (128, 256, 512):
        w = bits + 32 + GUARD_BITS
        with workbits(bits + 32):
            for tag in ("ch", "w", "aw"):
                lam = draw_params(tag, "generic", seed=5)
                sc, fam = lam.scalars, FAMILIES[tag]
                for K in (1, 2, 4, 8, 16, 32, 64):
                    want = [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(K)]
                    ids, node = sc.extraction_nodes(fam, lam, K, "dft", 0)
                    us, etas = zip(*map(node, ids))
                    # the fit nodes lie on the fit circle, the held-out ones on theirs,
                    # and the sample args map back onto them
                    assert len(etas) == K + HELD_OUT
                    for k, (u, e) in enumerate(zip(us, etas)):
                        radius = NODE_RADIUS if k < K else HELD_RADIUS
                        assert abs(abs(e) - radius) <= mp.mpf(2) ** -bits
                        assert abs(fam.eta_at(u, lam) - e) <= mp.mpf(2) ** -bits
                    with workbits(2 * bits + 64):
                        vals = []
                        for k in range(K):
                            v = _van_der_corput(k)
                            x = etas[0] * mp.expjpi(mp.mpf(2 * v.numerator) / v.denominator)
                            vals.append(gload(mp.polyval(want[::-1], x), w))
                    got = sc.interpolator([gload(e, w) for e in etas[:K]])(vals, K - 1)
                    assert len(got) == K and all(type(g) is tuple for g in got)
                    err = max(abs(gstore(g, bits + 32) - x) for g, x in zip(got, want))
                    assert err <= mp.mpf(2) ** -(bits - 16) * max(map(abs, want)), (tag, K)
                # eta^32 is constant on the 16 fit nodes and aliases onto the constant
                # coefficient; every held-out node still sees it
                ids, node = sc.extraction_nodes(fam, lam, 16, "dft", 0)
                etas = [node(k)[1] for k in ids]
                p = Poly([mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(16)],
                         sc)
                bad = [gload(p(e) + e ** 32, w) for e in etas]
                fitted = sc.interpolator([gload(e, w) for e in etas[:16]])(bad[:16], 15)
                fitted = Poly([gstore(c, bits + 32) for c in fitted], sc)
                for e, v in zip(etas[16:], bad[16:]):
                    assert abs(fitted(e) - gstore(v, bits + 32)) > abs(e) ** 31
    with workbits(288):
        for tag in ("ch", "w", "aw"):
            lam = draw_params(tag, "generic", seed=5)
            sc, fam = lam.scalars, FAMILIES[tag]
            # few fit unknowns: 1, 2, 4 and 4 fit nodes, and all nodes stay apart
            for fit in (1, 2, 3, 4):
                ids, node = sc.extraction_nodes(fam, lam, fit, "few", 0)
                etas = [node(k)[1] for k in ids]
                assert len(etas) == (1, 2, 4, 4)[fit - 1] + HELD_OUT
                gaps = [abs(e - f) for i, e in enumerate(etas) for f in etas[:i]]
                assert min(gaps) > mp.mpf("0.1")


# -- the Gaussian-float kernels against the mpc oracle -----------------------------------


def _full(rng, bits):
    """A real in [-1, 1) with a full bits-bit mantissa (no exact short products)."""
    return mp.mpf(rng.getrandbits(bits) - 2 ** (bits - 1)) / 2 ** (bits - 1)


def _mpc_horner(coeffs, v):
    out = mp.mpc(0)
    for c in reversed(coeffs):
        out = out * v + c
    return out


def test_horner_kernel_matches_mpc_oracle():
    """Degrees 0-20, coefficients spread over 2^+-200, |v| from 2^-60 to 2^60 and v = 0,
    int, mpf and mpc points, and degrees 40 and 64 at |v| = 1, where every term has the
    same size and the rounding errors of all steps add up: within 2^(-bits+16) of
    sum_k |c_k| |v|^k."""
    import random

    from casoratia.numkernel import MPScalars

    bits = 288
    rng = random.Random(7)
    sc = MPScalars()
    cases = []
    with workbits(bits):
        for deg in range(21):
            coeffs = [mp.mpc(_full(rng, bits), _full(rng, bits)) * mp.mpf(2) ** rng.randint(-200, 200)
                      for _ in range(deg + 1)]
            points = [0, mp.mpf(0), 3, -1, mp.mpf(-5) / 7]
            for e in (-60, -31, -1, 0, 1, 17, 60):
                points.append(mp.mpc(_full(rng, bits), _full(rng, bits)) * mp.mpf(2) ** e)
                points.append(_full(rng, bits) * mp.mpf(2) ** e)
                points.append(mp.mpc(0, _full(rng, bits)) * mp.mpf(2) ** e)
            cases.append((coeffs, points))
        for deg in (40, 64):
            coeffs = [mp.mpc(_full(rng, bits), _full(rng, bits)) for _ in range(deg + 1)]
            cases.append((coeffs, [1, -1, mp.mpf(-1), mp.mpc(0, 1), mp.mpc(0, -1)]))
        for coeffs, points in cases:
            value = sc.horner(coeffs)
            for v in points:
                got = value(v)
                assert isinstance(got, mp.mpc)
                with workbits(4 * bits):
                    want = _mpc_horner(coeffs, v)
                    size = sum(abs(c) * abs(mp.mpc(v)) ** k for k, c in enumerate(coeffs))
                    assert abs(got - want) <= mp.mpf(2) ** (-bits + 16) * size, (len(coeffs), v)


def test_horner_kernel_rejects_non_finite_values():
    """An inf or nan coefficient, point, eta or row weight raises ValueError; it never
    reads as 0."""
    import pytest

    from casoratia.numkernel import MPScalars
    from casoratia.polycore import Poly

    sc = MPScalars()
    with workbits(256):
        for bad in (mp.inf, -mp.inf, mp.nan, mp.mpc(1, mp.inf)):
            with pytest.raises(ValueError):
                sc.horner([mp.mpc(1), bad, mp.mpc(2)])(mp.mpc(1, 1))
            with pytest.raises(ValueError):
                sc.horner([mp.mpc(1), mp.mpc(2)])(bad)
            one, ok, off = Poly([mp.mpc(1)], sc), [mp.mpc(1), mp.mpc(3)], [mp.mpc(1), bad]
            for etas, weights, last in ((off, ok, ok), (ok, off, ok), (ok, ok, off)):
                with pytest.raises(ValueError):
                    _cofactor_row(sc, etas, [(one, weights)], last, 1)(one)


def _cofactor_row(sc, etas, head, last, turns):
    """sc.cofactor_row on mpc etas and row weights, loaded as a ladder frame keeps them
    (MPScalars.ladder_frames), as the reader p -> the row at the values of the Poly p, stored
    at the precision current where it is read.  A
    column's values are the Horner kernel's at the loaded etas, at the precision current
    where they are taken: the head columns' when the row is made, p's when it is read."""
    from casoratia.numkernel import GUARD_BITS, gload, gstore

    def load(xs):
        return [gload(x, mp.mp.prec + GUARD_BITS) for x in xs]

    def values(p):
        ev, w = p.evaluator(), mp.mp.prec + GUARD_BITS
        return [ev.fixed(x, w) for x in xs]

    xs = load(etas)
    row = sc.cofactor_row([(values(p), load(ws)) for p, ws in head], load(last), turns)
    return lambda p: gstore(row(values(p)), mp.mp.prec)


def _cofactors_of_row(sc, block):
    """The cofactors C_j of the last column of [block | y] from the kernel's Laplace
    recursion: a cofactor_row with constant head polynomials 1 whose row weights
    are the block's columns, no phase, read at the constant 1 with the last row weights
    the unit vector e_j."""
    from casoratia.polycore import Poly

    n, one = len(block), Poly([mp.mpc(1)], sc)
    head = [(one, [row[k] for row in block]) for k in range(n - 1)]
    etas = [mp.mpc(j + 1) for j in range(n)]
    return [_cofactor_row(sc, etas, head, [mp.mpc(j == i) for i in range(n)], 0)(one)
            for j in range(n)]


def test_cofactor_kernel_matches_mpc_oracle():
    """The Laplace recursion of cofactor_row, n = 1..5, rows and columns scaled by
    2^+-200, a zero row and a singular block: each C_j within 2^(-bits+16) of the largest
    cofactor of last_column_cofactors, and sum_j C_j y_j within as much of det_dense."""
    import random

    from casoratia.numkernel import MPScalars
    from casoratia.polycore import det_dense
    from cofactor_oracle import last_column_cofactors

    bits = 288
    rng = random.Random(11)
    sc = MPScalars()
    tol = mp.mpf(2) ** (-bits + 16)

    def entry():
        return mp.mpc(_full(rng, bits), _full(rng, bits))

    with workbits(bits):
        for n in range(1, 6):
            for trial in range(4):
                rows = [rng.randint(-200, 200) for _ in range(n)]
                cols = [rng.randint(-200, 200) for _ in range(n - 1)]
                block = [[entry() * mp.mpf(2) ** (r + c) for c in cols] for r in rows]
                y = [entry() * mp.mpf(2) ** r for r in rows]
                if trial == 1 and n > 1:
                    block[n // 2] = [mp.mpc(0)] * (n - 1)
                got = _cofactors_of_row(sc, block)
                with workbits(4 * bits):
                    want = last_column_cofactors(block, sc)
                    top = max(abs(w) for w in want)
                    assert all(abs(g - w) <= tol * top for g, w in zip(got, want)), (n, trial)
                    det = sum((g * yj for g, yj in zip(got, y)), mp.mpc(0))
                    size = sum(abs(w) * abs(yj) for w, yj in zip(want, y))
                    want_det = det_dense([row + [yj] for row, yj in zip(block, y)], sc)
                    assert abs(det - want_det) <= tol * size, (n, trial)
            if n >= 3:
                # a singular block: the last column is a combination of the others, so
                # every cofactor vanishes to within the Hadamard bound of its minors
                block = [[entry() * mp.mpf(2) ** c for c in cols] for _ in range(n)]
                w = [entry() for _ in range(n - 2)]
                for row in block:
                    row[-1] = sum((x * wk for x, wk in zip(row, w)), mp.mpc(0))
                got = _cofactors_of_row(sc, block)
                with workbits(4 * bits):
                    hadamard = 1
                    for k in range(n - 1):
                        hadamard *= mp.sqrt(sum(abs(row[k]) ** 2 for row in block))
                    assert max(abs(g) for g in got) <= tol * hadamard


def _oracle_row(head, etas, last, turns, p):
    """sum_j C_j i^turns v_j p(eta_j) in mpc at the ambient precision, C_j the
    last_column_cofactors of the block [w_j p_k(eta_j)], and the scale of its Laplace
    terms: sum_j |v_j| s_p(eta_j) perm(|minor_j|), with s_q(eta) = sum_m |q_m| |eta|^m and
    minor_j the block of entries |w_i| s_{p_k}(eta_i) without row j."""
    from itertools import permutations

    from casoratia.numkernel import MPScalars
    from cofactor_oracle import last_column_cofactors

    def size(q, eta):
        return sum(abs(c) * abs(eta) ** m for m, c in enumerate(q.coeffs))

    def perm(rows):
        return mp.fsum(mp.fprod(row[k] for row, k in zip(rows, ks))
                       for ks in permutations(range(len(rows))))

    block = [[ws[j] * _mpc_horner(q.coeffs, eta) for q, ws in head] for j, eta in enumerate(etas)]
    mags = [[abs(ws[j]) * size(q, eta) for q, ws in head] for j, eta in enumerate(etas)]
    value = mp.fsum(c * mp.mpc(0, 1) ** turns * v * _mpc_horner(p.coeffs, eta) for c, v, eta
                    in zip(last_column_cofactors(block, MPScalars()), last, etas))
    scale = mp.fsum(abs(v) * size(p, eta) * perm(mags[:j] + mags[j + 1:])
                    for j, (v, eta) in enumerate(zip(last, etas)))
    return value, scale


def test_cofactor_row_matches_mpc_oracle():
    """cofactor_row at 256 and 512 bits on random frames of 1-4 rows: head polynomials of
    degree 0-4, row weights, etas and coefficients of magnitudes 2^+-200, a zero head entry
    and a zero last polynomial.  row(p) is within 2^(-bits+16) of the oracle at 1100 bits,
    relative to the magnitudes of its Laplace terms (_oracle_row); the zero polynomial
    gives 0."""
    import random

    from casoratia.numkernel import MPScalars
    from casoratia.polycore import Poly

    rng = random.Random(17)
    for bits in (256, 512):
        sc = MPScalars()
        with workbits(bits):
            for trial in range(24):
                n = 1 + trial % 4

                def poly():
                    return Poly([_random_gaussian(rng, bits) for _ in range(rng.randint(1, 5))],
                                sc)
                etas = [_random_gaussian(rng, bits, -50, 50) for _ in range(n)]
                head = [(poly(), [_random_gaussian(rng, bits) for _ in range(n)])
                        for _ in range(n - 1)]
                last = [_random_gaussian(rng, bits) for _ in range(n)]
                if trial % 3 == 1 and n > 1:
                    head[rng.randrange(n - 1)][1][rng.randrange(n)] = mp.mpc(0)
                turns = rng.randrange(6)
                row = _cofactor_row(sc, etas, head, last, turns)
                assert row(Poly([mp.mpc(0)], sc)) == 0
                for p in (poly(), poly()):
                    got = row(p)
                    assert isinstance(got, mp.mpc)
                    with workbits(1100):
                        want, bound = _oracle_row(head, etas, last, turns, p)
                        assert abs(got - want) <= mp.mpf(2) ** (-bits + 16) * bound, (bits, n)


def test_cofactor_row_rounds_at_the_readers_precision():
    """A row made at 256 bits and read under 128 and 640 bits rounds once, at the reader's
    precision: both parts fit in the reader's bits, the 640-bit value carries more bits
    than the row's 256 + GUARD_BITS, and each is as close to the oracle as its precision
    and the row's allow."""
    import random

    from casoratia.numkernel import GUARD_BITS, MPScalars
    from casoratia.polycore import Poly

    rng = random.Random(23)
    sc = MPScalars()
    with workbits(256):
        etas = [_random_gaussian(rng, 256, -4, 4) for _ in range(3)]
        head = [(Poly([_random_gaussian(rng, 256, -4, 4) for _ in range(3)], sc),
                 [_random_gaussian(rng, 256, -4, 4) for _ in range(3)]) for _ in range(2)]
        last = [_random_gaussian(rng, 256, -4, 4) for _ in range(3)]
        row = _cofactor_row(sc, etas, head, last, 3)
        p = Poly([_random_gaussian(rng, 256, -4, 4) for _ in range(4)], sc)
    wide = 0
    for reader in (128, 640):
        with workbits(reader):
            got = row(p)
        with workbits(1100):
            want, bound = _oracle_row(head, etas, last, 3, p)
        for part in got._mpc_:
            assert part[3] <= reader
            wide = max(wide, part[3])
        tol = mp.mpf(2) ** (-min(reader, 256) + 16) * bound
        assert abs(got - want) <= tol + abs(want) * mp.mpf(2) ** (1 - reader)
    assert wide > 256 + GUARD_BITS


def _random_gaussian(rng, bits, lo=-200, hi=200):
    return mp.mpc(_full(rng, bits), _full(rng, bits)) * mp.mpf(2) ** rng.randint(lo, hi)


def test_affine_kernel_matches_mpc_oracle():
    """_Affine.fixed, the affine ratios of the frame kernels, stored at bits, against the
    mpc products of the same factors at 4 x bits: the eta, V and V* factors of cH, W and
    AW at shifted arguments, and random factors, constants and points of magnitudes
    2^+-200, at 256 and 512 bits.  Each value is within 2^(-bits+16) of
    prod_num (|c0| + |c1 u|) / |den| (1 + prod_den (|c0| + |c1 u|) / |den|)."""
    import random

    from casoratia.families import FAMILIES, draw_params
    from casoratia.numkernel import GUARD_BITS, MPScalars, _Affine, gload, gstore

    rng = random.Random(11)
    zero = mp.mpc(0)
    for bits in (256, 512):
        with workbits(bits):
            ratios = []
            for tag, fam in FAMILIES.items():
                lam = draw_params(tag, "generic", 1)
                for t in (0, Fraction(-1, 2), 1):
                    s = fam.shift_step(t, lam)
                    for num, den in (fam.eta_factors(lam), fam.v_factors(lam.a, lam),
                                     fam.v_star_factors(lam.a, lam)):
                        ratios.append((fam.shift_factors(num, s), fam.shift_factors(den, s)))
            for k in range(8):
                ratios.append(([(_random_gaussian(rng, bits), _random_gaussian(rng, bits))
                                for _ in range(1 + k % 4)],
                               [(_random_gaussian(rng, bits), _random_gaussian(rng, bits))
                                for _ in range(k % 3)]))
            ratios.append(([(zero, _random_gaussian(rng, bits)),
                            (_random_gaussian(rng, bits), zero)], []))
            kernel = _Affine(MPScalars(), ratios, bits + GUARD_BITS)
            points = [_random_gaussian(rng, bits, e, e) for e in (-200, -60, 0, 60, 200)]
            points += [mp.mpf("0.75"), mp.expjpi(mp.mpf("0.3")), mp.mpc(0, 2)]
            for u in points:
                got = [gstore(z, bits) for z in kernel.fixed(gload(u, bits + GUARD_BITS))]
                with workbits(4 * bits):
                    for value, (num, den) in zip(got, ratios):
                        n = [c0 + c1 * u for c0, c1 in num]
                        d = [c0 + c1 * u for c0, c1 in den]
                        want = mp.fprod(n) / mp.fprod(d)
                        dval = abs(mp.fprod(d))
                        size = mp.fprod(abs(c0) + abs(c1 * u) for c0, c1 in num) / dval
                        size *= 1 + mp.fprod(abs(c0) + abs(c1 * u) for c0, c1 in den) / dval
                        assert isinstance(value, mp.mpc)
                        assert abs(value - want) <= mp.mpf(2) ** (-bits + 16) * size, (u, num)


def test_stencil_residual_kernel_matches_mpc_oracle():
    """_Frame.residual, at p's Horner values at the frame's points, against
    |s - E p(x_0)| / (|s| + |E p(x_0)| + 1), s = sum_k w_k p(x_k), in mpc at 4 x bits,
    for random polynomials, points, weights and E of magnitudes 2^+-200 at 256 and 512
    bits, half of them with w_0 set so that s = E p(x_0) up to rounding, as on an
    eigenpair: within 2^(-bits+16) of the terms' scale over |s| + |E p(x_0)| + 1.
    The points and weights are an H~_D frame's, loaded as Gaussian floats."""
    import random

    from casoratia.numkernel import GUARD_BITS, MPScalars, _Frame, gload
    from casoratia.polycore import Poly

    rng = random.Random(5)
    for bits in (256, 512):
        with workbits(bits):
            sc = MPScalars()
            for trial in range(40):
                coeffs = [_random_gaussian(rng, bits, -60, 60) for _ in range(1 + trial % 7)]
                xs = [_random_gaussian(rng, bits, -4, 4) for _ in range(3)]
                ws = [_random_gaussian(rng, bits) for _ in range(3)]
                E = _random_gaussian(rng, bits)
                if trial % 2:
                    vals = [_mpc_horner(coeffs, x) for x in xs]
                    ws[0] = E - (ws[1] * vals[1] + ws[2] * vals[2]) / vals[0]
                frame = _Frame(tuple(gload(x, bits + GUARD_BITS) for x in xs),
                               tuple(gload(c, bits + GUARD_BITS) for c in ws), (), sc)
                ev = Poly(coeffs, sc).evaluator()
                got = frame.residual([ev.fixed(x, bits + GUARD_BITS) for x in frame.xs], E)
                with workbits(4 * bits):
                    vals = [_mpc_horner(coeffs, x) for x in xs]
                    s = mp.fsum(w * v for w, v in zip(ws, vals))
                    ref = E * vals[0]
                    den = abs(s) + abs(ref) + 1
                    size = sum(abs(w) * sum(abs(c) * abs(x) ** k for k, c in enumerate(coeffs))
                               for w, x in zip(ws, xs))
                    size += abs(E) * sum(abs(c) * abs(xs[0]) ** k for k, c in enumerate(coeffs))
                    assert isinstance(got, mp.mpf)
                    assert abs(got - abs(s - ref) / den) <= mp.mpf(2) ** (-bits + 16) * size / den
