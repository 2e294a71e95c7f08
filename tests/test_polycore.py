"""Polynomial layer, dense solvers and the scalar-backend interface under them."""

import ast
import pathlib
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import pytest

import casoratia
from casoratia.exact import ExactScalars
from casoratia.families import FAMILIES, draw_params, params_from_values
from casoratia.miop import Builder, PrefactorResidue, _shape_invariance_defect, _vanishing
from casoratia.numkernel import MPScalars, workbits
from casoratia.polycore import (Poly, det_dense, lagrange_numerator, ladder_points, lstsq_dense,
                                pivot_row, solve_dense, times_linear)
from cofactor_oracle import last_column_cofactors

AW_EXACT = [("1/10", "0"), ("2/15", "0"), ("1/8", "1/16"), ("1/8", "-1/16")]


def _aw_params(backend):
    """AW parameters, so the exact backend runs in Q(i, sqrt(q))."""
    if backend == "exact":
        return params_from_values("aw", AW_EXACT, "2/5", mode="physical", backend="exact")
    return draw_params("aw", "physical", seed=3)


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_last_column_cofactors(backend):
    """sum_j C_j y_j is det[block | y] for n = 1..4, including a singular block."""
    with workbits(192):
        sc = _aw_params(backend).scalars
        vals = [sc.from_fraction(Fraction(3 * k * k % 11 - 5, k + 2), Fraction(k % 3 - 1, 7))
                for k in range(40)]
        for n in range(1, 5):
            block = [[vals[(n * 7 + 5 * j + 3 * c) % 40] for c in range(n - 1)] for j in range(n)]
            if n == 4:
                cases = [block, [row[:2] + [row[0] + row[1]] for row in block]]
            else:
                cases = [block]
            for blk in cases:
                cof = last_column_cofactors(blk, sc)
                for y in ([vals[(n + j) % 40] for j in range(n)], [sc.one] * n):
                    got = sc.zero
                    for c, yj in zip(cof, y):
                        got = got + c * yj
                    want = det_dense([row + [yj] for row, yj in zip(blk, y)], sc)
                    if backend == "exact":
                        assert got == want
                    else:
                        assert abs(got - want) <= mp.mpf(2) ** -170 * (1 + abs(want))


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_backend_interface_and_dense_routines(backend):
    exact = backend == "exact"
    with workbits(192):
        lam = _aw_params(backend)
        sc = lam.scalars
        tol = mp.mpf(2) ** -150

        def num(k):
            return sc.from_fraction(Fraction(k))

        def poly(*cs):
            return Poly([num(c) for c in cs], sc)

        def same(x, y):
            if exact:
                return (x - y).is_zero()
            return abs(x - y) <= tol * (1 + abs(y))

        def same_poly(p, r):
            return len(p.coeffs) == len(r.coeffs) and all(map(same, p.coeffs, r.coeffs))

        # the linear-factor step, the Lagrange numerator, evaluation, derivative
        p = poly(1, 2)
        pr = Poly(times_linear(p.coeffs, num(3)), sc)     # (1 + 2v)(v - 3)
        assert same_poly(pr, poly(-3, -5, 2))
        assert same_poly(Poly(lagrange_numerator([num(1), num(3), num(-2)], 1, sc.one), sc),
                         poly(-2, 1, 1))
        assert same(p(num(2)), num(5)) and same_poly(pr.derivative(), poly(-5, 4))
        # trim drops exact zeros only, on both backends: a tiny coefficient stays
        assert poly(1, 2, 0, 0).degree == 1 and poly(0, 0).degree == 0
        tiny = poly(1, 2, Fraction(1, 2 ** 190))
        assert tiny.degree == 2 and sc.is_zero(tiny.lead() - num(Fraction(1, 2 ** 190)))

        # pivot choice on the magnitudes: the largest |x| in floats, the first
        # nonzero in exact arithmetic; exact zero factors are skipped on both
        col = [[num(0)], [num(1)], [num(-3)]]
        assert pivot_row(col, 0, sc) == (1 if exact else 2)
        assert pivot_row([[num(0)], [num(0)]], 0, sc) is None
        assert sc.is_zero(num(0)) and not sc.is_zero(num(1))
        assert same_poly(Poly(times_linear(poly(0, 0, 3).coeffs, num(0)), sc), poly(0, 0, 0, 3))
        # dense routines: the first pivot must move a row
        a = [[num(v) for v in row] for row in ([0, 1, 2], [1, 0, 3], [4, -3, 8])]
        assert same(det_dense(a, sc), num(-2))
        assert sc.is_zero(det_dense([[num(1), num(2)], [num(2), num(4)]], sc))
        x = [num(1), sc.i, num(Fraction(-1, 3))]
        b = [sum((ai * xi for ai, xi in zip(row, x)), sc.zero) for row in a]
        assert all(map(same, solve_dense(a, b, sc), x))
        with pytest.raises(ZeroDivisionError):
            solve_dense([[num(1), num(2)], [num(2), num(4)]], [num(1), num(1)], sc)
        tall = a + [[num(1), num(1), num(1)]]
        assert all(map(same, lstsq_dense(tall, b + [sum(x, sc.zero)], sc), x))

        # extraction: 5 unknowns get 5 fit nodes exact and 8 (a power of two) in floats,
        # then 4 held-out nodes, all distinct; 1 + 2e + e^2 back from the fit nodes, at
        # degree 2 and as the low coefficients at degree 4, where the inverse DFT also
        # gives the vanishing coefficients up to 7
        ids, node = sc.extraction_nodes(FAMILIES["aw"], lam, 5, "salt", 0)
        us, etas = zip(*map(node, ids))
        fit = 5 if exact else 8
        assert len(us) == len(etas) == fit + 4
        assert all(not sc.is_zero(e - f) for i, e in enumerate(etas) for f in etas[:i])
        coeffs = sc.interpolator(etas[:fit])
        vals = [poly(1, 2, 1)(e) for e in etas[:fit]]
        want = [num(1), num(2), num(1)] + [num(0)] * 5
        assert len(coeffs(vals, 2)) == (3 if exact else 8) and all(map(same, coeffs(vals, 2), want))
        assert len(coeffs(vals, 4)) == fit and all(map(same, coeffs(vals, 4), want))
        # the gates, each one comparison of magnitudes: height, the node rotation
        # test, the pole test, the held-out residual (tolerance 2^-144 at 192 bits)
        # and the shape defect
        gate = mp.mpf(2) ** -144
        assert poly(0, 0).height == 0 and poly(0, -4).height == (1 if exact else 4)
        assert _vanishing(sc, [num(1), num(0), num(2), num(3)], 192)
        assert not _vanishing(sc, [num(1), num(2), num(3)], 192)
        assert sc.magnitude(num(0)) < gate <= sc.magnitude(num(1))
        b = Builder(lam, 192)
        b._residual_gate("extraction held-out", [(num(2), num(5), num(5))], 2, 1)
        with pytest.raises(PrefactorResidue, match="extraction held-out residual"):
            b._residual_gate("extraction held-out",
                             [(num(2), num(5), num(Fraction(5001, 1000)))], 2, 1)

        def defect(p0, xs):
            return _shape_invariance_defect(SimpleNamespace(lam=lam, P={0: p0}, xi_shift=xs))
        assert defect(poly(1, 2), poly(2, 4)) == 0 and defect(poly(1, 2), poly(2, 5)) > gate
        # AW's q**t and the sample points
        half = sc.q_power(Fraction(1, 2), lam.q)
        assert same(half * half, lam.q) and same(sc.q_power(-1, lam.q) * lam.q, sc.one)
        us = sc.sample_args(FAMILIES["aw"], 4, lam, "salt")
        assert len(us) == 4 and all(not sc.is_zero(u - v) for u, v in zip(us, us[1:]))


def test_backends_expose_the_same_interface():
    """MPScalars and ExactScalars answer the same questions, by the same public names.
    Every gate goes through magnitude, so neither backend has a gate hook, and neither
    carries a precision or a trim threshold: an instance adds only the exact q."""
    def public(obj):
        return {n for n in dir(obj) if not n.startswith("_")}

    assert public(MPScalars) == {
        "name", "zero", "one", "i", "from_int", "from_fraction", "is_zero",
        "magnitude", "to_mpc", "q_power", "sample_args", "extraction_nodes",
        "interpolator", "horner", "cofactor_row", "affine_ratios", "ladder_frames",
        "htilde_frames", "stencil_residual"}
    assert public(ExactScalars) == public(MPScalars) == public(MPScalars())
    assert public(ExactScalars(Fraction(2, 5))) == public(MPScalars) | {"q"}


def test_backends_share_one_kernel_set():
    """Neither backend defines a per-point kernel of its own: both take horner ...
    cofactor_row from numkernel.ScalarKernels and give only their arithmetic."""
    from casoratia.numkernel import ScalarKernels

    kernels = ("horner", "affine_ratios", "ladder_frames", "htilde_frames", "stencil_residual",
               "cofactor_row")
    for backend in (MPScalars, ExactScalars):
        assert issubclass(backend, ScalarKernels)
        for name in kernels:
            assert name not in vars(backend), (backend.__name__, name)
            assert getattr(backend, name) is vars(ScalarKernels)[name]


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_times_linear_and_lagrange_numerator_expand_the_products(backend):
    """(v - c) p and prod_{l != j} (v - r_l) equal the products expanded by convolution:
    exactly on the exact backend, within 2^-(bits - 8) of the height in floats."""
    bits = 192
    with workbits(bits):
        sc = _aw_params(backend).scalars

        def num(k, im=0):
            return sc.from_fraction(Fraction(k), Fraction(im))

        def expand(factors):
            out = [sc.one]
            for f in factors:
                prod = [sc.zero] * (len(out) + len(f) - 1)
                for i, a in enumerate(out):
                    for k, b in enumerate(f):
                        prod[i + k] = prod[i + k] + a * b
                out = prod
            return out

        def check(got, want):
            assert len(got) == len(want)
            if backend == "exact":
                assert got == want
            else:
                height = max(map(abs, want))
                err = max(abs(x - y) for x, y in zip(got, want))
                assert err <= mp.mpf(2) ** (8 - bits) * height

        p = [num(Fraction(3 * k % 7 - 3, k + 2), Fraction(k % 3 - 1, 5)) for k in range(6)]
        roots = [num(Fraction(2 * k - 5, 3), Fraction(k % 4 - 2, 7)) for k in range(6)]
        for c in roots:
            check(times_linear(p, c), expand([p, [-c, sc.one]]))
        for j in range(len(roots)):
            check(lagrange_numerator(roots, j, sc.one),
                  expand([[-r, sc.one] for l, r in enumerate(roots) if l != j]))


def test_poly_has_no_ring_arithmetic():
    """A Poly keeps its coefficients, height, trim/degree/lead, Horner evaluator and
    derivative; every product the package multiplies out goes through times_linear."""
    for name in ("const", "__add__", "__sub__", "__neg__", "__mul__", "scale", "divmod"):
        assert not hasattr(Poly, name), name


def test_construction_path_has_no_backend_name_test():
    """miop, polycore, families and identities ask the scalar backend, not its name.

    The one name test left in identities is the entry guard of chain_identity_exact.
    """
    root = pathlib.Path(casoratia.__file__).parent
    allowed = {"miop.py": [], "polycore.py": [], "families.py": [],
               "identities.py": ["chain_identity_exact"]}
    for mod, want in allowed.items():
        tree = ast.parse((root / mod).read_text())
        hits = [(getattr(top, "name", None), node.lineno)
                for top in tree.body for node in ast.walk(top)
                if isinstance(node, ast.Compare)
                and any(isinstance(x, ast.Attribute) and x.attr == "name"
                        for x in [node.left, *node.comparators])]
        assert [name for name, _ in hits] == want, f"{mod} compares a backend name: {hits}"


def test_ladder_points():
    assert ladder_points(2) == [Fraction(1, 2), Fraction(-1, 2)]
    assert ladder_points(3) == [1, 0, -1]
