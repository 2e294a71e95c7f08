"""Standalone verification of the supporting identities.

Covers the sinusoidal-coordinate identity, the two forward/backward relations
between multi-indexed polynomials with one or two extra virtual states (whose
mixed-type constant has the closed form mixed_constant), the
prefactor-ratio intermediate identity, classical discrete orthogonality of the
base families, and the slow-path partial-fraction quadrature (the negative
control: the naive integral does not vanish once D is nonempty).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from .dortho import naive_zero_grid
from .families import ParamSet
from .miop import IndexSet, PoleAtSample, apply_htilde, build_miop, get_builder, htilde_frame
from .numkernel import MPScalars, workbits
from .polycore import Poly, lagrange_numerator
from .zeros import find_zeros


# -- Lemma: sinusoidal coordinate identity ---------------------------------------


def check_eta_identity(family_tag: str, a, b, c):
    """|LHS - RHS| of (eta(a-c)-eta(b))(eta(a+c)-eta(b)) = (a <-> b) for the family's eta."""
    if family_tag == "ch":
        def eta(x):
            return x
    elif family_tag == "w":
        def eta(x):
            return x * x
    elif family_tag == "aw":
        def eta(x):
            return mp.cos(x)
    else:
        raise ValueError(family_tag)
    lhs = (eta(a - c) - eta(b)) * (eta(a + c) - eta(b))
    rhs = (eta(b - c) - eta(a)) * (eta(b + c) - eta(a))
    return lhs - rhs


def eta_identity_residual(family_tag: str, a, b, c) -> mp.mpf:
    d = check_eta_identity(family_tag, a, b, c)
    if isinstance(d, (mp.mpf, mp.mpc)):
        return abs(d) / (1 + abs(mp.mpc(a)) + abs(mp.mpc(b)) + abs(mp.mpc(c))) ** 4
    return d  # exact backend: caller checks is_zero


# -- classical discrete orthogonality --------------------------------------------


def classical_discrete_ortho(lam: ParamSet, N: int, bits: int = 256) -> dict:
    """Verify the classical zero-grid orthogonality for the base family: with the weight
    P'_N / P_{N-1} at the zeros of P_N, the Gram diagonal is C_N h_n / h_N."""
    fam = lam.fam
    sc, fsc = lam.scalars, MPScalars()
    run = fam.base_poly(N + 1, lam, sc)   # to N + 1 for C_N, the n = N relation
    # the zero grid is float: exact base polynomials are evaluated through float copies
    polys = [Poly([sc.to_mpc(c) for c in p.coeffs], fsc) for p in run.polys[:N + 1]]
    gram, offd = naive_zero_grid(polys, bits, fam)
    c_N = mp.mpc(sc.to_mpc(run.triples[N][2]))
    diag_err = mp.mpf(0)
    for n in range(N):
        pred = c_N * mp.mpc(sc.to_mpc(fam.h_ratio_base(n, N, lam)))
        diag_err = max(diag_err, abs(gram[n][n] - pred) / abs(pred))
    return {
        "max_offdiag_rel": offd,
        "diag_rel_err": diag_err,
        "C_N": c_N,
        "diag": [gram[n][n] for n in range(N)],
    }


# -- forward/backward identities (two extra virtual states) ------------------------


def _chain_pairs(lam: ParamSet, D: IndexSet, dprime, dprime2, n: int, count: int,
                 bits: int = 256, constant=None):
    """Yield (lhs, rhs, constant) of a chain identity at the admissible samples.

    dprime / dprime2 are (degree, type); `count` candidate points are drawn
    and those at a pole are skipped.  Same types, with D' = D + d' and
    D'' = D + d'':
        lhs = (E_n - Et') (Xi_D' ratio sum over Xi_D'') P_{D'',n},
        rhs = (H~_{D''} + E_n - Et' - Et'') P_{D',n},
    and constant is None.  Mixed types, with D3 = D + d' + d'':
        lhs = C (Xi_D ratio sum over Xi_D3) P_{D3,n},
        rhs = (H~_{D3} + E_n - Et' - Et'') P_{D,n},
    where C is solved from the first pair when not supplied (the tests hold that
    solve against the closed form mixed_constant).
    """
    fam = lam.fam
    b = get_builder(lam, bits)
    dp, tp = dprime
    dpp, tpp = dprime2
    if (dp, tp) in D.entries or (dpp, tpp) in D.entries or (dp, tp) == (dpp, tpp):
        raise ValueError("d', d'' must be new and distinct")
    E_n = fam.energy(n, lam)
    ev_p = fam.etilde(tp, dp, lam)
    ev_pp = fam.etilde(tpp, dpp, lam)
    if tp == tpp:
        D_small = IndexSet.make(list(D.entries) + [(dp, tp)])
        D_big = IndexSet.make(list(D.entries) + [(dpp, tpp)])
    else:
        # constant kappa^{2M+3/2} sqrt(alpha^I alpha^II) in this repo's units
        D_small = D
        D_big = IndexSet.make(list(D.entries) + [(dp, tp), (dpp, tpp)])
    big = build_miop(lam, D_big, n, bits, check=False)
    xi_small = b.xi(D_small)
    p_small = b.P(D_small, n)
    p_big = b.P(D_big, n)
    for u in lam.scalars.sample_args(fam, count, lam,
                                     f"chain|{D.key()}|{dp}{tp}|{dpp}{tpp}|{n}"):
        try:
            fr = htilde_frame(big, u)
            ratio = xi_small(fr.eta_mh) / fr.xi_mh + xi_small(fr.eta_ph) / fr.xi_ph
            if tp == tpp:
                ratio = (E_n - ev_p) * ratio
            lhs = ratio * p_big(fr.eta)
            pu = p_small(fr.eta)
            rhs = apply_htilde(fr, p_small, pu) + (E_n - ev_p - ev_pp) * pu
        except (PoleAtSample, ZeroDivisionError):
            continue
        if tp != tpp:
            if constant is None:
                constant = rhs / lhs
            lhs = constant * lhs
        yield lhs, rhs, constant


def check_chain_identity(lam: ParamSet, D: IndexSet, dprime, dprime2, n: int,
                 samples: int = 10, bits: int = 256, constant=None) -> dict:
    """Worst relative residual of a chain identity over `samples` admissible points.

    Same types route to the first identity, mixed types to the second, whose
    constant is solved from the first sample when not supplied (_chain_pairs).
    """
    to = lam.scalars.to_mpc
    worst = mp.mpf(0)
    got = 0
    for lhs, rhs, constant in _chain_pairs(lam, D, dprime, dprime2, n, samples * 3, bits,
                                           constant):
        lhs_m, rhs_m = mp.mpc(to(lhs)), mp.mpc(to(rhs))
        worst = max(worst, abs(lhs_m - rhs_m) / (abs(lhs_m) + abs(rhs_m) + 1))
        got += 1
        if got >= samples:
            break
    if dprime[1] == dprime2[1]:
        return {"case": "same-type", "max_residual": worst, "samples": got}
    if not got:
        raise PoleAtSample("no admissible samples for the mixed identity")
    return {"case": "mixed-type", "max_residual": worst, "constant": constant,
            "samples": got}


def chain_identity_exact(lam: ParamSet, D: IndexSet, dprime, dprime2, n: int) -> dict:
    """Exact-backend identity proof by evaluation beyond the degree bound.

    Both sides are rational functions; after clearing the common denominator
    the difference is a polynomial (Laurent polynomial for AW) whose degree /
    width is bounded by the component degrees.  Exact equality at more sample
    points than that bound pins every coefficient of the difference to zero.
    """
    if lam.scalars.name != "exact":
        raise ValueError("chain_identity_exact requires the exact backend")
    lmax = D.ell + dprime[0] + dprime2[0] + 2 * (D.M + 2) + 4
    dx = 1 if lam.family == "ch" else 2
    bound = dx * (8 * lmax + 2 * n) + 48
    checked = 0
    constant = None
    for lhs, rhs, constant in _chain_pairs(lam, D, dprime, dprime2, n, bound + 40):
        if not (lhs - rhs).is_zero():
            return {"exact": False, "points": checked, "bound": bound}
        checked += 1
        if checked > bound:
            break
    return {"exact": checked > bound, "points": checked, "bound": bound,
            "constant": constant}


def mixed_constant(lam: ParamSet, counts):
    """C with C * (Xi-ratio sum) * P_{D''',n} = (H~ + E_n - Et' - Et'') P_{D,n}: a
    closed form in (s1, s2) or (A, B) from Family.type_pair and the type counts
    (m1, m2) of D alone, whatever d', d'' and n, on the ParamSet's own scalars."""
    m1, m2 = counts
    s1, s2 = lam.fam.type_pair(lam.a)
    if lam.family in ("ch", "w"):
        return (s1 - 1 - m1) * (s2 - 1 - m2)
    q = lam.q
    return (lam.scalars.q_power(Fraction(1 + m1 + m2, 2), q)
            * (1 - s1 * q ** (-1 - m1)) * (1 - s2 * q ** (-1 - m2)))


# -- prefactor-ratio intermediate identity ------------------------------------------------


def _nu_ratio_factors(builder, y):
    """Shift ratios of the prefactor functions at the ladder point y (float path)."""
    fam, lam = builder.fam, builder.lam
    aI, alphaI = builder._class_weight_params("I")
    aII, alphaII = builder._class_weight_params("II")
    yp = fam.shift_arg(y, 1, lam)
    vstar = fam.v_star_at(lam.a, y, lam)
    vplus = fam.v_at(lam.a, yp, lam)
    nu = alphaI * fam.v_star_at(aI, y, lam) / mp.sqrt(mp.mpc(vstar) * mp.mpc(vplus))
    rho = (alphaI * fam.v_at(aI, yp, lam)) / (alphaII * fam.v_at(aII, yp, lam))
    tau = (alphaI * fam.v_at(aI, yp, lam)) / fam.v_at(lam.a, yp, lam)
    return mp.mpc(nu), mp.mpc(rho), mp.mpc(tau)


def _gp_shift_ratio(builder, D: IndexSet, n: int, u):
    """g^P_D(x + i gamma) / g^P_D(x) reconstructed from the determinant objects."""
    from .miop import _p_cols
    fam, lam = builder.fam, builder.lam
    R = D.M + 1
    cols = _p_cols(D, n)
    up = fam.shift_arg(u, 1, lam)
    det_u, det_up = builder.det_values(cols, [u, up])
    p = builder.P(D, n)
    p_u = p(fam.eta_at(u, lam))
    p_up = p(fam.eta_at(up, lam))
    from .polycore import ladder_points
    ts = ladder_points(R)
    pts = [fam.shift_arg(u, t, lam) for t in ts]
    aI, alphaI = builder._class_weight_params("I")
    phi_ratio = mp.mpc(1)
    for y in pts:
        nu, _, _ = _nu_ratio_factors(builder, y)
        phi_ratio *= nu
    nu1, rho1, tau1 = _nu_ratio_factors(builder, pts[0])
    phi_ratio *= rho1 ** D.M2 * tau1
    lam_weights = mp.mpc(1)
    for m in range(R - 1):
        y, yp = pts[m], fam.shift_arg(pts[m], 1, lam)
        ratio = mp.mpc(alphaI * fam.v_numer_at(aI, y, lam)) / mp.mpc(alphaI * fam.v_numer_at(aI, yp, lam))
        lam_weights *= ratio ** (R - 1 - m)
    return (phi_ratio * mp.mpc(det_up) / mp.mpc(det_u) * lam_weights
            * mp.mpc(p_u) / mp.mpc(p_up))


def check_prefactor_ratio_identity(lam: ParamSet, D: IndexSet, dprime, dprime2, u,
                            bits: int = 256) -> dict:
    """alpha_1 = alpha_2^* beta at the sample: squared-form and sign-resolved residuals."""
    dp, tp = dprime
    dpp, tpp = dprime2
    if tp == tpp:
        raise ValueError("the prefactor-ratio identity is asserted for mixed types only")
    fam = lam.fam
    b = get_builder(lam, bits)
    Dppp = IndexSet.make(list(D.entries) + [(dp, tp), (dpp, tpp)])
    M = D.M
    x_m = fam.shift_arg(u, -Fraction(M, 2), lam)
    x_m2 = fam.shift_arg(u, -Fraction(M + 2, 2), lam)
    x_m4 = fam.shift_arg(u, -Fraction(M + 4, 2), lam)
    a1sq = mp.mpc(fam.v_at(lam.a, x_m, lam)) * mp.mpc(fam.v_star_at(lam.a, x_m2, lam))
    a2sq = mp.mpc(fam.v_at(lam.a, x_m2, lam)) * mp.mpc(fam.v_star_at(lam.a, x_m4, lam))
    beta1 = _gp_shift_ratio(b, D, 0, u)
    beta2 = _gp_shift_ratio(b, Dppp, 0, u)
    beta = beta2 / beta1
    sq_resid = abs(a1sq - mp.conj(a2sq) * beta * beta) / (abs(a1sq) + abs(mp.conj(a2sq) * beta * beta))
    a1 = mp.sqrt(a1sq)
    a2c = mp.conj(mp.sqrt(a2sq))
    r_plus = abs(a1 - a2c * beta)
    r_minus = abs(a1 + a2c * beta)
    scale = abs(a1) + abs(a2c * beta)
    return {
        "squared_residual": sq_resid,
        "signed_residual": min(r_plus, r_minus) / scale,
        "sign": "+" if r_plus <= r_minus else "-",
    }


# -- quadrature checks (slow path) ---------------------------------------------------


def psi_d_squared(lam: ParamSet, D: IndexSet, bundle, x):
    """psi_D(x)^2 = phi_0(x; lambda_D)^2 / (Xi(x - i g/2) Xi(x + i g/2)), Xi_D from the H~_D
    frame at x; PoleAtSample at the frame's poles (x -+ i g/2 near a zero of Xi_D, or x
    near one of Xi_D(lambda + delta))."""
    fam = lam.fam
    base = fam.phi0_sq(x, bundle.lam_D)
    if D.M == 0:
        return base
    fr = htilde_frame(bundle, fam.arg_of_x(x))
    return base / (fr.xi_mh * fr.xi_ph)


def partial_fraction_integral_check(lam: ParamSet, D: IndexSet, N: int, j: int, k: int,
                                    bits: int = 192) -> dict:
    """The naive partial-fraction integral: ~0 for D = empty, nonzero otherwise.  q_j is
    prod_{l != j} (eta - eta_l) over the zeros of P_{D,N}, P_{D,N} / (eta - eta_j) up to its lead.

    Construction runs at `bits`; the quadrature itself at 110 bits with
    maxdegree 7 (the 1e-8 / 1e-3 split thresholds need ~1e-10 accuracy, and
    the adaptive rule targets the working epsilon).
    """
    if j == k:
        raise ValueError("needs j != k (the diagonal is trivially positive)")
    fam = lam.fam
    bundle = build_miop(lam, D, N, bits)
    zs = find_zeros(bundle.P[N], bits, fam)
    sc = lam.scalars
    qj, qk = (Poly(lagrange_numerator(zs.eta, idx, sc.one), sc) for idx in (j, k))
    method = "gauss-legendre" if lam.family == "aw" else "tanh-sinh"

    def integral(qa, qb):
        def f(x):
            e = fam.eta_at(fam.arg_of_x(x), lam)
            return psi_d_squared(lam, D, bundle, x) * mp.mpc(qa(e)) * mp.mpc(qb(e))
        return mp.quad(f, list(fam.x_bounds(lam)), maxdegree=7, method=method)

    with workbits(110):
        val = integral(qj, qk)
        scale = mp.sqrt(abs(integral(qj, qj)) * abs(integral(qk, qk)))
    return {"value": val, "scale": scale, "rel": abs(val) / scale}
