"""The zero-grid formulas of verify in mpc: the test oracle of the Gaussian-float path.

These are the formulas the orthogonality pipeline ran in mpc before it moved onto the
Gaussian floats of numkernel: the H~_D frame from the family's own shift_arg, eta_at,
v_at and v_star_at, the weights F_j by both closed forms, M-tilde and M, the eigen rows
M-tilde v = E^P_a v and the Gram matrix.  Every value is an mpc at the ambient precision.
"""

from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp

HALF = Fraction(1, 2)


def htilde_frame(bundle, u):
    """The H~_D frame at the sample argument u: eta at x, x -+ i gamma and x -+ i gamma/2,
    Xi_D at the half shifts and the weights w_m, w_p, w_0 (no pole test)."""
    lam = bundle.lam
    fam, a_D = lam.fam, bundle.lam_D.a
    eta, eta_m, eta_p, eta_mh, eta_ph = (fam.eta_at(fam.shift_arg(u, t, lam), lam)
                                         for t in (0, -1, 1, -HALF, HALF))
    v, vs = fam.v_at(a_D, u, lam), fam.v_star_at(a_D, u, lam)
    xi_mh, xi_ph, xi0 = bundle.xi(eta_mh), bundle.xi(eta_ph), bundle.xi_shift(eta)
    w_m, w_p = v * xi_ph / xi_mh, vs * xi_mh / xi_ph
    w_0 = -(w_m * bundle.xi_shift(eta_m) + w_p * bundle.xi_shift(eta_p)) / xi0
    return SimpleNamespace(eta=eta, eta_m=eta_m, eta_p=eta_p, eta_mh=eta_mh, eta_ph=eta_ph,
                           xi_mh=xi_mh, xi_ph=xi_ph, xi0=xi0, w_m=w_m, w_p=w_p, w_0=w_0)


def compute_F(bundle, frames):
    """F_j by the symmetric two-term form and the worst relative gap to the one-term form."""
    pN = bundle.P[bundle.n_max]
    dP = pN.derivative()
    F, cross = [], mp.mpf(0)
    for fr in frames:
        eta_m, eta_p = fr.eta_m, fr.eta_p
        dpj = dP(fr.eta)
        two_term = -(eta_m * fr.w_m * pN(eta_m) + eta_p * fr.w_p * pN(eta_p)) / dpj
        one_term = (eta_p - eta_m) / dpj * fr.w_m * pN(eta_m)
        cross = max(cross, abs(two_term - one_term)
                    / max(abs(two_term), abs(one_term), mp.mpf("1e-300")))
        F.append(two_term)
    return F, cross


def build_M(etas, frames, F):
    """M-tilde from the closed forms and M = G^-1 M-tilde G, g_j = sqrt(F_j) on the branch
    fixed by the sign of Re F_j."""
    n = len(etas)
    Mt = [[F[j] / ((fr.eta_m - etas[k]) * (fr.eta_p - etas[k])) for k in range(n)]
          for j, fr in enumerate(frames)]
    for j, fr in enumerate(frames):
        Mt[j][j] += fr.w_0
    g = [mp.sqrt(f) if mp.re(f) >= 0 else 1j * mp.sqrt(-f) for f in F]
    return Mt, [[Mt[j][k] * g[k] / g[j] for k in range(n)] for j in range(n)]


def eigen_residuals(Mt, basis, etas, pN):
    """Per P_a: max_j |(M-tilde v)_j - E^P_a v_j| / (max_k |v_k| (|E^P_a| + 1)), with
    v_j = c^P P_a(eta_j) / P'_N(eta_j)."""
    dP = pN.derivative()
    dpj = [dP(e) for e in etas]
    out = []
    for entry in basis.entries:
        vt = [pN.lead() * entry.poly(e) / d for e, d in zip(etas, dpj)]
        scale = max(max(abs(x) for x in vt), mp.mpf("1e-300")) * (abs(entry.energy) + 1)
        out.append(max(abs(mp.fdot(row, vt) - entry.energy * vt[j]) for j, row in enumerate(Mt))
                   / scale)
    return out


def zero_grid_gram(w, vals, dpj):
    """G_ab = sum_j w_j P_a(eta_j) P_b(eta_j) / P'_N(eta_j)^2 by mp.fdot."""
    n = len(vals)
    rows = [[wj / dp ** 2 * va for wj, dp, va in zip(w, dpj, row)] for row in vals]
    return [[mp.fdot(rows[a], vals[b]) for b in range(n)] for a in range(n)]
