"""The constant C of the mixed chain identity measured at one sample: the oracle with
which test_conjecture and test_acceptance fit zeta from the measured k_a.  The closed
form identities.mixed_constant cancels out of it, so the fit stays independent."""

from casoratia.identities import _chain_pairs, mixed_constant


def measured_mixed_constant(lam, D, dprime, dprime2, n):
    """C = rhs / (Xi-ratio sum times P_{D3,n}) at the first admissible sample of the mixed
    chain identity (identities._chain_pairs): the closed form times rhs / lhs there."""
    lhs, rhs = next(_chain_pairs(lam, D, dprime, dprime2, n, 18))
    return mixed_constant(lam, D.counts) * rhs / lhs
