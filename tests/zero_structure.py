"""Zero-structure oracles shared by test_zeros and test_acceptance.

On a physical-mode instance the zeros of P_{D,n} are closed under complex
conjugation, n of them are real and lie in the family's physical eta interval,
and those of P_{D,n-1} interlace them.
"""

import mpmath as mp

from casoratia.zeros import ZeroSet

# eta = x (cH), x^2 (W), cos x (AW) over the physical x range
ETA_PHYSICAL_INTERVAL = {
    "ch": (mp.mpf("-inf"), mp.mpf("+inf")),
    "w": (mp.mpf(0), mp.mpf("+inf")),
    "aw": (mp.mpf(-1), mp.mpf(1)),
}


def conjugation_closure_defect(zs: ZeroSet) -> mp.mpf:
    """Greedy multiset pairing defect of {eta_j*} against {eta_j}."""
    left = list(zs.eta)
    worst = mp.mpf(0)
    for e in zs.eta:
        tgt = mp.conj(e)
        best_i, best_d = None, mp.mpf("+inf")
        for i, cand in enumerate(left):
            d = abs(cand - tgt)
            if d < best_d:
                best_i, best_d = i, d
        worst = max(worst, best_d)
        left.pop(best_i)
    scale = max(max(abs(e) for e in zs.eta), mp.mpf(1))
    return worst / scale


def physical_interval_zeros(zs: ZeroSet, fam, tol=None) -> list:
    """Real zeros strictly inside the family's physical eta interval, sorted."""
    lo, hi = ETA_PHYSICAL_INTERVAL[fam.tag]
    tol = tol if tol is not None else mp.mpf(2) ** (-zs.precision_bits // 3)
    out = []
    for e in zs.eta:
        if abs(mp.im(e)) <= tol * max(1, abs(e)) and lo < mp.re(e) < hi:
            out.append(mp.re(e))
    return sorted(out)


def interlace(a: list, b: list) -> bool:
    """True iff len(b) = len(a)+1 and a strictly interlaces b."""
    if len(b) != len(a) + 1:
        return False
    return all(b[i] < a[i] < b[i + 1] for i in range(len(a)))
