"""Benchmark inputs: every instance a workload runs, derived from the seed.

A workload is a list of units.  Each unit runs in a fresh process, so the
program's in-memory caches start empty, and sets up casoratia before its
timed pass.  Parameter draws come from the seed; the index sets, levels and
sizes are fixed, so two seeds do the same amount of work on different
parameters.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

FAMILIES = ("ch", "w", "aw")
MODES = ("physical", "generic")

# The grid keeps deg P_{D,N} = ell_D + 2 <= 5, so that a run stays short.
GRID_ELL_MAX = 3

# One fixed sweep: 18 instances over 3 parameter sets.  The program draws
# sweep parameters itself (draw indices 0..draws-1), so the seed cannot
# change them.
SWEEP_MODES = ("generic",)
SWEEP_ARGS = ["--families", "ch,w,aw", "--modes", ",".join(SWEEP_MODES), "--draws", "1",
              "--dmax", "1", "--M", "2", "--N-max", "2"]
SWEEP_JOBS = 2

# Deep instances: M = 3, d_j <= 4, deg P_{D,N} = ell_D + N between 10 and 12.
# (family, mode, type-I degrees, type-II degrees, N).  The AW generic set is
# mixed and fails the case-(3) conjecture at 256 and 512 bits at the seed
# commit; it stays so that the failure shows in pass_ratio.  The cH physical
# set has even ell_D, since the CLI rejects odd ones without doing any work.
DEEP = [
    ("ch", "physical", (0, 3), (2,), 5),
    ("ch", "generic", (1, 2), (3,), 5),
    ("w", "physical", (1, 3), (2,), 5),
    ("w", "generic", (), (2, 3, 4), 5),
    ("aw", "physical", (2, 3, 4), (), 4),
    ("aw", "generic", (1, 2), (1,), 5),
]

# Rational parameter choices for the exact workload, near the values of the
# acceptance suite.  Each entry lists the candidates one parameter is drawn
# from; candidates share a denominator, so that every seed does exact
# arithmetic of about the same size.  cH: a1 = (r1, v1), a2 = (r2, v2),
# a3 = conj a1, a4 = conj a2.  W: a1, a2 real, a3 = (r, v), a4 = conj a3.
# AW: the same shape as W, plus q.
EXACT_CHOICES = {
    "ch": {"r1": ["5/2", "7/2"], "v1": ["1/2", "3/2"], "r2": ["9/4", "11/4"],
           "v2": ["1/3", "2/3"]},
    "w": {"a1": ["5/2", "7/2"], "a2": ["11/4", "13/4"], "r": ["9/4", "7/4"],
          "v": ["1/2", "3/2"]},
    "aw": {"a1": ["1/10", "3/10"], "a2": ["2/15", "4/15"], "r": ["1/8", "3/8"],
           "v": ["1/16", "3/16"], "q": ["2/5", "3/5"]},
}
EXACT_DMAX = {"ch": 2, "w": 2, "aw": 1}
EXACT_N_MAX = 2
# chain_identity_exact cases of the acceptance suite: D = {}, (d', t'), (d'', t''), n.
# AW runs only the mixed-type one, which costs about 2.5 s on its own.
EXACT_CHAINS = {"ch": [((0, "I"), (1, "I"), 1), ((0, "I"), (0, "II"), 1)],
                "w": [((0, "I"), (1, "I"), 1), ((0, "I"), (0, "II"), 1)],
                "aw": [((0, "I"), (0, "II"), 1)]}


def ell(entries) -> int:
    """ell_D = sum d_j - M(M-1)/2 + 2 M_I M_II, the degree of Xi_D."""
    m = len(entries)
    m1 = sum(1 for _, t in entries if t == "I")
    return sum(d for d, _ in entries) - m * (m - 1) // 2 + 2 * m1 * (m - m1)


def grid_sets(dmax: int, family: str, mode: str):
    """Index sets with M <= 2 and d_j <= dmax that the CLI accepts (ell_D >= 1)."""
    degs = range(dmax + 1)
    out = [[(d, t)] for d in degs for t in ("I", "II")]
    out += [[(a, t), (b, t)] for t in ("I", "II") for a in degs for b in degs if a < b]
    out += [[(a, "I"), (b, "II")] for a in degs for b in degs]
    out = [D for D in out if ell(D) >= 1]
    if family == "ch" and mode == "physical":
        out = [D for D in out if ell(D) % 2 == 0]
    return out


def derived_seed(*parts) -> int:
    text = "|".join(str(p) for p in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def _verify_argv(family, mode, entries, N, seed):
    argv = ["verify", "--family", family, "--mode", mode, "--N", str(N), "--seed", str(seed)]
    d1 = [str(d) for d, t in entries if t == "I"]
    d2 = [str(d) for d, t in entries if t == "II"]
    if d1:
        argv += ["--dI", ",".join(d1)]
    if d2:
        argv += ["--dII", ",".join(d2)]
    return argv


def _set_key(entries) -> str:
    return ";".join(f"{d}{t}" for d, t in entries)


def grid_units(seed: int):
    """M <= 2, d_j <= 2, ell_D <= GRID_ELL_MAX, N = 2, one draw per (family, mode).

    One unit per family.
    """
    units = []
    for fam in FAMILIES:
        inst = []
        for mode in MODES:
            draw = derived_seed("grid", seed, fam, mode)
            for D in (D for D in grid_sets(2, fam, mode) if ell(D) <= GRID_ELL_MAX):
                inst.append({"id": f"{fam}/{mode}/{_set_key(D)}/N2",
                             "ell": ell(D), "N": 2,
                             "argv": _verify_argv(fam, mode, D, 2, draw)})
        units.append({"kind": "verify", "name": f"grid-{fam}", "instances": inst})
    return units


def deep_units(seed: int):
    """The DEEP instances, one draw each; one unit per family."""
    units = []
    for fam in FAMILIES:
        inst = []
        for f, mode, d1, d2, N in DEEP:
            if f != fam:
                continue
            D = [(d, "I") for d in d1] + [(d, "II") for d in d2]
            key = f"{fam}/{mode}/{_set_key(D)}/N{N}"
            inst.append({"id": key, "ell": ell(D), "N": N,
                         "argv": _verify_argv(fam, mode, D, N, derived_seed("deep", seed, key))})
        units.append({"kind": "verify", "name": f"deep-{fam}", "instances": inst})
    return units


def exact_params(fam: str, seed: int):
    """Rational physical-mode parameters (a_vals, q_val) for one family."""
    rng = random.Random(derived_seed("exact", seed, fam))
    c = {k: rng.choice(v) for k, v in EXACT_CHOICES[fam].items()}
    neg = lambda s: str(-Fraction(s))  # noqa: E731
    if fam == "ch":
        a = [(c["r1"], c["v1"]), (c["r2"], c["v2"]), (c["r1"], neg(c["v1"])),
             (c["r2"], neg(c["v2"]))]
        return a, None
    a = [(c["a1"], "0"), (c["a2"], "0"), (c["r"], c["v"]), (c["r"], neg(c["v"]))]
    return a, c.get("q")


def exact_units(seed: int):
    """Exact-backend bundles (M <= 2, n_max 2) and chain identities; one unit per family."""
    units = []
    for fam in FAMILIES:
        a_vals, q_val = exact_params(fam, seed)
        sets = grid_sets(EXACT_DMAX[fam], fam, "generic")
        units.append({
            "kind": "exact", "name": f"exact-{fam}", "family": fam,
            "a_vals": a_vals, "q_val": q_val, "n_max": EXACT_N_MAX,
            "instances": [{"id": f"{fam}/{_set_key(D)}", "entries": D, "ell": ell(D)}
                          for D in sets],
            "chains": [{"id": f"{fam}/chain/{dp[0]}{dp[1]}+{dpp[0]}{dpp[1]}/n{n}",
                        "dprime": dp, "dprime2": dpp, "n": n}
                       for dp, dpp, n in EXACT_CHAINS[fam]],
        })
    return units


def sweep_rows():
    """The (family, mode, draw, D, N) rows the SWEEP_ARGS sweep must produce."""
    rows = []
    for fam in FAMILIES:
        for mode in SWEEP_MODES:
            for D in grid_sets(1, fam, mode):
                rows.append((fam, mode, "0", _set_key(D), "2"))
    return sorted(rows)
