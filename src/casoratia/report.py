"""Canonical JSON rendering: reports are diffable verification certificates.

All numerics are decimal strings tagged with the precision that produced
them, each printed from its own mantissa: the ambient mpmath precision at
rendering time never rounds a value first.  Keys are sorted and the encoder is
deterministic so repeated runs are byte-identical.
"""

from __future__ import annotations

import json

import mpmath as mp
from mpmath.libmp import to_str

from .exact import QQi
from .numkernel import mpc_parts

# 2: verify manifests carry the negative controls apart from the checks;
# 3: one case-(1)/(2) closed form (no conjecture.reading), and escalation_error on an
#    attempt whose escalation was degenerate;
# 4: no negative controls in verify manifests (they moved to identities --quadrature)
SCHEMA_VERSION = 4


def digits_for(bits: int) -> int:
    return int(bits * 0.30103) + 8


def num_str(x, bits: int) -> list:
    """Complex scalar as a [re, im] pair of decimal strings."""
    if isinstance(x, QQi):
        # Q(i) values print as fractions, Q(i, sqrt(q)) ones as decimals
        if x.q is None:
            return [f"{x.re}", f"{x.im}"]
        x = x.to_mpc()
    d = digits_for(bits)
    return [to_str(p, d) for p in mpc_parts(x)]


def real_str(x, bits: int) -> str:
    return to_str((x if isinstance(x, mp.mpf) else mp.mpf(x))._mpf_, digits_for(bits))


def poly_json(p, bits: int) -> list:
    return [num_str(c, bits) for c in p.coeffs]


def matrix_json(m, bits: int) -> list:
    return [[num_str(x, bits) for x in row] for row in m]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


def ortho_report_json(rep, conj=None, manifest=None) -> dict:
    bits, zs = rep.precision_bits, rep.extras["zeros"]
    out = {
        "schema_version": SCHEMA_VERSION,
        "family": rep.family,
        "D": [[d, t] for d, t in rep.D.entries],
        "N": rep.N,
        "precision_bits": bits,
        "F": [num_str(f, bits) for f in rep.F],
        "symmetry_defect": real_str(rep.symmetry_defect, bits),
        "diag_defect": real_str(rep.diag_defect, bits),
        "f_cross_defect": real_str(rep.f_cross_defect, bits),
        "max_offdiag_rel": real_str(rep.max_offdiag_rel, bits),
        "k": [num_str(k, bits) for k in rep.k],
        "origins": list(rep.origins),
        "eigen_residuals": [real_str(r, bits) for r in rep.eigen_residuals],
        "pa_energies": [num_str(e, bits) for e in rep.pa_energy],
        "pa_defect": real_str(rep.extras["pa_defect"], bits),
        "Mtilde": matrix_json(rep.extras["Mtilde"], bits),
        "M": matrix_json(rep.extras["M"], bits),
        "gram": matrix_json(rep.gram, bits),
        "zeros": {
            "eta": [num_str(e, bits) for e in zs.eta],
            "x": [num_str(x, bits) for x in zs.x],
            "min_pair_distance": real_str(zs.min_pair_distance, bits),
            "min_deriv_magnitude": real_str(zs.min_deriv_magnitude, bits),
            "residual_bound": real_str(zs.residual_bound, bits),
        },
    }
    if "hermitian" in rep.extras:
        out["hermitian"] = rep.extras["hermitian"]
        out["hermiticity_witness_count"] = rep.extras["hermiticity_witness"]
    if conj is not None:
        out["conjecture"] = {
            "max_rel_err": real_str(conj.max_rel_err, bits),
            "zeta": None if conj.zeta is None else num_str(conj.zeta, bits),
            "mixed_C": None if conj.mixed_C is None else num_str(conj.mixed_C, bits),
            "entries": [
                {
                    "origin": e.origin,
                    "case": e.case,
                    "predicted": num_str(e.predicted, bits),
                    "measured": num_str(e.measured, bits),
                    "rel_err": real_str(e.rel_err, bits),
                }
                for e in conj.entries
            ],
        }
    if manifest is not None:
        out["manifest"] = manifest
    return out
