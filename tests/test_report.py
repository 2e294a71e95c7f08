"""Canonical JSON rendering, cache keys and golden verify reports."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest

from casoratia.cache import cache_key
from casoratia.exact import QQi
from casoratia.numkernel import workbits
from casoratia.report import canonical_json, digits_for, num_str, real_str


def test_num_str_deterministic_and_tagged():
    with workbits(256):
        z = mp.mpc(mp.mpf(1) / 3, mp.mpf(-2) / 7)
        a = num_str(z, 256)
        b = num_str(z, 256)
        assert a == b
        assert len(a[0].replace("-", "").replace(".", "").lstrip("0")) >= digits_for(256) - 2
    # a 288-bit value rendered outside workbits, at mpmath's default 53 bits, keeps its
    # own precision: no 53-bit rounding comes first
    with workbits(288):
        w = mp.mpc(mp.mpf(1) / 3, mp.mpf(-2) / 7)
    re, im = num_str(w, 256)
    assert real_str(w.real, 256) == re
    with workbits(300):
        assert abs(mp.mpf(re) - w.real) <= mp.mpf(2) ** -280
        assert abs(mp.mpf(im) - w.imag) <= mp.mpf(2) ** -280


def test_num_str_exact():
    assert num_str(QQi(Fraction(3, 8), Fraction(-1, 2)), 256) == ["3/8", "-1/2"]


def test_canonical_json_sorted_and_stable():
    doc = {"b": 1, "a": [2, {"z": "x", "y": real_str(mp.mpf("0.25"), 128)}]}
    t1, t2 = canonical_json(doc), canonical_json(json.loads(canonical_json(doc)))
    assert t1 == t2
    assert t1.index('"a"') < t1.index('"b"')


def test_cache_key_stable():
    k1 = cache_key(kind="bundle", family="w", D="2I", prec=256)
    k2 = cache_key(prec=256, D="2I", family="w", kind="bundle")
    assert k1 == k2 and len(k1) == 64


def test_cache_key_covers_version_and_schema(monkeypatch):
    """An entry written by another release or report schema is never served."""
    from casoratia import cache
    k = cache_key(kind="bundle", family="w")
    monkeypatch.setattr(cache, "__version__", "0.0.0")
    assert cache_key(kind="bundle", family="w") != k
    monkeypatch.undo()
    monkeypatch.setattr(cache, "SCHEMA_VERSION", 0)
    assert cache_key(kind="bundle", family="w") != k


# sha256 of the canonical verify JSON (seed 1, N = 2, default precision), recorded
# when the base polynomials moved from the hypergeometric sums to the three-term
# recurrences (package 0.4.0; noise digits moved, values below 1e-76 changed sign);
# cH and W again when the root finder became one Aberth loop (noise digits moved, by
# at most 7.6e-93 in M); all three when the zero grid and the frames moved onto
# Gaussian floats (noise digits moved, by at most 1.2e-79 relative in gram and k; the
# W zero at eta = -3.3048, real up to a noise-level Im eta whose sign changed, now
# reports x = +1.818i, the principal branch of a real negative eta, for -1.818i);
# all three when the working-precision root finder moved onto Gaussian floats (noise
# digits moved, by at most 1.5e-95 relative in F, k, M and M-tilde and 8.9e-97 in eta);
# every verdict stands, and a refactor that claims byte-identical reports keeps these
GOLDEN_REPORTS = [
    (["--family", "ch", "--mode", "physical", "--dI", "1", "--dII", "2"],
     "7b4a21dcdde731e69f37f72847d7ca784fa67b5fb2eff640f9c071e8b7d74995"),
    (["--family", "w", "--mode", "physical", "--dI", "1", "--dII", "1"],
     "f8e7ddb6e96684f90bc5d0f5596ed7d9d5f53e7576fe240d3b7f9e322d5dbbfa"),
    (["--family", "aw", "--mode", "generic", "--dI", "1", "--dII", "1"],
     "d0e13da95b940f2808808b7a4fe03cab9563a106dfed8cf0ca017198fb5afdb0"),
]


@pytest.mark.parametrize("argv, sha", GOLDEN_REPORTS, ids=["ch", "w", "aw"])
def test_golden_verify_report(argv, sha):
    """Mixed index sets: the case-(1), (2) and (3) closed forms all enter the report."""
    r = subprocess.run([sys.executable, "-m", "casoratia.cli", "verify", *argv,
                        "--N", "2", "--seed", "1"], capture_output=True)
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == sha


def test_verify_report_is_independent_of_earlier_runs(tmp_path, monkeypatch):
    """In one process, verify runs on one draw share its Builder, as the grid's do: a
    report is the same after other runs of its class as in a fresh process."""
    from casoratia import cli, miop

    target = ["--family", "aw", "--mode", "generic", "--dI", "1", "--dII", "1", "--N", "2"]
    earlier = [["--family", "aw", "--mode", "generic", "--dI", "2", "--dII", "1", "--N", "2"],
               ["--family", "aw", "--mode", "generic", "--dI", "0", "--dII", "2", "--N", "3"]]
    reports = []
    for before in ([], earlier):
        monkeypatch.setattr(miop, "_BUILDERS", {})
        for argv in before:
            assert cli.main(["verify", *argv, "--out", str(tmp_path / "earlier.json")]) == 0
        out = tmp_path / f"target{len(reports)}.json"
        assert cli.main(["verify", *target, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


# sha256 of the sweep CSV below, recorded with the same rendering: the one golden on
# the sweep's own rendering of max_offdiag_rel and conjecture_rel_err (recorded again
# with the one-loop root finder: both moved by less than 1e-96; with the zero grid
# on Gaussian floats: by at most 1e-83; and with the root finder on Gaussian floats: by
# at most 1.4e-94, 1.5e-10 of values near 1e-85)
GOLDEN_SWEEP = "aa72965ca59e56dd185d9e9ce621a4c0ba28e92526ae1052b5ee2f02cddaab42"


def test_golden_sweep_csv():
    r = subprocess.run([sys.executable, "-m", "casoratia.cli", "sweep", "--families", "w",
                        "--modes", "physical", "--dmax", "1", "--M", "1", "--N-max", "2"],
                       capture_output=True)
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == GOLDEN_SWEEP
