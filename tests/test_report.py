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
# before the type pairing moved onto Family.pairs; a refactor that claims
# byte-identical reports keeps these
GOLDEN_REPORTS = [
    (["--family", "ch", "--mode", "physical", "--dI", "1", "--dII", "2"],
     "65e4d44b99e6f50a56c8b4ccdf88aadc6af9c204b42eb2349ef71bfa89a06c20"),
    (["--family", "w", "--mode", "physical", "--dI", "1", "--dII", "1"],
     "925ff43f8bc108de7d7a6c12d6701d82be9c5bdf66b38939a212d61800a3f1de"),
    (["--family", "aw", "--mode", "generic", "--dI", "1", "--dII", "1"],
     "d262beca9101f671a39dba4dcf0de6655b735349f98e7e6aeecb188a3e6730dc"),
]


@pytest.mark.parametrize("argv, sha", GOLDEN_REPORTS, ids=["ch", "w", "aw"])
def test_golden_verify_report(argv, sha):
    """Mixed index sets: the case-(1), (2) and (3) closed forms all enter the report."""
    r = subprocess.run([sys.executable, "-m", "casoratia.cli", "verify", *argv,
                        "--N", "2", "--seed", "1"], capture_output=True)
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == sha
