"""CLI surface: exit codes, report schema, determinism, caching."""

import json
import pathlib
import re
import subprocess
import sys

import mpmath as mp
import pytest

from casoratia.dortho import verify_orthogonality
from casoratia.families import ParamSet, draw_params
from casoratia.miop import IndexSet
from casoratia.numkernel import MPScalars, workbits

BASE = [sys.executable, "-m", "casoratia.cli"]


def run(args, **kw):
    return subprocess.run(BASE + args, capture_output=True, text=True, **kw)


def test_verify_pass_and_report_shape(tmp_path):
    out = tmp_path / "rep.json"
    r = run(["verify", "--family", "w", "--dI", "2", "--N", "3", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 4
    assert doc["family"] == "w" and doc["N"] == 3
    assert sorted(doc["manifest"]["checks"]) == [
        "conjecture", "eigen_relation", "f_cross_form", "matrix_symmetry", "orthogonality",
        "pa_difference_equation"]
    assert "controls" not in doc["manifest"]
    assert doc["manifest"]["checks"]["orthogonality"]
    assert doc["manifest"]["checks"]["conjecture"]
    assert doc["manifest"]["timestamp"] == ""
    assert len(doc["k"]) == 3 + 2  # N + ell_D
    # k is printed at its own precision, not rounded to mpmath's default 53 bits first
    rep = verify_orthogonality(draw_params("w", "physical", 1), IndexSet.make([(2, "I")]), 3)
    with workbits(300):
        for (re, im), want in zip(doc["k"], rep.k):
            assert abs(mp.mpc(re, im) - want) <= mp.mpf(2) ** -250 * abs(want)


def test_verify_guards():
    r = run(["verify", "--family", "ch", "--dI", "1", "--dII", "1", "--N", "2"])
    assert r.returncode == 3
    assert "even" in r.stderr
    r = run(["verify", "--family", "w", "--N", "0"])
    assert r.returncode == 3
    r = run(["verify", "--family", "ch", "--dI", "1", "--dII", "1", "--N", "2",
             "--mode", "generic"])
    assert r.returncode == 0


def test_verify_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        r = run(["verify", "--family", "aw", "--dI", "1", "--dII", "1", "--N", "2",
                 "--out", str(out)])
        assert r.returncode == 0, r.stderr
    assert a.read_bytes() == b.read_bytes()


def test_construct_cache_hit_identical(tmp_path):
    cache = tmp_path / "cache"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        r = run(["construct", "--family", "ch", "--dI", "2", "--N", "2",
                 "--cache", str(cache), "--out", str(out)])
        assert r.returncode == 0, r.stderr
    assert a.read_bytes() == b.read_bytes()
    assert list(cache.glob("*.json"))


def test_construct_cache_hit_serves_this_runs_manifest(tmp_path):
    """A cache hit serves the cached bundle under the manifest of the run that hit it."""
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({
        "family": "w",
        "a": [["5/2", "0"], ["11/4", "0"], ["9/4", "1/2"], ["9/4", "-1/2"]],
        "mode": "physical",
    }))
    argv = ["construct", "--params", str(pfile), "--dI", "1", "--N", "2", "--prec", "64",
            "--cache", str(tmp_path / "cache")]
    docs = []
    for extra in (["--seed", "1"], ["--seed", "7", "--timestamps"]):
        out = tmp_path / "out.json"
        r = run(argv + extra + ["--out", str(out)])
        assert r.returncode == 0, r.stderr
        docs.append(json.loads(out.read_text()))
    first, second = docs
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1
    assert first["manifest"]["seed"] == 1 and first["manifest"]["timestamp"] == ""
    assert second["manifest"]["seed"] == 7 and second["manifest"]["timestamp"] != ""
    first.pop("manifest"), second.pop("manifest")
    assert first == second


def test_roots_and_identities(tmp_path):
    out = tmp_path / "roots.json"
    r = run(["roots", "--family", "aw", "--dI", "2", "--N", "3", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert len(doc["eta"]) == 2 + 3
    r = run(["identities", "--family", "w", "--lemma-eta", "--samples", "25"])
    assert r.returncode == 0, r.stderr
    r = run(["identities", "--family", "w", "--classical", "--N", "5"])
    assert r.returncode == 0, r.stderr
    r = run(["identities", "--family", "aw", "--chain", "--dI", "1",
             "--dprime", "0", "--tprime", "I", "--dprime2", "2", "--tprime2", "I",
             "--n", "1"])
    assert r.returncode == 0, r.stderr


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    r = run(["sweep", "--families", "ch", "--modes", "generic", "--draws", "1",
             "--dmax", "1", "--M", "1", "--N-max", "2", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) >= 2
    assert all(line.split(",")[5] == "1" for line in lines[1:])


def test_sweep_empty_grid(tmp_path):
    """A grid without instances is a usage error: exit 2 and no CSV, not a header alone."""
    out = tmp_path / "sweep.csv"
    r = run(["sweep", "--families", "ch", "--modes", "physical", "--dmax", "1", "--M", "1",
             "--out", str(out)])
    assert r.returncode == 2
    assert "the sweep grid is empty" in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_params_file(tmp_path):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({
        "family": "w",
        "a": [["2.5", "0"], ["2.75", "0"], ["2.25", "0.5"], ["2.25", "-0.5"]],
        "mode": "physical",
    }))
    r = run(["verify", "--params", str(pfile), "--dI", "2", "--N", "2"])
    assert r.returncode == 0, r.stderr
    # non-dyadic values are read at 2 * 256 + 32 bits, the working precision of the
    # ladder's top rung, not at mpmath's default 53
    pfile.write_text(json.dumps({
        "family": "w",
        "a": [["12/5", "0"], ["2.7", "0"], ["2.3", "0.6"], ["2.3", "-0.6"]],
        "mode": "physical",
    }))
    out = tmp_path / "rep.json"
    # a --mode that agrees with the file's is accepted
    r = run(["verify", "--params", str(pfile), "--mode", "physical", "--dI", "2", "--N", "2",
             "--out", str(out)])
    assert r.returncode == 0, r.stderr
    with workbits(2 * 256 + 32):
        a = (mp.mpc(mp.mpf(12) / 5), mp.mpc(mp.mpf(27) / 10),
             mp.mpc(mp.mpf(23) / 10, mp.mpf(6) / 10), mp.mpc(mp.mpf(23) / 10, mp.mpf(-6) / 10))
        want = ParamSet("w", a, None, "physical", MPScalars()).digest()
    assert json.loads(out.read_text())["manifest"]["params_digest"] == want


def test_singular_recurrence_step_is_degenerate(tmp_path):
    """W physical with a = (2.5, 2.5, 1.5 +- 0.5i): the type-I twist has b1 = 0, so the
    first recurrence step of its virtual-state polynomials divides by 2k + b1 = 0.  That
    is a degeneracy (exit 3), never a ZeroDivisionError."""
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({
        "family": "w",
        "a": [["2.5", "0"], ["2.5", "0"], ["1.5", "0.5"], ["1.5", "-0.5"]],
        "mode": "physical",
    }))
    r = run(["verify", "--params", str(pfile), "--dI", "2", "--N", "2"])
    assert r.returncode == 3, r.stderr
    assert "recurrence step divides by zero" in r.stderr


def test_sweep_worker_count_independence(tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"s{jobs}.csv"
        r = run(["sweep", "--families", "ch", "--modes", "generic", "--draws", "1",
                 "--dmax", "1", "--M", "1", "--N-max", "2", "--jobs", jobs,
                 "--out", str(out)])
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_rows_are_independent_of_job_order(monkeypatch):
    """The benchmark's sweep grid (18 jobs) gives the same rows in one process whatever
    order its jobs run in, as Pool.map may hand them to a worker: forward, reversed,
    and odd jobs before even ones, each from fresh builders."""
    from casoratia import cli, miop

    args = cli.make_parser().parse_args(
        ["sweep", "--families", "ch,w,aw", "--modes", "generic", "--dmax", "1", "--M", "2",
         "--N-max", "2"])
    payloads = [(*job, args.prec) for job in cli._sweep_jobs(args)]
    count = len(payloads)
    assert count == 18
    runs = []
    for order in (range(count), range(count - 1, -1, -1),
                  [*range(1, count, 2), *range(0, count, 2)]):
        monkeypatch.setattr(miop, "_BUILDERS", {})
        rows = {i: cli._sweep_one(payloads[i]) for i in order}
        runs.append([rows[i] for i in range(count)])
    assert runs[0] == runs[1] == runs[2]


def test_identities_exact_chain(tmp_path):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({
        "family": "w",
        "a": [["5/2", "0"], ["11/4", "0"], ["9/4", "1/2"], ["9/4", "-1/2"]],
        "mode": "physical",
    }))
    r = run(["identities", "--params", str(pfile), "--backend", "exact", "--chain",
             "--dprime", "0", "--tprime", "I", "--dprime2", "1", "--tprime2", "I",
             "--n", "1", "--out", str(tmp_path / "id.json")])
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "id.json").read_text())
    assert doc["identities"]["chain_identity_exact"]["exact"] is True


def test_verify_rejects_large_index_sets():
    """M > 3 is a usage error (the case-(3) closed forms cover M <= 3), not a degeneracy."""
    r = run(["verify", "--family", "w", "--dI", "0,1,2,3", "--N", "2"])
    assert r.returncode == 2
    assert "out of scope" in r.stderr and r.stderr.count("error:") == 1
    assert "Traceback" not in r.stderr


def test_flags_a_command_does_not_read_are_rejected(tmp_path):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({
        "family": "w",
        "a": [["5/2", "0"], ["11/4", "0"], ["9/4", "1/2"], ["9/4", "-1/2"]],
        "mode": "physical",
    }))
    for argv in (["sweep", "--family", "w"],
                 ["sweep", "--quadrature"],
                 ["verify", "--quadrature"],
                 ["verify", "--params", str(pfile), "--dI", "2", "--N", "2",
                  "--backend", "exact"]):
        r = run(argv)
        assert r.returncode == 2
        assert "unrecognized arguments" in r.stderr
        assert "Traceback" not in r.stderr


def test_exact_construct_and_roots(tmp_path):
    """Exact parameters build, pass their gates exactly and give the roots of P_{D,N}."""
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({
        "family": "w",
        "a": [["5/2", "0"], ["11/4", "0"], ["9/4", "1/2"], ["9/4", "-1/2"]],
        "mode": "physical",
    }))
    for cmd in ("construct", "roots"):
        r = run([cmd, "--params", str(pfile), "--backend", "exact", "--dI", "1", "--N", "2",
                 "--out", str(tmp_path / f"{cmd}.json")])
        assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "construct.json").read_text())
    assert doc["gates"] == {"eigen_residual": "0.0", "shape_invariance": "0.0"}
    assert doc["manifest"]["backend"] == "exact"
    assert len(doc["P"]["2"]) == 1 + 2 + 1   # deg P_{D,2} = ell_D + 2 = 3
    roots = json.loads((tmp_path / "roots.json").read_text())
    assert len(roots["eta"]) == 3


def test_prec_below_64_rejected():
    for cmd in ("verify", "sweep", "identities", "roots", "construct"):
        r = run([cmd, "--prec", "32"])
        assert r.returncode == 2
        assert "precision must be >= 64 bits" in r.stderr
        assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv, message", [
    (["identities", "--family", "w", "--prefactor-ratio"], "--prefactor-ratio needs mixed types"),
    (["identities", "--family", "w", "--prefactor-ratio", "--tprime2", "II", "--dI", "0"],
     "must be distinct and not in D"),
    (["identities", "--family", "w", "--chain", "--dI", "0"], "must be distinct and not in D"),
    (["identities", "--family", "w", "--classical", "--N", "0"], "--classical needs --N >= 1"),
    (["roots", "--family", "w", "--dI", "1", "--N", "-1"], "argument --N: must be >= 0"),
    (["construct", "--family", "w", "--dI", "1", "--N", "-2"], "argument --N: must be >= 0"),
    (["sweep", "--M", "3"], "argument --M: invalid choice: 3"),
    (["sweep", "--M", "0"], "argument --M: invalid choice: 0"),
    (["verify", "--family", "w", "--dI", "1,1", "--N", "2"],
     "argument --dI: degrees must be nonnegative and distinct"),
    (["roots", "--family", "w", "--dI=-1", "--N", "2"],
     "argument --dI: degrees must be nonnegative and distinct"),
    (["construct", "--family", "w", "--dII", "2 2"],
     "argument --dII: degrees must be nonnegative and distinct"),
    (["identities", "--family", "w", "--lemma-eta", "--samples", "0"],
     "argument --samples: must be >= 1"),
    (["identities", "--family", "w", "--lemma-eta", "--samples", "-1"],
     "argument --samples: must be >= 1"),
    (["identities", "--family", "w", "--chain", "--samples", "0"],
     "argument --samples: must be >= 1"),
    (["identities", "--family", "w", "--prefactor-ratio", "--tprime2", "II", "--samples", "0"],
     "argument --samples: must be >= 1"),
    (["sweep", "--draws", "0"], "argument --draws: must be >= 1"),
    (["sweep", "--dmax", "-1"], "argument --dmax: must be >= 0"),
    (["sweep", "--N-max", "1"], "argument --N-max: must be >= 2"),
    (["sweep", "--dmax", "0", "--M", "1"], "the sweep grid is empty"),
    (["sweep", "--families", "x"], "argument --families: want distinct names"),
    (["sweep", "--families", "ch,ch"], "argument --families: want distinct names"),
    (["sweep", "--modes", "bogus"], "argument --modes: want distinct names"),
    (["verify", "--family", "w", "--dI", "0,1", "--dII", "0,1"], "more than 3 entries"),
    (["roots", "--family", "aw", "--dI", "0,1,2,3"], "more than 3 entries"),
    (["construct", "--family", "ch", "--dII", "0,1,2,3"], "more than 3 entries"),
    (["identities", "--family", "w", "--chain", "--dI", "1,2", "--dII", "1,2"],
     "more than 3 entries"),
    (["roots", "--family", "w", "--N", "0"], "roots needs deg P_{D,N} = ell_D + N >= 1"),
    (["roots", "--family", "w", "--dI", "0", "--N", "0"], "roots needs deg P_{D,N}"),
    (["roots", "--params", "{tmp}/w.json", "--backend", "exact", "--N", "0"],
     "roots needs deg P_{D,N}"),
    (["verify", "--params", "{tmp}/missing.json", "--dI", "1"],
     "--params: cannot read a JSON parameter file"),
    (["verify", "--params", "{tmp}/zz.json", "--dI", "1"],
     "--params: family must be one of ch, w, aw, got 'zz'"),
    (["verify", "--family", "ch", "--params", "{tmp}/w.json", "--dI", "1"],
     "--family disagrees with the params file"),
    (["roots", "--dI", "1", "--N", "2"], "need --family (or --params FILE)"),
    (["construct", "--family", "w", "--backend", "exact", "--dI", "1"],
     "exact backend needs --params with rational values"),
    (["sweep", "--jobs", "0"], "argument --jobs: must be >= 1"),
    (["sweep", "--jobs", "-3"], "argument --jobs: must be >= 1"),
    (["roots", "--params", "{tmp}/no_a.json", "--dI", "1", "--N", "2"],
     '--params: no parameter list "a"'),
    (["roots", "--params", "{tmp}/literal.json", "--dI", "1", "--N", "2"],
     "--params: bad parameter values: Invalid literal for Fraction: 'x'"),
    (["roots", "--params", "{tmp}/two.json", "--dI", "1", "--N", "2"],
     "--params: bad parameter values: need four parameters a1..a4"),
    (["roots", "--params", "{tmp}/aw_no_q.json", "--dI", "1", "--N", "2"],
     "--params: bad parameter values: q is required exactly for the AW family"),
    (["verify", "--params", "{tmp}/mode.json", "--dI", "1", "--N", "2"],
     "--params: bad parameter values: mode must be physical or generic, got 'bogus'"),
    (["identities", "--params", "{tmp}/w.json", "--backend", "exact", "--prefactor-ratio",
      "--tprime2", "II"], "--prefactor-ratio needs the float backend"),
    (["verify", "--params", "{tmp}/w.json", "--mode", "generic", "--dI", "1", "--N", "2"],
     "--mode disagrees with the params file"),
    (["identities", "--params", "{tmp}/w.json", "--mode", "generic", "--lemma-eta"],
     "--mode disagrees with the params file"),
    (["roots", "--params", "{tmp}/w.json", "--mode", "generic", "--dI", "1"],
     "--mode disagrees with the params file"),
    (["construct", "--params", "{tmp}/w.json", "--mode", "generic", "--dI", "1"],
     "--mode disagrees with the params file"),
    (["identities", "--family", "w"], "no identity selected"),
    (["identities", "--family", "w", "--classical", "--N", "4", "--dI", "2"],
     "--dI/--dII name D for --chain or --prefactor-ratio, or the controls of --quadrature"),
    (["identities", "--family", "w", "--lemma-eta", "--dI", "2"],
     "--dI/--dII name D for --chain or --prefactor-ratio, or the controls of --quadrature"),
    (["identities", "--family", "w", "--quadrature", "--dI", "2", "--N", "1"],
     "--quadrature needs --N >= 2"),
    (["identities", "--params", "{tmp}/w.json", "--backend", "exact", "--quadrature",
      "--dI", "2", "--N", "2"], "--quadrature needs the float backend"),
    (["identities", "--family", "w", "--mode", "generic", "--prefactor-ratio", "--tprime2", "II",
      "--samples", "3"], "--prefactor-ratio needs physical parameters"),
    (["identities", "--params", "{tmp}/generic.json", "--prefactor-ratio", "--tprime2", "II"],
     "--prefactor-ratio needs physical parameters"),
    (["verify", "--family", "ch", "--dI", "2", "--N", "2", "--out", "{tmp}"],
     "not a file name in an existing directory"),
    (["sweep", "--families", "w", "--out", "{tmp}"], "not a file name in an existing directory"),
    (["roots", "--family", "w", "--dI", "2", "--N", "2", "--out", "{tmp}/missing/x.json"],
     "not a file name in an existing directory"),
    (["construct", "--family", "w", "--dI", "2", "--N", "2", "--cache", "{tmp}/w.json"],
     "exists and is not a directory"),
    (["CASORATIA_CACHE={tmp}/w.json", "construct", "--family", "w", "--dI", "2", "--N", "2"],
     "exists and is not a directory"),
    (["roots", "--params", "{tmp}/aw_q0.json", "--dI", "1", "--N", "2"],
     "--params: bad parameter values: AW needs q != 0"),
    (["construct", "--params", "{tmp}/aw_q0.json", "--backend", "exact", "--dI", "1"],
     "--params: bad parameter values: AW needs q != 0"),
    (["verify", "--params", "{tmp}/aw_q0_generic.json", "--dI", "1", "--N", "2"],
     "--params: bad parameter values: AW needs q != 0"),
    (["verify", "--params", "{tmp}/aw_a2_0.json", "--dII", "1", "--N", "2"],
     "--params: AW parameter a_2 is 0, and verify divides by it"),
    (["roots", "--params", "{tmp}/aw_a2_0.json", "--dI", "1", "--N", "2"],
     "--params: AW parameter a_2 is 0, and roots divides by it"),
    (["construct", "--params", "{tmp}/aw_a2_0.json", "--backend", "exact", "--dI", "1"],
     "--params: AW parameter a_2 is 0, and construct divides by it"),
    (["identities", "--params", "{tmp}/aw_a2_0.json", "--chain", "--dII", "1", "--N", "2"],
     "--params: AW parameter a_2 is 0, and identities divides by it"),
])
def test_contradictory_flags_are_usage_errors(argv, message, monkeypatch, capsys, tmp_path):
    """Flag values, parameter files and output paths no command can run are usage errors
    before any work: exit 2, one message on stderr.  A leading NAME=VALUE sets the
    environment variable NAME."""
    from casoratia import cli

    def no_work(*_):
        raise AssertionError("a usage error must come before any work")

    for name in ("cmd_verify", "cmd_sweep", "cmd_identities", "cmd_roots", "cmd_construct"):
        monkeypatch.setattr(cli, name, no_work)
    a_vals = [["5/2", "0"], ["11/4", "0"], ["9/4", "1/2"], ["9/4", "-1/2"]]
    aw_vals = [["1/10", "0"], ["2/15", "0"], ["1/8", "1/16"], ["1/8", "-1/16"]]
    docs = {"w": {"family": "w", "a": a_vals}, "zz": {"family": "zz", "a": a_vals},
            "no_a": {"family": "w"}, "literal": {"family": "w", "a": [["x", "0"]] + a_vals[1:]},
            "two": {"family": "w", "a": a_vals[:2]}, "aw_no_q": {"family": "aw", "a": a_vals},
            "mode": {"family": "w", "a": a_vals, "mode": "bogus"},
            "generic": {"family": "w", "a": a_vals, "mode": "generic"},
            "aw_q0": {"family": "aw", "a": aw_vals, "q": "0"},
            "aw_q0_generic": {"family": "aw", "a": aw_vals, "q": "0", "mode": "generic"},
            "aw_a2_0": {"family": "aw", "a": [aw_vals[0], ["0", "0"]] + aw_vals[2:], "q": "2/5"}}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and err.count("error:") == 1


def test_aw_zero_parameter_off_the_built_types_runs(tmp_path):
    """An AW a_k = 0 in the type-I pair leaves roots and construct of type-II sets, on both
    backends, to run: only the type-I states reflect it to q / a_k."""
    from casoratia import cli

    pfile = tmp_path / "aw.json"
    pfile.write_text(json.dumps({
        "family": "aw", "q": "2/5",
        "a": [["1/10", "0"], ["0", "0"], ["1/8", "1/16"], ["1/8", "-1/16"]]}))
    for argv in (["roots", "--dII", "1", "--N", "2"],
                 ["construct", "--dII", "1", "--N", "2", "--backend", "exact",
                  "--cache", str(tmp_path / "cache")]):
        assert cli.main(argv + ["--params", str(pfile), "--out", str(tmp_path / "r.json")]) == 0


def test_parser_keeps_no_state_between_calls(tmp_path):
    """main builds its parser once per process, and a call that leaves --dI out gets an
    empty type-I list, whatever the call before it gave."""
    from casoratia import cli

    assert cli.make_parser() is cli.make_parser()
    docs = []
    for degrees in (["--dI", "1"], ["--dII", "1"]):
        out = tmp_path / "r.json"
        assert cli.main(["roots", "--family", "w", "--N", "2", "--out", str(out)] + degrees) == 0
        docs.append(json.loads(out.read_text())["manifest"]["D"])
    assert docs == [[[1, "I"]], [[1, "II"]]]


def test_identities_classical_exact(tmp_path):
    """Exact recurrence and h ratios, float zero grid: both numbers within the float gates."""
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({
        "family": "w",
        "a": [["5/2", "0"], ["11/4", "0"], ["9/4", "1/2"], ["9/4", "-1/2"]],
        "mode": "physical",
    }))
    out = tmp_path / "id.json"
    r = run(["identities", "--params", str(pfile), "--backend", "exact", "--classical",
             "--N", "3", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())["identities"]["classical"]
    assert float(doc["max_offdiag_rel"]) <= 1e-25
    assert float(doc["diag_rel_err"]) <= 1e-20


def test_identities_quadrature_at_n2():
    """At N = 2 only the partial-fraction control runs; the naive one needs N >= 3."""
    r = run(["identities", "--family", "w", "--dI", "2", "--N", "2", "--quadrature"])
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["schema_version"] == 2 and doc["identities"] == {}
    controls = doc["controls"]
    assert controls["partial_fraction"]["fired"] and "naive_weight" not in controls
    assert controls["partial_fraction"]["threshold"] == "1e-3"
    assert r.stderr == ""


@pytest.mark.slow
def test_unfired_control_is_inconclusive_not_a_failure(tmp_path):
    """AW dI = 2, N = 4: both controls stay below 1e-3 on a correct instance; they are
    reported as inconclusive and the run exits 0."""
    out = tmp_path / "id.json"
    r = run(["identities", "--family", "aw", "--dI", "2", "--N", "4", "--quadrature",
             "--out", str(out)])
    assert r.returncode == 0, r.stderr
    controls = json.loads(out.read_text())["controls"]
    assert sorted(controls) == ["naive_weight", "partial_fraction"]
    for name, ctl in controls.items():
        assert not ctl["fired"] and float(ctl["value"]) < 1e-3
        assert f"control inconclusive: {name}" in r.stderr


def test_quadrature_applies_the_instance_guards(monkeypatch, capsys):
    """identities --quadrature rejects what verify rejects, with exit 3 and one line, before
    any control runs; a degenerate control exits 3 with one line as well."""
    from casoratia import cli
    from casoratia.dortho import DegenerateSpectrum

    def refuse(*_, **__):
        raise AssertionError("a control ran")

    monkeypatch.setattr(cli, "naive_weight_demo", refuse)
    monkeypatch.setattr(cli, "partial_fraction_integral_check", refuse)
    for argv, reason in ((["--family", "ch", "--dI", "1"], "needs even ell_D"),
                         (["--family", "w", "--dI", "0"], "ell_D < 1")):
        assert cli.main(["identities", *argv, "--N", "3", "--quadrature"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and reason in err and len(err.splitlines()) == 1

    def degenerate(*_, **__):
        raise DegenerateSpectrum("two zeros collide")

    monkeypatch.setattr(cli, "naive_weight_demo", degenerate)
    assert cli.main(["identities", "--family", "w", "--dI", "2", "--N", "3", "--quadrature"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "degenerate instance: two zeros collide\n"


def test_failed_construction_gate_is_a_failed_check(tmp_path, monkeypatch):
    """A construction gate that fails at both precisions exits 2 with both attempts
    recorded; a sweep reports the failed check and does not redraw."""
    import mpmath as mp

    from casoratia import cli, miop

    monkeypatch.setattr(miop, "_shape_invariance_defect", lambda bundle: mp.inf)
    out = tmp_path / "rep.json"
    assert cli.main(["verify", "--family", "w", "--dI", "2", "--N", "2", "--prec", "128",
                     "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["manifest"]["checks"] == {"construction_gates": False}
    assert [a["precision_bits"] for a in doc["attempts"]] == [128, 256]
    for a in doc["attempts"]:
        assert a["checks"] == {"construction_gates": False}
        assert a["error"].startswith("PrefactorResidue: shape invariance")
    ok, offdiag, conj_err, note = cli._sweep_one(("w", "physical", 0, miop.IndexSet.make(
        [(2, "I")]), 2, 128))
    assert (ok, offdiag, conj_err, note) == (False, "", "", "failed:construction_gates")


def test_degenerate_escalation_leaves_the_failed_check_standing(tmp_path, monkeypatch):
    """A check that fails at --prec with a degenerate escalation is a failed check: verify
    exits 2 with the --prec report, the escalation's error on its last attempt, and a sweep
    gives the same failed row."""
    from casoratia import cli, miop

    verify_once = cli._verify_once

    def fail_then_degenerate(lam, D, N, bits):
        if bits > 256:
            raise miop.PoleAtSample("Xi_D vanished near sample point")
        rep, conj, checks = verify_once(lam, D, N, bits)
        return rep, conj, {**checks, "orthogonality": False}

    monkeypatch.setattr(cli, "_verify_once", fail_then_degenerate)
    out = tmp_path / "rep.json"
    assert cli.main(["verify", "--family", "w", "--dI", "1", "--N", "2", "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["precision_bits"] == 256
    assert [k for k, v in doc["manifest"]["checks"].items() if not v] == ["orthogonality"]
    (attempt,) = doc["attempts"]
    assert attempt["precision_bits"] == 256 and attempt["checks"] == doc["manifest"]["checks"]
    assert attempt["escalation_error"] == "PoleAtSample: Xi_D vanished near sample point"
    row = cli._sweep_one(("w", "physical", 1, miop.IndexSet.make([(1, "I")]), 2, 256))
    assert row == (False, doc["max_offdiag_rel"], doc["conjecture"]["max_rel_err"],
                   "failed:orthogonality")


def test_verify_orthogonality_owns_its_precision(tmp_path):
    """At mpmath's default 53 bits, verify_orthogonality(..., bits=256) gives the CLI's numbers."""
    import mpmath as mp

    from casoratia.dortho import verify_orthogonality
    from casoratia.families import draw_params
    from casoratia.miop import IndexSet
    from casoratia.report import ortho_report_json

    out = tmp_path / "rep.json"
    r = run(["verify", "--family", "w", "--mode", "generic", "--seed", "57", "--dI", "2",
             "--N", "2", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert mp.mp.prec == 53
    rep = verify_orthogonality(draw_params("w", "generic", 57), IndexSet.make([(2, "I")]), 2,
                               bits=256)
    assert mp.mp.prec == 53
    got = ortho_report_json(rep)
    assert got == {k: doc[k] for k in got}


@pytest.mark.parametrize("damage", [b'{"xi": [', b"\xff\xfe not text", b"[1, 2]"],
                         ids=["truncated", "not-utf8", "not-an-object"])
def test_construct_cache_damaged_entry_is_a_miss(tmp_path, damage):
    """A corrupt, undecodable or non-object cache file is rebuilt and rewritten."""
    from casoratia import cli
    cache = tmp_path / "cache"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["construct", "--family", "ch", "--dI", "2", "--N", "2", "--cache", str(cache)]
    assert cli.main(argv + ["--out", str(a)]) == 0
    (entry,) = cache.glob("*.json")
    entry.write_bytes(damage)
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes() == entry.read_bytes()


def test_package_metadata_agrees_with_version():
    """Installed package metadata, where there is any, names casoratia.__version__, as
    pyproject.toml does: no stale egg-info on the source path answers for the package."""
    from importlib import metadata

    import casoratia

    pyproject = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"', pyproject, re.M).group(1) == casoratia.__version__
    try:
        installed = metadata.version("casoratia")
    except metadata.PackageNotFoundError:
        return
    assert installed == casoratia.__version__
