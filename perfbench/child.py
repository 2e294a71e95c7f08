"""One benchmark unit in a fresh process: set up casoratia, then run a timed pass.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

Set-up is the import of casoratia plus ``miop.delta_tilde`` for all six
(family, type) pairs.  The pass depends on the unit's kind:

- ``verify``: ``cli.main(["verify", ...])`` per instance, report to a file;
- ``exact``: ``build_miop(..., check=False)`` per index set on rational
  parameters, then ``identities.chain_identity_exact``; the degree laws and
  the coefficient-exact shape invariance are checked after the pass;
- ``sweep``: one ``cli.main(["sweep", ...])``, with set-up left inside it as
  a user pays it: the set-up step is skipped, and set-up time is the import
  plus the time spent in ``miop.delta_tilde`` during the sweep.

With ``"trace": true`` the functions listed in tracing.py are wrapped before
set-up and the spans are written next to the result.  With
``"sample_speed": true`` the host's speed is sampled from SIGALRM during
set-up and the pass (speed.py).  Every interval is recorded as a pair of
``time.perf_counter`` readings, which run.py normalises by the samples.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

SETUP_PAIRS = [(f, t) for f in ("ch", "w", "aw") for t in ("I", "II")]
# module-level caches that must be empty in a fresh process
CACHES = [("miop", "_BUILDERS"), ("miop", "_DTILDE"), ("identities", "_MIXED_CONST"),
          ("conjecture", "_ZETA")]


def _run_verify(cli, spec, tracer, instances):
    for k, inst in enumerate(spec["instances"]):
        argv = inst["argv"] + ["--out", os.path.join(spec["report_dir"], f"{k}.json")]
        if tracer is not None:
            tracer.instance = inst["id"]
        err = io.StringIO()
        rec = {"id": inst["id"], "exit": None, "error": None}
        rec["t0"] = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rec["exit"] = cli.main(argv)
        except SystemExit as exc:
            rec["exit"] = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an instance that crashes counts as not passing
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["t1"] = time.perf_counter()
        rec["stderr"] = err.getvalue()[-400:]
        instances.append(rec)


def _exact_checks(bundle, ell: int) -> list:
    """Degree laws and coefficient-exact shape invariance of one exact bundle."""
    failed = []
    if bundle.xi.degree != ell or bundle.xi.lead().is_zero():
        failed.append("xi_degree_law")
    for n, p in sorted(bundle.P.items()):
        if p.degree != ell + n or p.lead().is_zero():
            failed.append(f"P{n}_degree_law")
    p0, xs = bundle.P[0].trim(), bundle.xi_shift.trim()
    if p0.degree != xs.degree:
        failed.append("shape_invariance")
    else:
        ratio = p0.lead() / xs.lead()
        if not all((c1 - ratio * c2).is_zero() for c1, c2 in zip(p0.coeffs, xs.coeffs)):
            failed.append("shape_invariance")
    return failed


def _run_exact(spec, tracer, instances):
    from casoratia.families import params_from_values
    from casoratia.identities import chain_identity_exact
    from casoratia.miop import IndexSet, build_miop

    lam = params_from_values(spec["family"], spec["a_vals"], spec["q_val"],
                             mode="physical", backend="exact")
    built = []
    for inst in spec["instances"]:
        if tracer is not None:
            tracer.instance = inst["id"]
        rec = {"id": inst["id"], "error": None, "failed": [], "t0": time.perf_counter()}
        try:
            bundle = build_miop(lam, IndexSet.make(inst["entries"]), spec["n_max"], check=False)
        except Exception as exc:  # a degenerate build counts as not passing
            bundle = None
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["t1"] = time.perf_counter()
        built.append((rec, bundle, inst["ell"]))
        instances.append(rec)
    for ch in spec["chains"]:
        if tracer is not None:
            tracer.instance = ch["id"]
        rec = {"id": ch["id"], "error": None, "failed": [], "chain": True,
               "t0": time.perf_counter()}
        try:
            res = chain_identity_exact(lam, IndexSet.make([]), tuple(ch["dprime"]),
                                       tuple(ch["dprime2"]), ch["n"])
            if res["exact"] is not True:
                rec["failed"].append("chain_identity_exact")
        except Exception as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["t1"] = time.perf_counter()
        instances.append(rec)
    return built


def _run_sweep(cli, spec, tracer, instances) -> tuple:
    """cli.main(["sweep", ...]) -> (exit code, [t0, t1] of each delta_tilde call).

    Untraced, each instance is timed around _sweep_one, and the delta-tilde
    calibrations, which a sweep runs lazily inside its first instances, are
    timed around miop.delta_tilde.
    """
    if tracer is not None:
        return cli.main(["sweep"] + spec["argv"]), None
    from casoratia import miop
    from tracing import replace_everywhere, sweep_instance_id, undo_all

    dtilde = []
    sweep_one, delta_tilde = cli._sweep_one, miop.delta_tilde

    def timed_instance(job_args):
        t0 = time.perf_counter()
        try:
            return sweep_one(job_args)
        finally:
            instances.append({"id": sweep_instance_id(job_args), "t0": t0,
                              "t1": time.perf_counter()})

    def timed_dtilde(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return delta_tilde(*args, **kwargs)
        finally:
            dtilde.append([t0, time.perf_counter()])

    undo = (replace_everywhere(sweep_one, timed_instance)
            + replace_everywhere(delta_tilde, timed_dtilde))
    try:
        return cli.main(["sweep"] + spec["argv"]), dtilde
    finally:
        undo_all(undo)


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    t_start = time.perf_counter()
    sys.path.insert(0, src)
    import casoratia
    import casoratia.cli as cli
    if not os.path.abspath(casoratia.__file__).startswith(src + os.sep):
        raise SystemExit(f"casoratia was imported from {casoratia.__file__}, not {src}")
    for modname, attr in CACHES:
        mod = sys.modules.get(f"casoratia.{modname}")
        if getattr(mod, attr, None):
            raise SystemExit(f"casoratia.{modname}.{attr} is not empty in a fresh process")

    t_import = time.perf_counter()
    sampler = None
    if spec["sample_speed"]:
        from speed import Sampler
        sampler = Sampler()
        sampler.start()
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    result = {"setup": None, "instances": []}
    try:
        if spec["kind"] != "sweep":
            from casoratia import miop
            if tracer is not None:
                tracer.instance = "setup"
            for fam, vtype in SETUP_PAIRS:
                miop.delta_tilde(fam, vtype)
            result["setup"] = [[t_start, time.perf_counter()]]
        t0 = time.perf_counter()
        built = []
        if spec["kind"] == "verify":
            _run_verify(cli, spec, tracer, result["instances"])
        elif spec["kind"] == "exact":
            built = _run_exact(spec, tracer, result["instances"])
        elif spec["kind"] == "sweep":
            result["exit"], dtilde = _run_sweep(cli, spec, tracer, result["instances"])
            if dtilde is not None:
                result["setup"] = [[t_start, t_import]] + dtilde
        result["pass"] = [t0, time.perf_counter()]
    finally:
        if sampler is not None:
            sampler.stop()
        if tracer is not None:
            tracer.restore()
    for rec, bundle, ell in built:
        if bundle is not None:
            rec["failed"] = _exact_checks(bundle, ell)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["speed_samples"] = sampler.samples if sampler is not None else []
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_jsonl(spec["trace_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
