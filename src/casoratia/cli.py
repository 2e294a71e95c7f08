"""Command-line front end: verify, sweep, identities, roots, construct.

Exit codes: 0 all enabled checks passed, 2 a check failed (after one
precision escalation) or a usage error, 3 numerical degeneracy or a guard
rejected the instance.  ``verify`` and ``sweep`` share one precision ladder,
``_ladder``.  A failed construction gate (``PrefactorResidue``) is the failed
check ``construction_gates``, and a degenerate escalation leaves the failed
check standing: neither is a degeneracy.  The negative controls of
``identities --quadrature`` are reported beside the identities: one that does
not fire is inconclusive and leaves the exit code alone.  Reports are canonical JSON
certificates; sweeps emit a CSV summary.  All randomness is seeded and worker
merges are sorted, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from datetime import datetime, timezone

import mpmath as mp

from . import __version__, cache as cache_mod
from .conjecture import FormulaSingular, compare
from .dortho import (DegenerateSpectrum, DenominatorCollision, WeightSingular,
                     naive_weight_demo, verify_orthogonality)
from .families import (FAMILIES, ParamSet, SingularStep, draw_params, params_from_values,
                       validate_physical)
from .identities import (check_prefactor_ratio_identity, check_chain_identity,
                         classical_discrete_ortho, eta_identity_residual,
                         partial_fraction_integral_check, chain_identity_exact)
from .miop import (DegenerateIndexSet, IndexSet, PoleAtSample, PrefactorResidue,
                   build_miop, hermiticity_check)
from .numkernel import DEFAULT_BITS, workbits
from .report import (SCHEMA_VERSION, canonical_json, num_str, ortho_report_json, poly_json,
                     real_str)
from .zeros import MultipleRootSuspected, find_zeros

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_DEGENERATE = 3

DEGENERACY_ERRORS = (DegenerateSpectrum, DegenerateIndexSet, WeightSingular,
                     DenominatorCollision, MultipleRootSuspected, PoleAtSample,
                     FormulaSingular, SingularStep)
CONTROL_THRESHOLD = "1e-3"   # a negative control fires when its value reaches this
MODES = ("physical", "generic")


def _tolerances(bits: int) -> dict:
    """Acceptance thresholds, stated at 256 bits and scaled with precision."""
    s = mp.mpf(bits) / 256
    return {
        "offdiag": mp.mpf(10) ** (-25 * s),
        "symmetry": mp.mpf(10) ** (-30 * s),
        "conjecture": mp.mpf(10) ** (-20 * s),
        "eigen": mp.mpf(2) ** (-int(128 * s)),
    }


def _index_set(args) -> IndexSet:
    return IndexSet.make([(d, "I") for d in args.dI] + [(d, "II") for d in args.dII])


def _manifest(args, lam: ParamSet, D: IndexSet | None, N: int | None, checks: dict) -> dict:
    return {
        "command": args.command,
        "family": lam.family,
        "params_digest": lam.digest(),
        "mode": lam.mode,
        "D": None if D is None else [[d, t] for d, t in D.entries],
        "N": N,
        "precision_ladder": [args.prec, 2 * args.prec],
        "backend": args.backend,
        "seed": args.seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat() if args.timestamps else "",
        "checks": checks,
    }


def _emit(args, payload: dict) -> None:
    text = canonical_json(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verify_once(lam: ParamSet, D: IndexSet, N: int, bits: int):
    """(report, conjecture comparison, checks) at bits."""
    tol = _tolerances(bits)
    with workbits(bits + 32):
        rep = verify_orthogonality(lam, D, N, bits)
        conj = compare(lam, D, N, rep)
        checks = {
            "orthogonality": bool(rep.max_offdiag_rel <= tol["offdiag"]),
            "matrix_symmetry": bool(rep.symmetry_defect <= tol["symmetry"]),
            "conjecture": bool(conj.max_rel_err <= tol["conjecture"]),
            "eigen_relation": bool(max(rep.eigen_residuals) <= tol["eigen"]),
            "pa_difference_equation": bool(rep.extras["pa_defect"] <= tol["eigen"]),
            "f_cross_form": bool(rep.f_cross_defect <= tol["eigen"]),
        }
        if lam.mode == "physical":
            # informational: hermiticity is sufficient for orthogonality of the
            # deformed system but the zero-grid relations hold without it
            ok, offenders = hermiticity_check(rep.extras["bundle"], bits)
            rep.extras["hermitian"] = bool(ok)
            rep.extras["hermiticity_witness"] = len(offenders)
        return rep, conj, checks


def _ladder(lam: ParamSet, D: IndexSet, N: int, prec: int):
    """_verify_once at prec and, if a check failed, once more at 2 prec.

    Returns (report, conjecture, checks, bits, attempts) of the last attempt
    that ran to its checks, which is last in attempts.  A failed construction gate is
    the failed check construction_gates (no report).  A degenerate first attempt
    raises; a degenerate escalation leaves the failed attempt standing, with its
    reason in escalation_error.
    """
    attempts = []
    for bits in (prec, 2 * prec):
        attempt = {"precision_bits": bits}
        try:
            rep, conj, checks = _verify_once(lam, D, N, bits)
        except PrefactorResidue as exc:
            rep, conj, checks = None, None, {"construction_gates": False}
            attempt["error"] = f"{type(exc).__name__}: {exc}"
        except DEGENERACY_ERRORS as exc:
            if not attempts:
                raise
            attempts[-1]["escalation_error"] = f"{type(exc).__name__}: {exc}"
            break
        attempt["checks"] = checks
        attempts.append(attempt)
        result = (rep, conj, checks, bits)
        if all(checks.values()):
            break
    return (*result, attempts)


def _instance_rejected(lam: ParamSet, D: IndexSet, N: int, bits: int) -> str | None:
    """Why the guards reject (lam, D, N) at --prec bits before any work, else None."""
    if lam.mode == "physical" and not validate_physical(lam, bits):
        return "parameter set violates the physical-mode conjugation constraints"
    if D.M and D.ell < 1:
        return "index set has ell_D < 1 (trivial deformation)"
    if lam.family == "ch" and lam.mode == "physical" and D.ell % 2 == 1:
        return "continuous Hahn in physical mode needs even ell_D (deg Xi_D should be even)"
    if N + D.ell < 2:
        return "degree N-tilde = N + ell_D below 2: the relations state nothing here"


def cmd_verify(args) -> int:
    lam, D, N = args.lam, _index_set(args), args.N
    rejected = _instance_rejected(lam, D, N, args.prec)
    if rejected:
        print(rejected, file=sys.stderr)
        return EXIT_DEGENERATE
    try:
        rep, conj, checks, _, attempts = _ladder(lam, D, N, args.prec)
    except DEGENERACY_ERRORS as exc:
        print(f"degenerate instance: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    for a in attempts:
        if "error" in a:
            print(f"construction gate failed at {a['precision_bits']} bits: {a['error']}",
                  file=sys.stderr)
        if "escalation_error" in a:
            print(f"escalation past {a['precision_bits']} bits degenerate: "
                  f"{a['escalation_error']}", file=sys.stderr)
    manifest = _manifest(args, lam, D, N, checks)
    if rep is None:
        payload = {"schema_version": SCHEMA_VERSION, "manifest": manifest}
    else:
        payload = ortho_report_json(rep, conj, manifest)
    payload["attempts"] = attempts
    _emit(args, payload)
    failed = [k for k, v in checks.items() if not v]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def grid_index_sets(dmax: int, mmax: int, even_ell_only: bool = False):
    """Index sets with M <= mmax (1 or 2), d_j <= dmax and ell_D >= 1, in sweep order."""
    degs = range(dmax + 1)
    pairs = [[(d, t)] for d in degs for t in ("I", "II")]
    if mmax >= 2:
        pairs += [[(a, t), (b, t)] for a in degs for b in degs if a < b for t in ("I", "II")]
        pairs += [[(a, "I"), (b, "II")] for a in degs for b in degs]
    sets = (IndexSet.make(p) for p in pairs)
    return [D for D in sets if D.ell >= 1 and not (even_ell_only and D.ell % 2)]


def _sweep_jobs(args):
    """The sweep's instances (family, mode, draw, D, N), in sweep order."""
    jobs = []
    for fam in args.families:
        for mode in args.modes:
            for draw in range(args.draws):
                # continuous Hahn in physical mode needs even ell_D
                even = fam == "ch" and mode == "physical"
                for D in grid_index_sets(args.dmax, args.M, even_ell_only=even):
                    for N in range(2, args.N_max + 1):
                        jobs.append((fam, mode, draw, D, N))
    jobs.sort(key=lambda j: (j[0], j[1], j[2], j[3].key(), j[4]))
    return jobs


def cmd_sweep(args) -> int:
    jobs = _sweep_jobs(args)
    results = _run_jobs(jobs, args)
    rows, all_ok = [], True
    for (fam, mode, draw, D, N), res in zip(jobs, results):
        ok, offdiag, conj_err, note = res
        all_ok = all_ok and ok
        rows.append({
            "family": fam, "mode": mode, "draw": draw, "D": D.key(), "N": N,
            "pass": int(ok), "max_offdiag_rel": offdiag, "conjecture_rel_err": conj_err,
            "note": note,
        })
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=["family", "mode", "draw", "D", "N", "pass",
                                        "max_offdiag_rel", "conjecture_rel_err", "note"])
    w.writeheader()
    for r in rows:
        w.writerow(r)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _sweep_one(job_args):
    """One sweep instance; degenerate draws retry with shifted seeds, failed checks never."""
    fam, mode, draw, D, N, prec = job_args
    last = None
    for attempt in range(3):
        lam = draw_params(fam, mode, draw + 1000 * attempt)
        try:
            rep, conj, checks, bits, _ = _ladder(lam, D, N, prec)
        except DEGENERACY_ERRORS as exc:
            last = (False, "", "", f"degenerate: {exc}")
            continue
        offdiag = "" if rep is None else real_str(rep.max_offdiag_rel, bits)
        conj_err = "" if rep is None else real_str(conj.max_rel_err, bits)
        if all(checks.values()):
            return True, offdiag, conj_err, "" if attempt == 0 else f"redrawn:{attempt}"
        return (False, offdiag, conj_err,
                "failed:" + ",".join(k for k, v in checks.items() if not v))
    return last


def _run_jobs(jobs, args):
    payloads = [(f, m, d, D, N, args.prec) for (f, m, d, D, N) in jobs]
    if args.jobs <= 1:
        return [_sweep_one(p) for p in payloads]
    import multiprocessing as mproc
    with mproc.Pool(args.jobs) as pool:
        return pool.map(_sweep_one, payloads)


def cmd_identities(args) -> int:
    lam = args.lam
    rejected = args.quadrature and _instance_rejected(lam, _index_set(args), args.N, args.prec)
    if rejected:
        print(rejected, file=sys.stderr)
        return EXIT_DEGENERATE
    out = {"schema_version": 2, "identities": {}}
    ok = True
    with workbits(args.prec + 32):
        tol = _tolerances(args.prec)
        if args.lemma_eta:
            import random
            rng = random.Random(args.seed)
            worst = mp.mpf(0)
            for _ in range(args.samples):
                a, b, c = (mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
                worst = max(worst, eta_identity_residual(lam.family, a, b, c))
            out["identities"]["lemma_eta"] = real_str(worst, args.prec)
            ok = ok and worst <= mp.mpf(2) ** (-args.prec + 20)
        if args.classical:
            r = classical_discrete_ortho(lam, args.N, bits=args.prec)
            out["identities"]["classical"] = {
                "max_offdiag_rel": real_str(r["max_offdiag_rel"], args.prec),
                "diag_rel_err": real_str(r["diag_rel_err"], args.prec),
            }
            ok = ok and r["max_offdiag_rel"] <= tol["offdiag"] and r["diag_rel_err"] <= tol["conjecture"]
        if args.chain:
            D = _index_set(args)
            dp = (args.dprime, args.tprime)
            dpp = (args.dprime2, args.tprime2)
            if lam.scalars.name == "exact":
                r = chain_identity_exact(lam, D, dp, dpp, args.n)
                out["identities"]["chain_identity_exact"] = {"exact": r["exact"], "points": r["points"]}
                ok = ok and r["exact"]
            else:
                r = check_chain_identity(lam, D, dp, dpp, args.n, samples=args.samples, bits=args.prec)
                out["identities"]["chain"] = {
                    "case": r["case"], "max_residual": real_str(r["max_residual"], args.prec)}
                ok = ok and r["max_residual"] <= tol["eigen"]
        if args.prefactor_ratio:
            D = _index_set(args)
            us = lam.fam.sample_args(args.samples + 2, lam, "prefactor-cli")
            worst = mp.mpf(0)
            for u in us[: args.samples]:
                r = check_prefactor_ratio_identity(lam, D, (args.dprime, args.tprime),
                                            (args.dprime2, args.tprime2), u, bits=args.prec)
                worst = max(worst, r["signed_residual"])
            out["identities"]["prefactor_ratio"] = real_str(worst, args.prec)
            ok = ok and worst <= tol["eigen"]
        if args.quadrature:
            # negative controls, never failures; the naive one needs N >= 3: at N = 2 its
            # one Gram entry, sum_j P_{D,0}(eta_j) / P'_{D,2}(eta_j), vanishes identically
            D, N = _index_set(args), args.N
            try:
                values = {"naive_weight": naive_weight_demo(lam, D, N, args.prec)} if N >= 3 else {}
                values["partial_fraction"] = partial_fraction_integral_check(
                    lam, D, N, 0, 1, bits=min(args.prec, 192))["rel"]
            except (PrefactorResidue, *DEGENERACY_ERRORS) as exc:
                return _construction_exit(exc)
            out["controls"] = {k: {"value": real_str(v, args.prec), "threshold": CONTROL_THRESHOLD,
                                   "fired": bool(v >= mp.mpf(CONTROL_THRESHOLD))}
                               for k, v in values.items()}
    _emit(args, out)
    for name, ctl in out.get("controls", {}).items():
        if not ctl["fired"]:
            print(f"control inconclusive: {name} = {mp.nstr(mp.mpf(ctl['value']), 3)} "
                  f"below {CONTROL_THRESHOLD}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _construction_exit(exc) -> int:
    """The exit code of a failed build (roots, construct, the controls), its reason on stderr."""
    if isinstance(exc, PrefactorResidue):
        print(f"construction gate failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"degenerate instance: {exc}", file=sys.stderr)
    return EXIT_DEGENERATE


def cmd_roots(args) -> int:
    lam = args.lam
    D = _index_set(args)
    with workbits(args.prec + 32):
        try:
            bundle = build_miop(lam, D, args.N, args.prec)
            zs = find_zeros(bundle.P[args.N], args.prec, lam.fam)
        except (PrefactorResidue, *DEGENERACY_ERRORS) as exc:
            return _construction_exit(exc)
        payload = {
            "schema_version": 1,
            "eta": [num_str(e, args.prec) for e in zs.eta],
            "x": [num_str(x, args.prec) for x in zs.x],
            "min_pair_distance": real_str(zs.min_pair_distance, args.prec),
            "residual_bound": real_str(zs.residual_bound, args.prec),
            "manifest": _manifest(args, lam, D, args.N, {}),
        }
    _emit(args, payload)
    return EXIT_OK


def cmd_construct(args) -> int:
    lam = args.lam
    D = _index_set(args)
    cdir = cache_mod.cache_dir(args.cache)
    key = cache_mod.cache_key(kind="bundle", family=lam.family, params=lam.digest(),
                              D=D.key(), n_max=args.N, prec=args.prec, backend=args.backend)
    hit = cache_mod.load(cdir, key)
    if hit is not None:
        # the bundle fields depend on the key alone; the manifest is this run's
        hit["manifest"] = _manifest(args, lam, D, args.N, {})
        _emit(args, hit)
        return EXIT_OK
    with workbits(args.prec + 32):
        try:
            bundle = build_miop(lam, D, args.N, args.prec)
        except (PrefactorResidue, *DEGENERACY_ERRORS) as exc:
            return _construction_exit(exc)
        payload = {
            "schema_version": 1,
            "xi": poly_json(bundle.xi, args.prec),
            "xi_shifted_params": poly_json(bundle.xi_shift, args.prec),
            "P": {str(n): poly_json(p, args.prec) for n, p in bundle.P.items()},
            "gates": {k: real_str(v, args.prec) for k, v in bundle.gates.items()},
            "manifest": _manifest(args, lam, D, args.N, {}),
        }
    cache_mod.store(cdir, key, payload)
    _emit(args, payload)
    return EXIT_OK


def _prec(text: str) -> int:
    """--prec: working precision in bits, at least 64."""
    bits = int(text)
    if bits < 64:
        raise argparse.ArgumentTypeError(f"precision must be >= 64 bits, got {bits}")
    return bits


def _at_least(low: int):
    """An argparse type: an int >= low."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n
    return parse


def _degrees(text: str) -> list:
    """--dI/--dII: distinct nonnegative degrees, separated by commas or spaces."""
    degs = [int(t) for t in text.replace(",", " ").split()]
    if any(d < 0 for d in degs) or len(set(degs)) != len(degs):
        raise argparse.ArgumentTypeError(
            f"degrees must be nonnegative and distinct, got {text!r}")
    return degs


def _names(allowed):
    """An argparse type: distinct names from allowed, separated by commas."""
    def parse(text: str) -> list:
        names = text.split(",")
        if not set(names) <= set(allowed) or len(set(names)) < len(names):
            raise argparse.ArgumentTypeError(f"want distinct names from {','.join(allowed)}")
        return names
    return parse


def _usage_error(args) -> str | None:
    """The message for flag values no run can use, else None.  Otherwise, for every
    command but sweep, args.lam is the instance's ParamSet, built here once."""
    if args.out and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")):
        return f"--out {args.out}: not a file name in an existing directory"
    cache = args.command == "construct" and (args.cache or os.environ.get(cache_mod.ENV_VAR))
    if cache and os.path.exists(cache) and not os.path.isdir(cache):
        return f"cache {cache} (--cache or ${cache_mod.ENV_VAR}) exists and is not a directory"
    if args.command == "sweep":
        return None if _sweep_jobs(args) else (
            "the sweep grid is empty: no index set with d_j <= --dmax and M <= --M "
            "has ell_D >= 1 (even for cH in physical mode)")
    if args.params:
        try:
            with open(args.params) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"--params: cannot read a JSON parameter file: {exc}"
        family = doc.get("family") if isinstance(doc, dict) else None
        if family not in FAMILIES:
            return f"--params: family must be one of {', '.join(FAMILIES)}, got {family!r}"
        if args.family and args.family != family:
            return "--family disagrees with the params file"
        mode = doc.get("mode", "physical")
        if args.mode and args.mode != mode:
            return "--mode disagrees with the params file"
        if "a" not in doc:
            return "--params: no parameter list \"a\""
        try:
            args.lam = params_from_values(family, doc["a"], doc.get("q"), mode,
                                          backend=args.backend, bits=args.prec)
        except (TypeError, ValueError, ArithmeticError) as exc:
            return f"--params: bad parameter values: {exc}"
    elif not args.family:
        return "need --family (or --params FILE)"
    elif args.backend == "exact":
        return "exact backend needs --params with rational values"
    else:
        args.lam = draw_params(args.family, args.mode or "physical", args.seed)
    D = [(d, "I") for d in args.dI] + [(d, "II") for d in args.dII]
    if len(D) > 3:
        # the case-(3) constant zeta has closed forms for the mixed counts of M <= 3
        return "index sets with more than 3 entries (--dI and --dII together) are out of scope"
    if args.command == "roots" and _index_set(args).ell + args.N < 1:
        return "roots needs deg P_{D,N} = ell_D + N >= 1"
    if args.lam.family == "aw":
        # a type reflects its pair's a_k to q / a_k; verify takes b' on both type orders
        types = {"I", "II"} if args.command == "verify" else {t for _, t in D}
        if args.command == "identities" and (args.chain or args.prefactor_ratio):
            types |= {args.tprime, args.tprime2}
        zero = [k for t in sorted(types) for k in args.lam.fam.pairs[t] if args.lam.a[k] == 0]
        if zero:
            return f"--params: AW parameter a_{zero[0] + 1} is 0, and {args.command} divides by it"
    if args.command != "identities":
        return None
    if not (args.lemma_eta or args.classical or args.chain or args.prefactor_ratio
            or args.quadrature):
        return ("no identity selected: give --lemma-eta, --classical, --chain, "
                "--prefactor-ratio or --quadrature")
    if D and not (args.chain or args.prefactor_ratio or args.quadrature):
        return ("--dI/--dII name D for --chain or --prefactor-ratio, or the controls of "
                "--quadrature; no other identity reads D")
    dp, dpp = (args.dprime, args.tprime), (args.dprime2, args.tprime2)
    if args.classical and args.N < 1:
        return "--classical needs --N >= 1"
    if args.quadrature and args.N < 2:
        return "--quadrature needs --N >= 2"
    if args.quadrature and args.backend == "exact":
        return "--quadrature needs the float backend: mp.quad integrates in floats"
    if args.prefactor_ratio and args.tprime == args.tprime2:
        return "--prefactor-ratio needs mixed types: --tprime and --tprime2 must differ"
    if args.prefactor_ratio and args.backend == "exact":
        # the identity takes float square roots and conjugates at float sample points
        return "--prefactor-ratio needs the float backend"
    if args.prefactor_ratio and args.lam.mode != "physical":
        # the identity conjugates V and beta, so it holds for physical parameters only
        return "--prefactor-ratio needs physical parameters (mode physical)"
    if (args.chain or args.prefactor_ratio) and (dp == dpp or dp in D or dpp in D):
        return "d' and d'' (--dprime/--tprime, --dprime2/--tprime2) must be distinct and not in D"
    return None


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """Each subcommand declares exactly the flags it reads.  Made once per process: every
    default is immutable, so no call can leave state in it for the next."""
    ap = argparse.ArgumentParser(prog="casoratia",
                                 description="multi-indexed cH/W/AW discrete-orthogonality verifier")
    sub = ap.add_subparsers(dest="command", required=True)

    def instance(p):
        """Flags naming one instance (parameters, D, N) and where its output goes."""
        p.add_argument("--family", choices=FAMILIES)
        p.add_argument("--params", help="JSON parameter file")
        p.add_argument("--mode", choices=MODES, help="default: physical, or the params file's")
        p.add_argument("--dI", type=_degrees, default=(), help="type-I degrees, e.g. '1,2'")
        p.add_argument("--dII", type=_degrees, default=(), help="type-II degrees")
        p.add_argument("--N", type=_at_least(0), default=3)
        p.add_argument("--prec", type=_prec, default=DEFAULT_BITS)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out")

    def backend(p):
        p.add_argument("--backend", choices=["float", "exact"], default="float")

    p = sub.add_parser("verify", help="full discrete-orthogonality + conjecture run")
    instance(p)
    p.add_argument("--timestamps", action="store_true")
    p.set_defaults(backend="float")  # the pipeline is float-only; the manifest says so
    p = sub.add_parser("sweep", help="grid of instances, aggregate CSV")
    p.add_argument("--prec", type=_prec, default=DEFAULT_BITS)
    p.add_argument("--out")
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--families", type=_names(FAMILIES), default=tuple(FAMILIES))
    p.add_argument("--modes", type=_names(MODES), default=tuple(MODES))
    p.add_argument("--draws", type=_at_least(1), default=1)
    p.add_argument("--dmax", type=_at_least(0), default=3)
    p.add_argument("--M", type=int, choices=[1, 2], default=2)
    p.add_argument("--N-max", dest="N_max", type=_at_least(2), default=4)
    p = sub.add_parser("identities", help="supporting identity checks")
    instance(p)
    backend(p)
    p.add_argument("--lemma-eta", action="store_true")
    p.add_argument("--classical", action="store_true")
    p.add_argument("--chain", action="store_true")
    p.add_argument("--prefactor-ratio", action="store_true")
    p.add_argument("--quadrature", action="store_true")
    p.add_argument("--samples", type=_at_least(1), default=10)
    p.add_argument("--n", type=_at_least(0), default=1)
    p.add_argument("--dprime", type=_at_least(0), default=0)
    p.add_argument("--tprime", choices=["I", "II"], default="I")
    p.add_argument("--dprime2", type=_at_least(0), default=2)
    p.add_argument("--tprime2", choices=["I", "II"], default="I")
    p = sub.add_parser("roots", help="zero set of P_{D,N}")
    instance(p)
    backend(p)
    p.add_argument("--timestamps", action="store_true")
    p = sub.add_parser("construct", help="build and emit (and cache) a bundle")
    instance(p)
    backend(p)
    p.add_argument("--cache")
    p.add_argument("--timestamps", action="store_true")
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    problem = _usage_error(args)
    if problem:
        ap.error(problem)
    handlers = {
        "verify": cmd_verify,
        "sweep": cmd_sweep,
        "identities": cmd_identities,
        "roots": cmd_roots,
        "construct": cmd_construct,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
