"""casoratia benchmark: one workload at one seed, end-to-end or per-layer metrics.

Usage, from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload grid|deep|sweep|exact --seed N \
        --seconds S --trace 0|1

Every unit of work runs in a fresh process (perfbench/child.py), so the
program's caches start empty and no pass warms another.  With --trace 0 the
workload is repeated, in fresh processes, while another repetition still fits
in --seconds, and each end-to-end metric is the median over repetitions.
End-to-end times are normalised by the host's speed, sampled in the same
process while the program runs (speed.py); the raw times are recorded too.
With --trace 1 one untraced and one traced repetition run, and the per-layer
metrics come from the traced one.  Outputs are checked every time; a run that
fails a check prints the problems and exits 1 without a result.  The last
line of stdout is the result JSON; the full record (verdict table, spans,
reports) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import speed
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUN_LIMIT_S = 170.0
# each --jobs 1 sweep also gives one set-up sample, so three give setup_s a median
SWEEP_JOBS1_RUNS = 3
# The --jobs 2 sweep runs every time, for the CSV check and the process-tree RSS.
# Its wall time is a per-layer metric: it needs both vCPUs of a shared 2-vCPU
# host, and for the same sweep it ranged from 5.5 to 9.7 s within one hour.


class BenchError(RuntimeError):
    pass


# .. gates ............................................................................


def tolerances(bits: int) -> dict:
    """The CLI's acceptance gates (cli._tolerances), stated at 256 bits, as exact fractions."""
    s = Fraction(bits, 256)
    if s.denominator != 1:
        raise BenchError(f"unexpected precision {bits}")
    s = int(s)
    return {"offdiag": Fraction(1, 10 ** (25 * s)), "symmetry": Fraction(1, 10 ** (30 * s)),
            "conjecture": Fraction(1, 10 ** (20 * s)), "eigen": Fraction(1, 2 ** (128 * s))}


def num(text: str):
    return float("inf") if text in ("inf", "+inf") else Fraction(text)


def recheck_report(rep: dict, inst: dict) -> tuple[list, list]:
    """(failed checks, problems) of one verify report, re-derived from its numbers."""
    problems = []
    bits = rep["precision_bits"]
    tol = tolerances(bits)
    got = {
        "orthogonality": num(rep["max_offdiag_rel"]) <= tol["offdiag"],
        "matrix_symmetry": num(rep["symmetry_defect"]) <= tol["symmetry"],
        "conjecture": num(rep["conjecture"]["max_rel_err"]) <= tol["conjecture"],
        "eigen_relation": max(num(r) for r in rep["eigen_residuals"]) <= tol["eigen"],
        "pa_difference_equation": num(rep["pa_defect"]) <= tol["eigen"],
        "f_cross_form": num(rep["f_cross_defect"]) <= tol["eigen"],
    }
    claimed = rep["manifest"]["checks"]
    if claimed != got:
        problems.append(f"report checks {claimed} disagree with its numbers {got}")
    last = rep["attempts"][-1]
    if last["precision_bits"] != bits or last["checks"] != claimed:
        problems.append("last attempt differs from the reported one")
    if len(rep["attempts"]) > 1 and all(rep["attempts"][0]["checks"].values()):
        problems.append("escalated although the first attempt passed")
    size = inst["N"] + inst["ell"]
    if len(rep["k"]) != size or len(rep["gram"]) != size or len(rep["zeros"]["eta"]) != size:
        problems.append(f"basis, Gram or zero count differs from N + ell_D = {size}")
    failed = sorted(k for k, v in got.items() if not v)
    if (inst["exit"] == 0) != (not failed):
        problems.append(f"exit {inst['exit']} but failed checks {failed}")
    return failed, problems


# .. processes ........................................................................


def _tree_rss_kb(pid: int) -> int:
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo += [int(c) for c in fh.read().split()]
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


def run_process(argv, deadline, log_path, env=None, poll_rss=False) -> dict:
    """Run argv in its own session, wait for it, and kill its whole tree on timeout."""
    peak = 0
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=log,
                                start_new_session=True)
        try:
            while proc.poll() is None:
                if time.perf_counter() > deadline:
                    raise BenchError(f"timed out: {' '.join(argv[:4])} ...")
                if poll_rss:
                    peak = max(peak, _tree_rss_kb(proc.pid))
                    time.sleep(0.02)
                else:
                    try:
                        proc.wait(timeout=max(0.1, deadline - time.perf_counter()))
                    except subprocess.TimeoutExpired:
                        pass
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    wall = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    return {"exit": proc.returncode, "wall_s": wall, "cpu_s": cpu, "peak_rss_kb": peak}


def timings(res: dict) -> dict:
    """Raw and normalised seconds of a unit's set-up, pass and instances.

    Without speed samples (traced runs) only the raw times are given.
    """
    samples = res["speed_samples"]

    def both(intervals):
        if not samples:
            return sum(t1 - t0 for t0, t1 in intervals), None
        pairs = [speed.normalise(t0, t1, samples) for t0, t1 in intervals]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)

    for rec in res["instances"]:
        rec["time_s"], rec["time_norm_s"] = both([(rec["t0"], rec["t1"])])
    res["pass_s"], res["pass_norm_s"] = both([res["pass"]])
    if res["setup"] is not None:
        res["setup_s"], res["setup_norm_s"] = both(res["setup"])
        res["import_s"], res["import_norm_s"] = both(res["setup"][:1])
    return res


def run_unit(unit: dict, rdir: str, trace: bool, deadline: float, sample: bool) -> dict:
    name = unit["name"]
    spec = dict(unit, src=SRC, trace=trace, sample_speed=sample,
                report_dir=os.path.join(rdir, name + "-reports"),
                trace_path=os.path.join(rdir, name + ".spans.jsonl"))
    os.makedirs(spec["report_dir"], exist_ok=True)
    spec_path = os.path.join(rdir, name + ".spec.json")
    res_path = os.path.join(rdir, name + ".result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = run_process([sys.executable, os.path.join(HERE, "child.py"), spec_path, res_path],
                       deadline, os.path.join(rdir, name + ".log"))
    if proc["exit"] != 0 or not os.path.exists(res_path):
        with open(os.path.join(rdir, name + ".log")) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"unit {name} exited {proc['exit']}:\n{tail}")
    with open(res_path) as fh:
        res = json.load(fh)
    res.update(unit=unit, spec=spec, wall_s=proc["wall_s"])
    return timings(res)


# .. one repetition of a workload ........................................................


def _sweep_argv(jobs: int, out: str) -> list:
    return wl.SWEEP_ARGS + ["--jobs", str(jobs), "--out", out]


def run_round(workload: str, seed: int, rdir: str, trace: bool, deadline: float,
              sample: bool) -> dict:
    os.makedirs(rdir, exist_ok=True)
    if workload == "sweep":
        return run_sweep_round(rdir, trace, deadline, sample)
    units = {"grid": wl.grid_units, "deep": wl.deep_units, "exact": wl.exact_units}[workload](seed)
    return {"units": [run_unit(u, rdir, trace, deadline, sample) for u in units]}


def run_sweep_round(rdir: str, trace: bool, deadline: float, sample: bool) -> dict:
    """Three fresh --jobs 1 sweeps (one traced when tracing), then one --jobs 2 sweep."""
    jobs1 = []
    for k in range(1 if trace else SWEEP_JOBS1_RUNS):
        csv1 = os.path.join(rdir, f"sweep-jobs1-{k}.csv")
        res = run_unit({"kind": "sweep", "name": f"sweep-jobs1-{k}",
                        "argv": _sweep_argv(1, csv1)}, rdir, trace, deadline, sample)
        jobs1.append(dict(res, csv=csv1))
    out = {"jobs1": jobs1}
    if trace:
        return out
    csv2 = os.path.join(rdir, "sweep-jobs2.csv")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out["jobs2"] = run_process([sys.executable, "-m", "casoratia.cli", "sweep"]
                               + _sweep_argv(wl.SWEEP_JOBS, csv2),
                               deadline, os.path.join(rdir, "sweep-jobs2.log"), env=env,
                               poll_rss=True)
    out["jobs2"]["csv"] = csv2
    return out


# .. correctness ..............................................................................


def check_round(workload: str, rnd: dict) -> tuple[list, list]:
    """(verdict table, problems).  Each verdict is [instance, outcome, failed checks]."""
    if workload == "sweep":
        return check_sweep(rnd)
    table, problems = [], []
    for res in rnd["units"]:
        expected = res["unit"]["instances"] + res["unit"].get("chains", [])
        if len(expected) != len(res["instances"]):
            problems.append(f"unit {res['unit']['name']} ran {len(res['instances'])} "
                            f"of {len(expected)} instances")
        for k, (inst, rec) in enumerate(zip(expected, res["instances"])):
            if inst["id"] != rec["id"]:
                problems.append(f"instance order differs: {inst['id']} vs {rec['id']}")
            if rec.get("error"):
                table.append([rec["id"], "exception", [rec["error"].split(":")[0]]])
            elif workload == "exact":
                table.append([rec["id"], "fail" if rec["failed"] else "pass", rec["failed"]])
                problems += [f"{rec['id']}: {f} failed" for f in rec["failed"]]
            elif rec["exit"] == 3:
                table.append([rec["id"], 3, ["degenerate"]])
            elif rec["exit"] in (0, 2):
                path = os.path.join(res["spec"]["report_dir"], f"{k}.json")
                try:
                    with open(path) as fh:
                        rep = json.load(fh)
                    failed, probs = recheck_report(rep, dict(inst, exit=rec["exit"]))
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    failed, probs = [], [f"unreadable report: {type(exc).__name__}: {exc}"]
                table.append([rec["id"], rec["exit"], failed])
                problems += [f"{rec['id']}: {p}" for p in probs]
            else:
                table.append([rec["id"], rec["exit"], []])
                problems.append(f"{rec['id']}: unexpected exit code {rec['exit']}")
    return table, problems


def _passed(entry) -> bool:
    return entry[1] in (0, "pass") and not entry[2]


def _csv_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(rnd: dict) -> tuple[list, list]:
    problems = []
    runs = rnd["jobs1"] + ([rnd["jobs2"]] if "jobs2" in rnd else [])
    data = []
    for run in runs:
        with open(run["csv"], "rb") as fh:
            data.append(fh.read())
    if any(d != data[0] for d in data):
        problems.append("sweep CSVs differ between the --jobs 1 and --jobs 2 runs")
    rows = _csv_rows(runs[0]["csv"])
    keys = sorted((r["family"], r["mode"], r["draw"], r["D"], r["N"]) for r in rows)
    if keys != wl.sweep_rows():
        problems.append("sweep rows differ from the requested grid")
    tol = tolerances(256)
    table = []
    for r in rows:
        key = f"{r['family']}/{r['mode']}/{r['draw']}/{r['D']}/N{r['N']}"
        note = r["note"]
        if r["pass"] == "1":
            if (num(r["max_offdiag_rel"]) > tol["offdiag"]
                    or num(r["conjecture_rel_err"]) > tol["conjecture"]):
                problems.append(f"{key}: passes with values above the gates")
            if note and not note.startswith("redrawn:"):
                problems.append(f"{key}: unexpected note {note!r}")
            table.append([key, "pass", []])
        elif note.startswith("failed:"):
            table.append([key, "fail", note[len("failed:"):].split(",")])
        elif note.startswith("degenerate:"):
            table.append([key, "fail", ["degenerate"]])
        else:
            problems.append(f"{key}: pass={r['pass']} with note {note!r}")
            table.append([key, "fail", []])
    want = 0 if all(_passed(e) for e in table) else 2
    exits = [run["exit"] for run in runs]
    if any(e != want for e in exits):
        problems.append(f"sweep exit codes {exits}, expected {want}")
    return table, problems


# .. metrics .................................................................................


def tail(times: list) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with ten samples beyond it.

    With fewer than 11 samples no percentile above the median can be resolved,
    so the median is given, as percentile 50.
    """
    xs = sorted(times)
    n = len(xs)
    if n < 11:
        return statistics.median(xs), 50.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def round_metrics(workload: str, rnd: dict, table: list, norm: bool) -> dict:
    """One repetition's end-to-end metrics, in normalised seconds if norm, else raw."""
    sfx = "_norm_s" if norm else "_s"
    m = {"pass_ratio": sum(_passed(e) for e in table) / len(table)}
    if workload == "sweep":
        units = rnd["jobs1"]
        # a --jobs 1 sweep's wall is its import and its pass; median of three
        m["wall_s"] = statistics.median(u["import" + sfx] + u["pass" + sfx] for u in units)
        m["peak_rss_mb"] = rnd["jobs2"]["peak_rss_kb"] / 1024
    else:
        units = rnd["units"]
        m["wall_s"] = sum(u["pass" + sfx] for u in units)
        m["peak_rss_mb"] = max(u["maxrss_kb"] for u in units) / 1024
    m["setup_samples"] = [u["setup" + sfx] for u in units]
    times = [i["time" + sfx] for u in units for i in u["instances"] if not i.get("chain")]
    m["instance_p50_s"] = statistics.median(times)
    m["instance_tail_s"], m["instance_tail_pct"], m["instance_count"] = tail(times)
    return m


def summarise(per_round: list) -> dict:
    """End-to-end metrics of a run: medians over its repetitions."""
    out = {k: statistics.median(r[k] for r in per_round)
           for k in ("wall_s", "instance_p50_s", "instance_tail_s", "peak_rss_mb", "pass_ratio")}
    out["setup_s"] = statistics.median(s for r in per_round for s in r["setup_samples"])
    return out


def layer_metrics(workload: str, untraced: dict, traced: dict, names: list) -> dict:
    units = traced["units"] if "units" in traced else traced["jobs1"]
    spans, counts = {}, {}
    for u in units:
        for name, rec in u["trace"]["spans"].items():
            acc = spans.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for k in acc:
                acc[k] += rec[k]
        for name, c in u["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + c
    out = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in counts:
            out[name] = counts[name]
        elif base in spans and field in ("s", "self_s", "calls"):
            out[name] = spans[base][field]
        else:
            out[name] = 0
    p_calls = spans.get("miop.Builder.P", {}).get("calls", 0)
    out["miop.Builder.P.hit_ratio"] = counts.get("miop.Builder.P.hits", 0) / p_calls if p_calls else 0
    if workload == "sweep":
        j1 = statistics.median(u["wall_s"] for u in untraced["jobs1"])
        j2 = untraced["jobs2"]["wall_s"]
        out["cli.sweep.wall_jobs2_s"] = j2
        out["cli.sweep.cpu_s"] = untraced["jobs2"]["cpu_s"]
        out["cli.sweep.idle_s"] = wl.SWEEP_JOBS * j2 - untraced["jobs2"]["cpu_s"]
        out["cli.sweep.parallel_efficiency"] = j1 / (wl.SWEEP_JOBS * j2)
        out["cli.sweep.redraws"] = sum(int(r["note"][len("redrawn:"):])
                                       for r in _csv_rows(untraced["jobs2"]["csv"])
                                       if r["note"].startswith("redrawn:"))
        base_u = statistics.median(u["pass_s"] for u in untraced["jobs1"])
        base_t = traced["jobs1"][0]["pass_s"]
    else:
        base_u = sum(u["pass_s"] for u in untraced["units"])
        base_t = sum(u["pass_s"] for u in traced["units"])
    out["trace.overhead_ratio"] = base_t / base_u
    return out


# .. host context ..............................................................................


def ref_kernel_s() -> float:
    """speed.py's loop at a fixed larger size: host drift over a whole run."""
    speed.ref_loop_s()
    return speed.ref_loop_s(20 * speed.LOOP_ITERATIONS)


def host_context() -> dict:
    import mpmath
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "mpmath_backend": mpmath.libmp.BACKEND}


# .. main .....................................................................................


def digest(table: list) -> str:
    return hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["grid", "deep", "sweep", "exact"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    t_begin = time.perf_counter()
    deadline = t_begin + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "casoratia", "__init__.py")):
        print(f"no casoratia source under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    out_dir = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = host_context()
    env["ref_kernel_s_start"] = ref_kernel_s()

    rounds, problems, tables = [], [], []
    try:
        if args.trace:
            for k, traced in enumerate((False, True)):
                rounds.append(run_round(args.workload, args.seed,
                                        os.path.join(out_dir, f"round{k}"), traced, deadline,
                                        sample=False))
        else:
            while True:
                r0 = time.perf_counter()
                rounds.append(run_round(args.workload, args.seed,
                                        os.path.join(out_dir, f"round{len(rounds)}"),
                                        False, deadline, sample=True))
                now = time.perf_counter()
                if now - t_begin + (now - r0) > args.seconds:
                    break
    except BenchError as exc:
        problems.append(str(exc))
    for rnd in rounds:
        table, probs = check_round(args.workload, rnd)
        tables.append(table)
        problems += probs
    if len({digest(t) for t in tables}) > 1:
        problems.append("verdicts differ between repetitions of the same inputs")
    env["ref_kernel_s_end"] = ref_kernel_s()
    if problems:
        for p in problems:
            print(f"CHECK FAILED: {p}", file=sys.stderr)
        return 1

    # in a traced run only the first, untraced repetition is timed
    timed = rounds[:1] if args.trace else rounds
    per_round_raw = [round_metrics(args.workload, r, t, False) for r, t in zip(timed, tables)]
    raw = summarise(per_round_raw)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(rounds), "env": env, "verdicts": tables[0],
              "verdict_digest": digest(tables[0]), "per_round_raw": per_round_raw,
              "raw": raw}
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        metrics = layer_metrics(args.workload, rounds[0], rounds[1], names)
        specs = bench["per_layer"]
        per_round = per_round_raw
    else:
        per_round = [round_metrics(args.workload, r, t, True) for r, t in zip(timed, tables)]
        record["per_round"] = per_round
        metrics = summarise(per_round)
        speeds = [speed.REF_NOMINAL_S / loop for rnd in rounds
                  for u in rnd.get("units", rnd.get("jobs1")) for _, loop, _ in u["speed_samples"]]
        env["host_speed_median"] = statistics.median(speeds)
        env["host_speed_samples"] = len(speeds)
        specs = bench["end_to_end"]
    attempted = sum(len(t) for t in tables)
    result = {"correct": True, "attempted": attempted,
              "failed": attempted - sum(_passed(e) for t in tables for e in t),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in specs}}
    record["result"] = result
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"casoratia benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} repetitions={len(rounds)}")
    print("host  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    fails = [e for e in tables[0] if not _passed(e)]
    print(f"verdicts  {len(tables[0])} instances  digest={digest(tables[0])}  "
          f"not passing: {', '.join(f'{e[0]} ({e[1]}: {e[2]})' for e in fails) or 'none'}")
    r0 = per_round[0]
    for name, rec in result["metrics"].items():
        extra = ""
        if name == "instance_tail_s":
            extra = f"  (p{r0['instance_tail_pct']:.1f} of {r0['instance_count']} instances)"
        if not args.trace and name in raw and rec["unit"] == "s":
            extra = f"  (raw {raw[name]:.6g} s){extra}"
        print(f"{name:40s} {rec['value']:.6g} {rec['unit']}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
