"""Spans around casoratia's public functions, installed from outside the program.

Each traced function is replaced at every module attribute through which
callers reach it (``dortho.find_zeros`` as well as ``zeros.find_zeros``), and
methods are replaced on their class.  ``Tracer.restore`` puts the originals
back.  Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (defining module, attribute or Class.method, span name)
SPANS = [
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "_sweep_one", "cli.sweep_one"),
    ("cli", "_verify_once", "cli.verify_once"),
    ("miop", "build_miop", "miop.build_miop"),
    ("miop", "Builder.det_values", "miop.det_values"),
    ("miop", "Builder.xi", "miop.Builder.xi"),
    ("miop", "Builder.P", "miop.Builder.P"),
    ("miop", "apply_htilde", "miop.apply_htilde"),
    ("miop", "delta_tilde", "miop.delta_tilde"),
    ("miop", "hermiticity_check", "miop.hermiticity_check"),
    ("polycore", "det_dense", "polycore.det_dense"),
    ("polycore", "lstsq_dense", "polycore.lstsq_dense"),
    ("polycore", "solve_dense", "polycore.solve_dense"),
    ("families", "ContinuousHahn.base_poly", "families.base_poly"),
    ("families", "Wilson.base_poly", "families.base_poly"),
    ("families", "AskeyWilson.base_poly", "families.base_poly"),
    ("zeros", "find_zeros", "zeros.find_zeros"),
    ("dortho", "verify_orthogonality", "dortho.verify_orthogonality"),
    ("dortho", "build_pa_basis", "dortho.build_pa_basis"),
    ("dortho", "compute_F", "dortho.compute_F"),
    ("dortho", "build_M", "dortho.build_M"),
    ("dortho", "pa_difference_equation_defect", "dortho.pa_difference_equation_defect"),
    ("conjecture", "compare", "conjecture.compare"),
    ("conjecture", "zeta_constant", "conjecture.zeta_constant"),
    ("identities", "mixed_constant", "identities.mixed_constant"),
    ("identities", "chain_identity_exact", "identities.chain_identity_exact"),
    ("report", "canonical_json", "report.canonical_json"),
]

# numkernel.MPScalars properties that build a new constant on every access
SCALAR_CONSTS = ("one", "zero", "i")

ESCALATED_BITS = 512  # the CLI's second precision rung at the default 256 bits
PACKAGE = "casoratia"


def replace_everywhere(orig, new) -> list:
    """Point every casoratia module attribute bound to orig at new; return the undo list."""
    undo = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                undo.append((mod, key, orig))
                setattr(mod, key, new)
    return undo


def sweep_instance_id(job_args) -> str:
    """The instance id of one cli._sweep_one job: family/mode/draw/D/N."""
    fam, mode, draw, D, N = job_args[:5]
    return f"{fam}/{mode}/{draw}/{D.key()}/N{N}"


def undo_all(undo: list):
    while undo:
        owner, attr, value = undo.pop()
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, instance, outermost]
        self.stack = []
        self.active = Counter()  # span name -> open spans of that name
        self.counts = Counter()
        self.instance = None
        self._p_seen = set()
        self._undo = []

    # .. installation ..............................................................

    def _hook(self, name):
        """Extra counts taken from a call's arguments."""
        if name == "miop.det_values":
            def hook(args, kwargs):
                self.counts["miop.det_values.points"] += len(args[2] if len(args) > 2 else kwargs["us"])
        elif name == "miop.Builder.P":
            def hook(args, kwargs):
                key = (args[0], args[1].key(), args[2] if len(args) > 2 else kwargs["n"])
                self.counts["miop.Builder.P.hits"] += key in self._p_seen
                self._p_seen.add(key)
        elif name == "zeros.find_zeros":
            def hook(args, kwargs):
                self.counts["zeros.find_zeros.degree_sum"] += (args[0] if args else kwargs["p"]).degree
        elif name == "cli.verify_once":
            def hook(args, kwargs):
                bits = args[3] if len(args) > 3 else kwargs["bits"]
                self.counts["cli.escalations"] += bits == ESCALATED_BITS
        elif name == "cli.sweep_one":
            def hook(args, kwargs):
                self.instance = sweep_instance_id(args[0])
        else:
            hook = None
        return hook

    def _wrap(self, name, fn):
        hook = self._hook(name)
        spans, stack, active = self.spans, self.stack, self.active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, active[name] == 0]
            spans.append(span)
            stack.append(idx)
            active[name] += 1
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                active[name] -= 1
                stack.pop()
        return traced

    def _set(self, cls, attr, value):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def install(self):
        for modname, attr, name in SPANS:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            self._undo += replace_everywhere(orig, self._wrap(name, orig))
        nk = importlib.import_module(f"{PACKAGE}.numkernel")
        for attr in SCALAR_CONSTS:
            self._set(nk.MPScalars, attr, self._counting_property(nk.MPScalars.__dict__[attr]))

    def _counting_property(self, prop):
        counts, fget = self.counts, prop.fget

        def get(obj):
            counts["numkernel.scalar_const.calls"] += 1
            return fget(obj)
        return property(get)

    def restore(self):
        undo_all(self._undo)

    # .. results ..................................................................

    def summary(self) -> dict:
        """Per span name: outermost time, self time and calls; plus the counts."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, t0, t1, _, _, outer), c in zip(self.spans, child):
            rec = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - c
            if outer:
                rec["s"] += t1 - t0
        return {"spans": out, "counts": dict(self.counts)}

    def write_jsonl(self, path: str):
        with open(path, "w") as fh:
            for idx, (name, t0, t1, parent, inst, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "instance": inst}) + "\n")
