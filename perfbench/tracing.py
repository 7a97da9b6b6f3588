"""Spans at the program's module boundaries, recorded from outside it.

Tracer.install() rebinds each public function listed in BOUNDARIES, in
every cavitylink module that holds it, to a wrapper that records a span
(name, start, end, parent, extra).  Spans stay in memory until the run
ends; layer_metrics() reduces them to calls, total and self time per
function plus the counts named in PER_LAYER.
"""

from __future__ import annotations

import importlib
import json
import time

MODULES = ("qstate", "jcmodel", "pulses", "perturb", "gates", "protocol", "cli")

PHYSICAL_GATES = ("physical_cnot_cavity_to_atom", "physical_cnot_atom_to_cavity",
                  "physical_hadamard_atom", "physical_not_atom",
                  "physical_cqpg_local")

# (module, attribute, span name); "Class.method" patches the class.
BOUNDARIES = (
    ("pulses", "propagate_basis", "pulses.propagate"),
    ("gates", "ideal_gate", "gates.ideal_gate"),
    *(("gates", fn, f"gates.{fn}") for fn in PHYSICAL_GATES),
    ("qstate", "embed", "qstate.embed"),
    ("qstate", "Operator.apply", "qstate.apply"),
    ("qstate", "enumerate_branches", "qstate.enumerate_branches"),
    ("jcmodel", "resonant_rabi_evolve", "jcmodel.resonant_rabi_evolve"),
    ("perturb", "two_photon_probability", "perturb.two_photon_probability"),
    ("perturb", "two_photon_tdse_oracle", "perturb.two_photon_tdse_oracle"),
    ("protocol", "run_nonlocal_cnot", "protocol.run"),
    ("protocol", "run_nonlocal_cqpg", "protocol.run"),
    ("cli", "main", "cli.main"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in BOUNDARIES))


def _per_layer() -> tuple:
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"),
                (f"{name}.self_s", "s")]
    out += [("pulses.propagate.rhs_evals", "count"),
            ("pulses.propagate.columns", "count"),
            ("pulses.us_per_rhs", "us")]
    out += [(f"gates.{fn}.engine_misses", "count") for fn in PHYSICAL_GATES]
    out += [("qstate.embed.bytes_built", "bytes"),
            ("protocol.records_per_run", "count"),
            ("tracing_overhead_s", "s")]
    return tuple(out)


# (metric name, unit); every one is better lower
PER_LAYER = _per_layer()


def _propagate_extra(args, kwargs, result) -> dict:
    columns = kwargs.get("columns", args[5] if len(args) > 5 else None)
    if columns is None:
        n_cols = args[0].space.dim
    else:
        n_cols = 1 if columns.ndim == 1 else columns.shape[1]
    return {"columns": n_cols, "nfev": result[1]["nfev"]}


def _embed_extra(args, kwargs, result) -> dict:
    space = kwargs.get("space", args[1] if len(args) > 1 else None)
    return {"bytes": space.dim * space.dim * 16}


def _run_extra(args, kwargs, result) -> dict:
    return {"records": len(result.records)}


EXTRAS = {"pulses.propagate": _propagate_extra, "qstate.embed": _embed_extra,
          "protocol.run": _run_extra}


class Tracer:
    """Records spans of wrapped program functions while installed."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, extra]
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn):
        extra_fn = EXTRAS.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if extra_fn is not None:
                span[4] = extra_fn(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module("cavitylink")]
        mods += [importlib.import_module(f"cavitylink.{m}") for m in MODULES]
        for module, attr, name in BOUNDARIES:
            home = importlib.import_module(f"cavitylink.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"],
                       "spans": self.spans}, fh)


def layer_metrics(spans: list, overhead_s: float) -> dict:
    """Reduce spans to the PER_LAYER metrics (zero where a layer is idle)."""
    out = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in PER_LAYER}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    missed = set()
    for idx, (name, start, end, parent, extra) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += end - start
        out[f"{name}.self_s"] += end - start - child_time[idx]
        if name == "pulses.propagate":
            out["pulses.propagate.rhs_evals"] += extra["nfev"]
            out["pulses.propagate.columns"] += extra["columns"]
            # a gate call that set off a propagation missed its engine cache
            up = parent
            while up >= 0:
                if spans[up][0].startswith("gates.physical_"):
                    missed.add(up)
                up = spans[up][3]
        elif name == "qstate.embed":
            out["qstate.embed.bytes_built"] += extra["bytes"]
        elif name == "protocol.run":
            out["protocol.records_per_run"] += extra["records"]
    for idx in missed:
        out[f"{spans[idx][0]}.engine_misses"] += 1
    if out["pulses.propagate.rhs_evals"]:
        out["pulses.us_per_rhs"] = (out["pulses.propagate.self_s"] * 1e6
                                    / out["pulses.propagate.rhs_evals"])
    if out["protocol.run.calls"]:
        out["protocol.records_per_run"] /= out["protocol.run.calls"]
    out["tracing_overhead_s"] = overhead_s
    return out
