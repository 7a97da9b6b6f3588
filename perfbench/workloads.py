"""The benchmark's workloads: seeded inputs, the calls into the program, checks.

A workload has a first call, made in a fresh interpreter while every
engine cache is empty (what a user's first CLI call waits for), the rest
of its cold pass, and a warm round, repeated for the rest of the run.
Each call into the program goes through Run.op, which counts it, times it
and records a raised exception as a failed operation.  The inputs come from numpy's generator seeded with
--seed only; the program sees nothing but the generated inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from cavitylink import cli, gates, jcmodel, perturb, protocol, qstate

import checks

BATCH = 32                 # seeded warm inputs per kind, cycled through
SWEEP_X = (0.05, 0.1)      # CNOT sweep points inside the paper's 0.02-0.1
FOCK_CUTOFF = 5


class Run:
    """Counts, times and checks the operations of one worker."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.times = defaultdict(list)
        self.clock = 0.0   # total time spent inside the program

    def op(self, kind, fn, *args, **kwargs):
        """Call the program once; returns its result, None if it raised.

        A call that raised is timed too: the time was spent all the same.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            result = None
        elapsed = time.perf_counter() - t0
        self.times[kind].append(elapsed)
        self.clock += elapsed
        return result

    def check(self, errors: list) -> None:
        self.errors.extend(errors)


def _complex_normal(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _amplitudes(rng) -> tuple:
    """Normalized (a, b, c, d) of the register (a|1>+b|0>)(c|1>+d|0>)."""
    a, b, c, d = _complex_normal(rng, 4)
    n_ab, n_cd = math.hypot(abs(a), abs(b)), math.hypot(abs(c), abs(d))
    return complex(a / n_ab), complex(b / n_ab), complex(c / n_cd), complex(d / n_cd)


def _ancilla_state(rng):
    """A random state of A, B (photons 0/1) entangled with a qubit ancilla."""
    dim_c = FOCK_CUTOFF + 1
    space = qstate.CompositeSpace([qstate.FactorLabel("A", dim_c),
                                   qstate.FactorLabel("B", dim_c),
                                   qstate.FactorLabel("anc", 2)])
    core = _complex_normal(rng, (2, 2, 2))
    core /= np.linalg.norm(core)
    amps = np.zeros((dim_c, dim_c, 2), dtype=complex)
    amps[:2, :2, :] = core
    return qstate.StateVector(space, amps.reshape(-1)), core.reshape(4, 2)


def _node_state(rng):
    """(a|1> + b|0>) on the cavity with the atom in g, as the sweep uses."""
    a, b = _complex_normal(rng, 2)
    norm = math.hypot(abs(a), abs(b))
    space = jcmodel.jc_space(FOCK_CUTOFF)
    amps = np.zeros(space.dim, dtype=complex)
    amps[space.index({"atom": 0, "cavity": 1})] = a / norm
    amps[space.index({"atom": 0, "cavity": 0})] = b / norm
    return qstate.StateVector(space, amps)


def _runner(gate: str):
    # looked up at call time so that a tracer's wrapper is used
    return getattr(protocol, f"run_nonlocal_{gate}")


class ProtocolPhysical:
    """Nonlocal CQPG and CNOT at pulse level: cold once, then warm inputs.

    The CQPG goes first, so that the first call, which costs about a tenth
    of the cold CNOT, is timed on its own.
    """

    kinds = ("cnot", "cqpg")
    trace_rounds = 10

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cold_input = {g: _amplitudes(rng) for g in self.kinds}
        self.batch = {g: [_amplitudes(rng) for _ in range(BATCH)] for g in self.kinds}
        self.cold_trace = {}

    def _check(self, run, gate, trace) -> None:
        if trace is not None:
            run.check(checks.check_protocol_trace(gate, trace.branches, trace.records))

    def _cold_one(self, run: Run, gate: str) -> None:
        trace = run.op(f"{gate}_cold", _runner(gate), *self.cold_input[gate],
                       level="physical")
        self._check(run, gate, trace)
        self.cold_trace[gate] = trace

    def first(self, run: Run) -> None:
        self._cold_one(run, "cqpg")

    def cold(self, run: Run) -> None:
        self._cold_one(run, "cnot")
        for gate in self.kinds:
            again = run.op(f"{gate}_recheck", _runner(gate),
                           *self.cold_input[gate], level="physical")
            self._check(run, gate, again)
            if self.cold_trace[gate] is not None and again is not None:
                run.check(checks.check_same_branches(
                    gate, self.cold_trace[gate].branches, again.branches))

    def warm_round(self, run: Run, k: int) -> None:
        for gate in self.kinds:
            trace = run.op(gate, _runner(gate), *self.batch[gate][k % BATCH],
                           level="physical")
            self._check(run, gate, trace)


class ProtocolIdeal:
    """Criterion 1's traffic: product and ancilla inputs, ideal circuit."""

    kinds = ("cnot_product", "cqpg_product", "cnot_ancilla", "cqpg_ancilla")
    trace_rounds = 50

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.batch = {}
        for gate in ("cnot", "cqpg"):
            self.batch[f"{gate}_product"] = [_amplitudes(rng) for _ in range(BATCH + 1)]
            self.batch[f"{gate}_ancilla"] = [_ancilla_state(rng) for _ in range(BATCH + 1)]

    def _one(self, run: Run, kind: str, item, label: str) -> None:
        gate = kind.split("_")[0]
        if kind.endswith("product"):
            trace = run.op(label, _runner(gate), *item, level="ideal")
            register = checks.product_register(*item)
        else:
            state, register = item
            trace = run.op(label, _runner(gate), input_state=state, level="ideal")
        if trace is None:
            return
        run.check(checks.check_protocol_trace(gate, trace.branches, trace.records))
        for br in trace.branches:
            run.check(checks.check_register(gate, br.label, br.final_state,
                                            br.alpha, br.beta, register))

    # the costliest first call, building the largest operators; a short one
    # would be timed at the mercy of the machine's millisecond noise
    first_kind = "cqpg_ancilla"

    # the last input of each batch, so the warm rounds never repeat it
    def first(self, run: Run) -> None:
        kind = self.first_kind
        self._one(run, kind, self.batch[kind][BATCH], f"{kind}_cold")

    def cold(self, run: Run) -> None:
        for kind in self.kinds:
            if kind != self.first_kind:
                self._one(run, kind, self.batch[kind][BATCH], f"{kind}_cold")

    def warm_round(self, run: Run, k: int) -> None:
        for kind in self.kinds:
            self._one(run, kind, self.batch[kind][k % BATCH], kind)


class GateSweep:
    """The paper's local-gate numbers on one node.

    First call: `cavitylink two-photon --convention auto`, the user's
    command (perturbative and TDSE probability under both readings).  Cold:
    the pulse-level CNOT at each sweep point with the rotating-wave drive and
    with the full counter-rotating drive, then the weak-drive checks of the
    printed numbers.  Warm: the cached CNOTs on seeded node states plus the
    perturbative two-photon probability at seeded drive strengths under
    both readings.
    """

    drives = ("rwa", "full")
    readings = ("angular", "cyclic")
    trace_rounds = 20

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cold_state = _node_state(rng)
        self.batch = [_node_state(rng) for _ in range(BATCH)]
        self.strengths = list(rng.uniform(0.1, 1.0, size=BATCH))
        self.configs = {d: gates.PhysicalGateConfig(fock_cutoff=FOCK_CUTOFF,
                                                    rwa=d == "rwa")
                        for d in self.drives}
        self.points = {"angular": perturb.SOURCE_POINT_ANGULAR,
                       "cyclic": perturb.SOURCE_POINT_CYCLIC}
        self.kinds = tuple(f"{d} x={x}" for d in self.drives for x in SWEEP_X) \
            + tuple(f"two_photon {r}" for r in self.readings)
        self.printed = {}

    def _gate(self, run: Run, kind: str, drive: str, x: float, state):
        result = run.op(kind, gates.physical_cnot_cavity_to_atom, state,
                        jcmodel.desk_params(1.0, x=x), self.configs[drive])
        if result is not None:
            run.check(checks.check_sweep_point(x, result.fidelity_vs_ideal,
                                               result.norm_drift))
        return result

    def first(self, run: Run) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.op("two_photon_cold", cli.main,
                          ["two-photon", "--convention", "auto"])
        if code is None:
            return
        if code != 0:
            run.check([f"two-photon command exited {code}"])
            return
        for line in out.getvalue().splitlines():
            fields = dict(f.split("=", 1) for f in line.split())
            if "convention" in fields and "perturbative" in fields:
                self.printed[fields["convention"]] = float(fields["perturbative"])
        if sorted(self.printed) != sorted(self.readings):
            run.check([f"two-photon printed readings {sorted(self.printed)}"])
            self.printed = {}

    def cold(self, run: Run) -> None:
        fidelity = {}
        for drive in self.drives:
            for x in SWEEP_X:
                result = self._gate(run, f"sweep_{drive}_cold", drive, x,
                                    self.cold_state)
                if result is not None:
                    fidelity[drive, x] = result.fidelity_vs_ideal
        for x in SWEEP_X:
            if ("rwa", x) in fidelity and ("full", x) in fidelity:
                run.check(checks.check_drives_agree(x, fidelity["rwa", x],
                                                    fidelity["full", x]))
        for reading, point in self.points.items():
            if reading not in self.printed:
                continue
            weak = dataclasses.replace(point, sigma0=point.sigma0 / 10.0)
            pert = run.op("two_photon_check", perturb.two_photon_probability, weak)
            tdse = run.op("two_photon_check", perturb.two_photon_tdse_oracle, weak)
            if pert is not None and tdse is not None:
                run.check(checks.check_two_photon(reading, self.printed[reading],
                                                  pert, tdse))

    def warm_round(self, run: Run, k: int) -> None:
        for drive in self.drives:
            for x in SWEEP_X:
                self._gate(run, f"{drive} x={x}", drive, x, self.batch[k % BATCH])
        scale = self.strengths[k % BATCH]
        for reading in self.readings:
            point = self.points[reading]
            weaker = dataclasses.replace(point, sigma0=point.sigma0 * scale)
            prob = run.op(f"two_photon {reading}", perturb.two_photon_probability,
                          weaker)
            if prob is not None and reading in self.printed:
                run.check(checks.check_sigma0_scaling(
                    reading, self.printed[reading], prob, scale))


WORKLOADS = {
    "protocol-physical": ProtocolPhysical,
    "gate-sweep": GateSweep,
    "protocol-ideal": ProtocolIdeal,
}
