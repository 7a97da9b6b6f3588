"""Two-node nonlocal-gate protocol: shared entanglement plus two classical bits.

Layout: Alice holds cavity "A" and atom "alpha", Bob holds cavity "B" and
atom "beta"; an entangled atom pair is distributed once, then each side
applies only local operations and sends one measurement outcome to the
other.  Each local operation is one entry of a step table; the runner
applies it, refuses it if it leaves its node, and records it for the trace.

A run takes one register and one ebit, the ideal Bell pair or a caller's
pair state on alpha and beta in either order (e.g. one outcome of
enumerate_ebit_branches), and enumerates every measurement branch.  The
physical level runs each node gate at one fixed operating point, the
module constants below.

Logical encoding throughout: atom |g> is logical 1 and |e> is logical 0;
a single photon is logical 1.  Flow: register preparation, entanglement
distribution, photon-controlled flip of alpha at Alice, alpha measurement
(one bit to Bob, atomic flip of beta on outcome e), the step-5 node gate at
Bob (atom-controls-photon flip for the cnot variant, local controlled
phase for the cqpg variant), Hadamard and measurement of beta (one bit to
Alice), and a conditional photon-phase pulse on A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .qstate import (ATOM_LEVEL_NAMES, CompositeSpace, FactorLabel, QStateError,
                     StateVector, apply_local, enumerate_branches, make_rng,
                     state_fidelity, tensor)
from .jcmodel import (JCParams, desk_params, resonant_rabi_evolve,
                      set_stark_detuning)
from .perturb import SOURCE_POINT_CYCLIC
from .gates import (GateKind, PhysicalGateConfig, ThreeLevelParams, ideal_block,
                    physical_cnot_atom_to_cavity, physical_cnot_cavity_to_atom,
                    physical_cqpg_local, physical_hadamard_atom,
                    physical_not_atom)


class ProtocolError(RuntimeError):
    pass


ENCODING_NOTE = "|g> = logical 1, |e> = logical 0; one photon = logical 1"

# protocol-level Hadamard on (g, e): |g> -> (-|g>+|e>)/sqrt2, |e> -> (|g>+|e>)/sqrt2
TRUE_HADAMARD = np.array([[-1.0, 1.0], [1.0, 1.0]], dtype=complex) / math.sqrt(2)

# atom phases turning the physical pi/2 pulse into TRUE_HADAMARD:
# diag(i, 1) . HADAMATOM . diag(i, 1) = TRUE_HADAMARD
HADAMARD_FRAME_PHASE = (1.0j, 1.0)

# physical operating points: the cnot nodes sit at the two-photon source
# point, the cqpg nodes at coupling/detuning CQPG_X; every drive is
# rotating-wave, and a two-level beta is Stark-switched to coupling/detuning
# HADAMARD_X for its Hadamard
CQPG_X = 0.1
RWA = True
SWAP_PARAMS = SOURCE_POINT_CYCLIC
HADAMARD_X = 1e-3


@dataclass(frozen=True)
class Node:
    """One processor: a cavity, its atom, and the photon port it may use."""

    name: str
    atom: str
    cavity: str
    port: Optional[str] = None

    @property
    def factors(self) -> frozenset:
        owned = {self.atom, self.cavity}
        if self.port is not None:
            owned.add(self.port)
        return frozenset(owned)


ALICE = Node("Alice", atom="alpha", cavity="A", port="p1")
BOB = Node("Bob", atom="beta", cavity="B", port="p2")
SOURCE = Node("Source", atom="p1", cavity="p2")   # owns both ports pre-handoff


class ClassicalChannel:
    """Measurement-outcome messages between the nodes."""

    def __init__(self) -> None:
        self.log: list = []

    def send(self, sender: str, recipient: str, bit: int, step: str) -> None:
        if bit not in (0, 1):
            raise ProtocolError(f"classical channel carries single bits, got {bit!r}")
        self.log.append((sender, recipient, int(bit), step))

    @property
    def bits_used(self) -> int:
        return len(self.log)


@dataclass(frozen=True)
class PhotonGunModel:
    """Emission statistics of the entangled-pair source."""

    p_empty: float = 0.0
    p_double: float = 0.0
    p_single: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_empty", "p_double", "p_single"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise QStateError(f"{name} must be in [0, 1], got {v}")
        total = self.p_empty + self.p_double + self.p_single
        if total > 1.0 + 1e-12:
            raise QStateError(f"outcome probabilities sum to {total} > 1")
        if total <= 0.0:
            raise QStateError("at least one emission outcome must have weight")

    @property
    def weights(self) -> dict:
        # remainder below 1 = discarded emission attempts
        total = self.p_empty + self.p_single + self.p_double
        return {"empty": self.p_empty / total, "single": self.p_single / total,
                "double": self.p_double / total}


@dataclass(frozen=True)
class TraceRecord:
    branch: str
    step: str
    node: str
    operation: str
    params_text: str
    outcome: str
    support: tuple

    def line(self) -> str:
        return (f"[{self.branch}] step={self.step} node={self.node} "
                f"op={self.operation} params={self.params_text} "
                f"outcome={self.outcome}")


@dataclass(frozen=True)
class BranchResult:
    alpha: str
    beta: str
    probability: float
    fidelity_vs_ideal: float
    final_state: StateVector
    bits: tuple

    @property
    def label(self) -> str:
        return self.alpha + self.beta


@dataclass(frozen=True)
class EbitBranch:
    label: str
    flagged: bool
    atoms_state: Optional[StateVector]
    probability: float


@dataclass(frozen=True)
class ProtocolTrace:
    gate: str
    level: str
    amplitudes: Optional[tuple]
    records: tuple
    branches: tuple

    def trace_lines(self) -> list:
        return [r.line() for r in self.records]

    def summary_rows(self) -> list:
        return [(b.label, b.probability, b.fidelity_vs_ideal)
                for b in self.branches]

    def total_probability(self) -> float:
        return float(sum(b.probability for b in self.branches))

    def mean_fidelity(self) -> float:
        return float(sum(b.probability * b.fidelity_vs_ideal
                         for b in self.branches))


@dataclass(frozen=True)
class ProtocolConfig:
    """What callers of the protocol set: the cavities' Fock cutoff and the
    physical level's integrator tolerance."""

    fock_cutoff: int = 5
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise QStateError(f"tol must be > 0 and finite, got {self.tol}")

    def gate_config(self) -> PhysicalGateConfig:
        return PhysicalGateConfig(fock_cutoff=self.fock_cutoff, rwa=RWA,
                                  tol=self.tol)


_OWNER = {f: node.name for node in (ALICE, BOB) for f in node.factors}


def _is_local(node: str, support) -> bool:
    """Source touches only its ports; any other node, no factor another owns."""
    if node == SOURCE.name:
        return all(f in SOURCE.factors for f in support)
    return all(_OWNER.get(f, node) == node for f in support)


def locality_violations(records) -> list:
    """Records whose support leaks outside the acting node's territory."""
    return [r for r in records if not _is_local(r.node, r.support)]


def _bit_of(outcome: str) -> int:
    return {"g": 1, "e": 0}[outcome]


def _measure(state: StateVector, factor: str) -> list:
    """The outcomes of nonzero probability as (level, collapsed, probability)."""
    return [(int(level), collapsed, prob)
            for level, collapsed, prob in enumerate_branches(state, factor)
            if collapsed is not None]


# ---------------------------------------------------------------------------
# register and entanglement preparation


def _check_pair(u: complex, v: complex, names: str) -> None:
    norm = abs(u) ** 2 + abs(v) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise QStateError(f"|{names[0]}|^2 + |{names[1]}|^2 = {norm}, expected 1")


def _cavity_qubit(label: str, dim: int, one: complex, zero: complex) -> StateVector:
    v = np.zeros(dim, dtype=complex)
    v[0], v[1] = zero, one
    return StateVector(CompositeSpace([FactorLabel(label, dim)]), v)


def _atom_level(label: str, dim: int, level: int) -> StateVector:
    v = np.zeros(dim, dtype=complex)
    v[level] = 1.0
    return StateVector(CompositeSpace([FactorLabel(label, dim)]), v)


def prepare_register(a: complex, b: complex, c: complex, d: complex,
                     fock_cutoff: int = 5,
                     params: Optional[JCParams] = None) -> StateVector:
    """Cavity qubits (a|1> + b|0>) on A and (c|1> + d|0>) on B, atoms in g,
    as both nodes load them at params (default desk_params(1.0, x=0.1)).

    Each node prepares its atom in the matching superposition (with a
    pre-compensated drive phase) and transfers it to the cavity by a
    resonant quarter-cycle exchange; the transfer phase -i on |e,0> ->
    |g,1> is what the pre-compensation cancels.
    """
    _check_pair(a, b, "ab")
    _check_pair(c, d, "cd")
    dim_c = fock_cutoff + 1
    params = params or desk_params(1.0, x=0.1)
    resonant = set_stark_detuning(params, params.omega)
    parts = []
    for label_c, label_a, one, zero in (("A", "alpha", a, b), ("B", "beta", c, d)):
        atom = np.array([zero, 1.0j * one], dtype=complex)  # drive-phase precompensation
        cav = np.zeros(dim_c, dtype=complex)
        cav[0] = 1.0
        node = tensor([
            StateVector(CompositeSpace([FactorLabel(label_a, 2)]), atom),
            StateVector(CompositeSpace([FactorLabel(label_c, dim_c)]), cav),
        ])
        node = resonant_rabi_evolve(resonant, node,
                                    math.pi / (2.0 * params.rabi_coupling),
                                    atom=label_a, cavity=label_c)
        parts.append(node)
    full = tensor(parts)
    order = [FactorLabel("A", dim_c), FactorLabel("alpha", 2),
             FactorLabel("B", dim_c), FactorLabel("beta", 2)]
    return _reorder_sub(full, CompositeSpace(order))


def beam_splitter_mix(state: StateVector, mode_a: str, mode_b: str) -> StateVector:
    """Balanced mixing U = exp(-i (pi/4) (-i a+b + i a b+)) of two modes.

    It sends |1,0> to (|0,1> + |1,0>)/sqrt2 with no relative phase.
    """
    da = state.space.factor(mode_a).dim
    db = state.space.factor(mode_b).dim
    if da != db:
        raise QStateError("beam splitter needs equal mode dimensions")
    low = np.diag(np.sqrt(np.arange(1, da)), k=1)   # annihilation
    a_op = np.kron(low, np.eye(db))
    b_op = np.kron(np.eye(da), low)
    gen = (math.pi / 4.0) * (np.exp(-0.5j * math.pi) * a_op.conj().T @ b_op
                             + np.exp(0.5j * math.pi) * a_op @ b_op.conj().T)
    return apply_local(state, scipy.linalg.expm(-1j * gen), (mode_a, mode_b))


def _bell_atoms() -> StateVector:
    space = CompositeSpace([FactorLabel("alpha", 2), FactorLabel("beta", 2)])
    v = np.zeros(space.dim, dtype=complex)
    v[space.index({"alpha": 1, "beta": 0})] = 1.0 / math.sqrt(2)   # |e g>
    v[space.index({"alpha": 0, "beta": 1})] = 1.0 / math.sqrt(2)   # |g e>
    return StateVector(space, v)


def enumerate_ebit_branches(model: PhotonGunModel) -> tuple:
    """All heralded outcomes of one photon-gun distribution attempt.

    The gun loads port p1 with zero, one, or two photons; a balanced beam
    splitter mixes the ports; each node converts its port photon onto its
    atom by a resonant quarter-cycle exchange and then checks the port with
    a photodetector.  Any leftover photon flags the attempt as a failed
    herald.  An empty emission is indistinguishable from success at the
    detectors and ends with both atoms in g.
    """
    weights = model.weights
    params = JCParams(omega0=1.0, omega=1.0, rabi_coupling=1.0)
    t_transfer = math.pi / 2.0
    branches = []
    for outcome, n_load in (("empty", 0), ("single", 1), ("double", 2)):
        w = weights[outcome]
        if w == 0.0:
            continue
        space = CompositeSpace([FactorLabel("p1", 3), FactorLabel("p2", 3),
                                FactorLabel("alpha", 2), FactorLabel("beta", 2)])
        v = np.zeros(space.dim, dtype=complex)
        v[space.index({"p1": n_load, "p2": 0, "alpha": 0, "beta": 0})] = 1.0
        st = StateVector(space, v)
        st = beam_splitter_mix(st, "p1", "p2")
        st = resonant_rabi_evolve(params, st, t_transfer, atom="alpha", cavity="p1")
        st = resonant_rabi_evolve(params, st, t_transfer, atom="beta", cavity="p2")
        for n1, st1, pr1 in _measure(st, "p1"):
            for n2, st2, pr2 in _measure(st1, "p2"):
                flagged = (n1 != 0) or (n2 != 0)
                atoms = _reorder_sub(st2, CompositeSpace([FactorLabel("alpha", 2),
                                                          FactorLabel("beta", 2)]))
                # transfer phases: |1> -> -i|e> on each side, global for the pair
                branches.append(EbitBranch(
                    label=f"{outcome}:{n1}{n2}", flagged=flagged,
                    atoms_state=atoms,
                    probability=float(w * pr1 * pr2)))
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > 1e-9:
        raise ProtocolError(f"gun branch probabilities sum to {total}")
    return tuple(branches)


def _reorder_sub(state: StateVector, space: CompositeSpace) -> StateVector:
    # keep only the named factors; the rest must be in definite basis states
    view = state.tensor_view()
    keep = [state.space.axis(f.name) for f in space.factors]
    other = [k for k in range(len(state.space.factors)) if k not in keep]
    perm = keep + other
    flat = view.transpose(perm).reshape(space.dim, -1)
    norms = np.linalg.norm(flat, axis=0)
    col = int(np.argmax(norms))
    vec = flat[:, col]
    if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
        raise ProtocolError("remaining factors are entangled; cannot strip")
    return StateVector(space, vec)


# ---------------------------------------------------------------------------
# small local blocks, applied with apply_local


def _atom_block(dim: int, block: np.ndarray) -> np.ndarray:
    """A (g, e) block on an atom of dimension dim, identity on any i level."""
    mat = np.eye(dim, dtype=complex)
    mat[:2, :2] = block
    return mat


def _cnot_target(dim: int) -> np.ndarray:
    """CNOT on cavities (A, B) of dimension dim each, A controlling B."""
    mat = np.eye(dim * dim, dtype=complex)
    mat[[dim, dim + 1]] = mat[[dim + 1, dim]]   # |1,0> <-> |1,1>
    return mat


def _cqpg_target(dim: int) -> np.ndarray:
    """The phase -1 on |0 photons, 0 photons> of cavities (A, B)."""
    mat = np.eye(dim * dim, dtype=complex)
    mat[0, 0] = -1.0
    return mat


# ---------------------------------------------------------------------------
# the protocol as data: each local operation once, at both levels


@dataclass(frozen=True)
class _Step:
    """One local operation: its trace step, node, operation and support.

    ideal(space) gives the exact gate as (matrix, factors) for apply_local,
    traced as one record with params ideal_text.  physical(step, state,
    params, config) runs the pulse-level operation at node params and
    returns the state and its trace records, each (operation, params_text,
    outcome, support).
    """

    name: str
    node: Node
    operation: str
    support: tuple
    ideal: Optional[Callable]
    physical: Callable
    ideal_text: str = "ideal"


def _true_hadamard(space: CompositeSpace) -> tuple:
    return _atom_block(space.factor("beta").dim, TRUE_HADAMARD), ("beta",)


def _fidelity_text(result) -> str:
    return f"fidelity={result.fidelity_vs_ideal:.9f}"


def _cnot_photon_to_alpha(step, state, params, config):
    res = physical_cnot_cavity_to_atom(state, params, config.gate_config(),
                                       atom="alpha", cavity="A")
    return res.output, [(step.operation, _pulse_text(res), _fidelity_text(res),
                         step.support)]


def _not_beta(step, state, params, config):
    # a two-level beta is flipped sector by sector inside its cavity
    cavity = None if state.space.factor("beta").dim == 3 else "B"
    res = physical_not_atom(state, params, config.gate_config(), atom="beta",
                            cavity=cavity)
    support = step.support if cavity is None else step.support + (cavity,)
    return res.output, [(step.operation, _pulse_text(res), _fidelity_text(res),
                         support)]


def _cnot_beta_to_photon(step, state, params, config):
    res = physical_cnot_atom_to_cavity(state, SWAP_PARAMS, config.gate_config(),
                                       atom="beta", cavity="B")
    outcome = f"{_fidelity_text(res)} exchange={res.exchange_probability_tdse:.6f}"
    return res.output, [(step.operation, _pulse_text(res), outcome, step.support)]


def _cqpg_at_bob(step, state, params, config):
    g = params.rabi_coupling
    res = physical_cqpg_local(state, ThreeLevelParams(rabi_coupling=g),
                              config.gate_config(), atom="beta", cavity="B")
    return res.output, [(step.operation, f"resonant e-i cycle t=pi/{g:.6g}",
                         _fidelity_text(res), step.support)]


def _hadamard_beta(step, state, params, config):
    # the pi/2 pulse between atom frame phases; a two-level beta is first
    # Stark-switched far off its cavity and pulsed through its dressed states
    beta_dim = state.space.factor("beta").dim
    frame = _atom_block(beta_dim, np.diag(HADAMARD_FRAME_PHASE))
    state = apply_local(state, frame, ("beta",))
    records, cavity = [], None
    if beta_dim == 2:
        x, cavity = HADAMARD_X, "B"
        params = set_stark_detuning(params, params.omega + params.rabi_coupling / x)
        records.append(("stark-switch", f"delta -> coupling/{x:.6g}", "-",
                        ("beta", cavity)))
    res = physical_hadamard_atom(state, params, config.gate_config(), atom="beta",
                                 cavity=cavity)
    support = step.support if cavity is None else step.support + (cavity,)
    records.append((step.operation,
                    _pulse_text(res) + " + atom frame phases diag(i,1)",
                    _fidelity_text(res), support))
    return apply_local(res.output, frame, ("beta",)), records


def _reset_alpha(step, state, params, config):
    res = physical_not_atom(state, params, config.gate_config(), atom="alpha",
                            cavity=None)
    return res.output, [(step.operation, "decoupled reset before phase pulse",
                         _fidelity_text(res), step.support)]


def _photon_phase(step, state, params, config):
    # a resonant 2 pi cycle of alpha (in g) with A gives one photon a -1
    g = params.rabi_coupling
    resonant = set_stark_detuning(params, params.omega)
    state = resonant_rabi_evolve(resonant, state, math.pi / g, atom="alpha",
                                 cavity="A")
    return state, [("stark-switch", "delta -> 0", "-", ("alpha", "A")),
                   ("resonant-2pi-cycle", f"t=pi/{g:.6g}", "-", ("alpha", "A"))]


_STEP4 = _Step("step4", ALICE, "cnot-cavity-to-atom", ("alpha", "A"),
               partial(ideal_block, GateKind.CNOT_CAVITY_TO_ATOM, atom="alpha",
                       cavity="A"), _cnot_photon_to_alpha)
_CONDITIONAL_NOT = _Step("conditional-not", BOB, "not-atom", ("beta",),
                         partial(ideal_block, GateKind.NOT_ATOM, atom="beta"),
                         _not_beta)
_STEP5_CNOT = _Step("step5", BOB, "cnot-atom-to-cavity", ("beta", "B"),
                    partial(ideal_block, GateKind.CNOT_ATOM_TO_CAVITY,
                            atom="beta", cavity="B"), _cnot_beta_to_photon)
_STEP5_CQPG = _Step("step5", BOB, "cqpg-local", ("beta", "B"),
                    partial(ideal_block, GateKind.CQPG_LOCAL, atom="beta",
                            cavity="B"), _cqpg_at_bob, ideal_text="phi=pi")
_STEP6 = _Step("step6", BOB, "hadamard", ("beta",), _true_hadamard,
               _hadamard_beta)
# physical only: the photon-phase cycle needs alpha back in g
_ALPHA_RESET = _Step("correction", ALICE, "not-atom", ("alpha",), None,
                     _reset_alpha)
_PHOTON_PHASE = _Step("correction", ALICE, "photon-phase", ("A",),
                      partial(ideal_block, GateKind.SIGMA_Z, cavity="A"),
                      _photon_phase)


@dataclass(frozen=True)
class _Gate:
    """What differs between the nonlocal CNOT and CQPG."""

    beta_dim: int
    node_params: JCParams
    step5: _Step
    correction_on: str          # the beta outcome that sends Alice's correction
    target: Callable            # cavity dim -> the nonlocal gate on (A, B)


_GATES = {
    "cnot": _Gate(2, SWAP_PARAMS.jc_params(), _STEP5_CNOT, "g", _cnot_target),
    "cqpg": _Gate(3, desk_params(1.0, x=CQPG_X), _STEP5_CQPG, "e", _cqpg_target),
}


def _load_physical(ref_cav, amplitudes, config, params) -> StateVector:
    reg = prepare_register(*amplitudes, fock_cutoff=config.fock_cutoff,
                           params=params)
    return _reorder_sub(reg, ref_cav.space)


def _apply_ideal(step, state, params, config):
    return (apply_local(state, *step.ideal(state.space)),
            [(step.operation, step.ideal_text, "-", step.support)])


@dataclass(frozen=True)
class _Level:
    """How one level loads the register and applies a step."""

    register_text: str
    load: Callable              # (ref_cav, amplitudes, config, params) -> state
    apply: Callable             # (step, state, params, config) -> (state, records)
    resets_alpha: bool          # whether e branches reset alpha before the phase


_LEVELS = {
    "ideal": _Level("ideal", lambda ref_cav, *_: ref_cav, _apply_ideal, False),
    "physical": _Level("resonant quarter-cycle transfer", _load_physical,
                       lambda step, *args: step.physical(step, *args), True),
}


def _record(records: list, branch: str, step: str, node: Node, operation: str,
            params_text: str, outcome: str, support: tuple = ()) -> None:
    if not _is_local(node.name, support):
        raise ProtocolError(
            f"operation on {support} exceeds node {node.name} ({sorted(node.factors)})")
    records.append(TraceRecord(branch, step, node.name, operation, params_text,
                               outcome, tuple(support)))


def _run_step(records: list, level: _Level, params: JCParams,
              config: ProtocolConfig, branch: str, step: _Step,
              state: StateVector) -> StateVector:
    state, done = level.apply(step, state, params, config)
    for operation, params_text, outcome, support in done:
        _record(records, branch, step.name, step.node, operation, params_text,
                outcome, support)
    return state


def run_nonlocal_cnot(a: complex = 1 / math.sqrt(2), b: complex = 1 / math.sqrt(2),
                      c: complex = 1 / math.sqrt(2), d: complex = 1 / math.sqrt(2),
                      level: str = "ideal",
                      input_state: Optional[StateVector] = None,
                      ebit_state: Optional[StateVector] = None,
                      config: Optional[ProtocolConfig] = None) -> ProtocolTrace:
    """Nonlocal CNOT between the cavity qubits of Alice and Bob."""
    return _run_protocol("cnot", a, b, c, d, level, input_state, ebit_state,
                         config)


def run_nonlocal_cqpg(a: complex = 1 / math.sqrt(2), b: complex = 1 / math.sqrt(2),
                      c: complex = 1 / math.sqrt(2), d: complex = 1 / math.sqrt(2),
                      level: str = "ideal",
                      input_state: Optional[StateVector] = None,
                      ebit_state: Optional[StateVector] = None,
                      config: Optional[ProtocolConfig] = None) -> ProtocolTrace:
    """Nonlocal controlled-phase between the cavity qubits, local step 5."""
    return _run_protocol("cqpg", a, b, c, d, level, input_state, ebit_state,
                         config)


def _run_protocol(gate, a, b, c, d, level, input_state, ebit_state,
                  config) -> ProtocolTrace:
    if level not in _LEVELS:
        raise QStateError(f"unknown level {level!r}")
    if input_state is not None and level != "ideal":
        raise ProtocolError("external-ancilla inputs are supported at the ideal level")
    lvl, spec = _LEVELS[level], _GATES[gate]
    config = config or ProtocolConfig()
    dim_c = config.fock_cutoff + 1
    params = spec.node_params
    records: list = []
    branches: list = []
    _record(records, "*", "encoding", SOURCE, "logical-encoding", ENCODING_NOTE, "-")

    # step 1-2: register
    if input_state is not None:
        for need in ("A", "B"):
            if need not in input_state.space.names:
                raise QStateError(f"input_state must contain factor {need!r}")
            if input_state.space.factor(need).dim != dim_c:
                raise QStateError(f"input_state factor {need!r} must have dim {dim_c}")
        cav_state = ref_cav = input_state
        amplitudes = None
    else:
        _check_pair(a, b, "ab")
        _check_pair(c, d, "cd")
        ref_cav = tensor([_cavity_qubit("A", dim_c, a, b),
                          _cavity_qubit("B", dim_c, c, d)])
        amplitudes = (complex(a), complex(b), complex(c), complex(d))
        cav_state = lvl.load(ref_cav, amplitudes, config, params)
    for node in (ALICE, BOB):
        _record(records, "*", "register", node, "prepare-cavity",
                lvl.register_text, f"{node.cavity} loaded", (node.cavity, node.atom))

    # step 3: entanglement distribution
    if ebit_state is not None:
        atoms = ebit_state
        _record(records, "*", "ebit", SOURCE, "inject-ebit",
                "caller-supplied pair state", "-")
    else:
        atoms = _bell_atoms()
        _record(records, "*", "ebit", SOURCE, "distribute-bell-pair",
                "(|eg>+|ge>)/sqrt2", "-")
        _record(records, "*", "ebit", SOURCE, "handoff",
                "alpha to Alice, beta to Bob", "-")
    state = tensor([cav_state, _ebit_pair(atoms, spec.beta_dim)])

    # ideal reference for fidelity targets: the nonlocal gate on the input
    ref_atoms = tensor([_atom_level("alpha", 2, 0),
                        _atom_level("beta", spec.beta_dim, 0)])
    target_initial = apply_local(tensor([ref_cav, ref_atoms]),
                                 spec.target(dim_c), ("A", "B"))

    state = _run_step(records, lvl, params, config, "*", _STEP4, state)

    # alpha measured: one bit to Bob, his NOT on e, then steps 5 and 6
    for alpha_level, s, p_alpha in _measure(state, "alpha"):
        alpha_out = ATOM_LEVEL_NAMES[alpha_level]
        tag_a = alpha_out + "?"
        _record(records, tag_a, "measure-alpha", ALICE, "projective-measurement",
                "basis g/e", f"outcome={alpha_out} p={p_alpha:.6f}", ("alpha",))
        to_bob = ClassicalChannel()
        to_bob.send("Alice", "Bob", _bit_of(alpha_out), "alpha-measurement")
        _record(records, tag_a, "classical", ALICE, "send-bit",
                f"bit={_bit_of(alpha_out)}", "Alice -> Bob")
        if alpha_out == "e":
            s = _run_step(records, lvl, params, config, tag_a, _CONDITIONAL_NOT, s)
        s = _run_step(records, lvl, params, config, tag_a, spec.step5, s)
        s = _run_step(records, lvl, params, config, tag_a, _STEP6, s)

        # beta measured: one bit to Alice, her photon phase on the trigger
        for beta_level, sf, p_beta in _measure(s, "beta"):
            beta_out = ATOM_LEVEL_NAMES[beta_level]
            tag = alpha_out + beta_out
            _record(records, tag, "measure-beta", BOB, "projective-measurement",
                    "basis " + "/".join(ATOM_LEVEL_NAMES[:spec.beta_dim]),
                    f"outcome={beta_out} p={p_beta:.6f}", ("beta",))
            if beta_out == "i":
                branches.append(BranchResult(
                    alpha_out, beta_out, float(p_alpha * p_beta), 0.0, sf,
                    tuple(to_bob.log)))
                continue
            to_alice = ClassicalChannel()
            to_alice.send("Bob", "Alice", _bit_of(beta_out), "beta-measurement")
            _record(records, tag, "classical", BOB, "send-bit",
                    f"bit={_bit_of(beta_out)}", "Bob -> Alice")

            alpha_final = alpha_out
            if beta_out == spec.correction_on:
                if lvl.resets_alpha and alpha_out == "e":
                    sf = _run_step(records, lvl, params, config, tag, _ALPHA_RESET, sf)
                    alpha_final = "g"
                sf = _run_step(records, lvl, params, config, tag, _PHOTON_PHASE, sf)

            target = _branch_target(target_initial, alpha_final, beta_out)
            branches.append(BranchResult(
                alpha_out, beta_out, float(p_alpha * p_beta),
                state_fidelity(target, sf), sf,
                tuple(to_bob.log + to_alice.log)))

    total = sum(br.probability for br in branches)
    if abs(total - 1.0) > 1e-10:
        raise ProtocolError(f"branch probabilities sum to {total}")
    for br in branches:
        if len(br.bits) != 2 and br.beta != "i":
            raise ProtocolError(f"branch {br.label} used {len(br.bits)} bits")

    return ProtocolTrace(gate=gate, level=level, amplitudes=amplitudes,
                         records=tuple(records), branches=tuple(branches))


def _ebit_pair(atoms: StateVector, beta_dim: int) -> StateVector:
    """An ebit on (alpha, beta) in that order, beta widened to the gate's
    beta_dim levels with the added levels empty.

    Refuses any factor besides a two-level alpha and a beta of at most
    beta_dim levels.
    """
    dims = dict(zip(atoms.space.names, atoms.space.dims))
    if sorted(dims) != ["alpha", "beta"] or dims["alpha"] != 2 or dims["beta"] > beta_dim:
        raise QStateError(f"an ebit needs factors alpha (dim 2) and beta (dim <= "
                          f"{beta_dim}), got {atoms.space}")
    old = atoms.tensor_view().transpose(atoms.space.axis("alpha"),
                                        atoms.space.axis("beta"))
    out = np.zeros((2, beta_dim), dtype=complex)
    out[:, :old.shape[1]] = old
    space = CompositeSpace([FactorLabel("alpha", 2), FactorLabel("beta", beta_dim)])
    return StateVector(space, out.reshape(-1))


def _pulse_text(result) -> str:
    return " ".join(f"gaussian(carrier={p.omega_drive:.9g}, width={p.width:.6g})"
                    for p in result.pulse_log) or "-"


def _branch_target(target_initial: StateVector, alpha_final: str,
                   beta_final: str) -> StateVector:
    """The ideal output with the atoms set to the branch's final levels
    (both start in g; an e outcome flips that atom)."""
    t = target_initial
    for atom, level in (("alpha", alpha_final), ("beta", beta_final)):
        if level == "e":
            t = apply_local(t, *ideal_block(GateKind.NOT_ATOM, t.space, atom))
    return t


# ---------------------------------------------------------------------------
# photon-gun Monte Carlo


def monte_carlo_gun_fidelity(model: PhotonGunModel, n_runs: int = 10000,
                             seed: int = 0,
                             a: complex = 1 / math.sqrt(2),
                             b: complex = 1 / math.sqrt(2),
                             c: complex = 1 / math.sqrt(2),
                             d: complex = 1 / math.sqrt(2)) -> dict:
    """Mean protocol fidelity under imperfect pair distribution.

    Emission outcomes are sampled with common random numbers (one uniform
    per run, single-photon band first), so the estimate is exactly
    non-increasing in p_empty + p_double at a fixed seed.  Failed heralds
    score zero; unflagged outcomes run the ideal protocol conditioned on
    the distributed pair state, which is deterministic per outcome.
    """
    if n_runs <= 0:
        raise QStateError("n_runs must be positive")
    branches = enumerate_ebit_branches(model)
    weights = model.weights

    score_cache: dict = {}

    def conditional_score(br: EbitBranch) -> float:
        if br.flagged:
            return 0.0
        key = tuple(np.round(br.atoms_state.amplitudes, 12))
        if key not in score_cache:
            trace = run_nonlocal_cnot(a, b, c, d, level="ideal",
                                      ebit_state=br.atoms_state)
            score_cache[key] = trace.mean_fidelity()
        return score_cache[key]

    outcome_score = {}
    for outcome in ("single", "empty", "double"):
        subset = [br for br in branches if br.label.startswith(outcome)]
        w = weights[outcome]
        if w == 0.0 or not subset:
            outcome_score[outcome] = 0.0
            continue
        outcome_score[outcome] = sum(
            br.probability / w * conditional_score(br) for br in subset)

    rng = make_rng(seed)
    u = rng.random(n_runs)
    p_s = weights["single"]
    p_e = weights["empty"]
    n_single = int(np.count_nonzero(u < p_s))
    n_empty = int(np.count_nonzero((u >= p_s) & (u < p_s + p_e)))
    n_double = n_runs - n_single - n_empty
    counts = {"single": n_single, "empty": n_empty, "double": n_double}
    mean = sum(counts[k] * outcome_score[k] for k in counts) / n_runs

    flagged_w = sum(br.probability for br in branches if br.flagged)
    return {"mean_fidelity": float(mean),
            "counts": counts,
            "per_outcome_score": {k: float(v) for k, v in outcome_score.items()},
            "flagged_probability": float(flagged_w),
            "n_runs": int(n_runs), "seed": int(seed)}
