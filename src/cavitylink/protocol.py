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
module constants below.  Either level runs the step table once per gate
and ebit, on a Choi state, and answers each register with the linear map
of every branch.

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
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np
import scipy

from .qstate import (ATOM_G, ATOM_LEVEL_NAMES, BRANCH_FLOOR, CompositeSpace,
                     FactorLabel, QStateError, StateVector, apply_local,
                     check_branch_total, check_tol, enumerate_branches, make_rng,
                     tensor)
from .jcmodel import (JCParams, desk_params, resonant_rabi_evolve,
                      set_stark_detuning)
from .perturb import SOURCE_POINT_CYCLIC
from .gates import (GateKind, GateResult, PhysicalGateConfig, ThreeLevelParams,
                    atom_block, checked_fidelity, ideal_block,
                    physical_cnot_atom_to_cavity, physical_cnot_cavity_to_atom,
                    physical_cqpg_local, physical_hadamard_atom, physical_not_atom)


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
        if self.fock_cutoff < 1:
            raise QStateError(f"fock_cutoff must be >= 1, got {self.fock_cutoff}")
        check_tol(self.tol)

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
    if not abs(norm - 1.0) <= 1e-9:   # NaN fails too
        raise QStateError(f"|{names[0]}|^2 + |{names[1]}|^2 = {norm}, expected 1")


def _load_node(one: complex, zero: complex, dim_c: int, params: JCParams,
               atom: str, cavity: str) -> StateVector:
    """One node on (atom, cavity) after it loads its cavity with
    (one |1> + zero |0>) at params, its atom left in g.

    The atom is prepared in the matching superposition (with a
    pre-compensated drive phase) and transferred to the empty cavity by a
    resonant quarter-cycle exchange; the transfer phase -i on |e,0> ->
    |g,1> is what the pre-compensation cancels.
    """
    amps = np.array([zero, 1.0j * one], dtype=complex)
    node = tensor([StateVector(CompositeSpace([FactorLabel(atom, 2)]), amps),
                   CompositeSpace([FactorLabel(cavity, dim_c)]).basis_state({cavity: 0})])
    return resonant_rabi_evolve(set_stark_detuning(params, params.omega), node,
                                math.pi / (2.0 * params.rabi_coupling),
                                atom=atom, cavity=cavity)


def prepare_register(a: complex, b: complex, c: complex, d: complex,
                     fock_cutoff: int = 5,
                     params: Optional[JCParams] = None) -> StateVector:
    """Cavity qubits (a|1> + b|0>) on A and (c|1> + d|0>) on B, atoms in g,
    as both nodes load them at params (default desk_params(1.0, x=0.1));
    see _load_node.
    """
    _check_pair(a, b, "ab")
    _check_pair(c, d, "cd")
    dim_c = fock_cutoff + 1
    params = params or desk_params(1.0, x=0.1)
    full = tensor([_load_node(a, b, dim_c, params, "alpha", "A"),
                   _load_node(c, d, dim_c, params, "beta", "B")])
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
    outcome, support); a gate record's outcome is the _Scored gate.
    """

    name: str
    node: Node
    operation: str
    support: tuple
    ideal: Optional[Callable]
    physical: Callable
    ideal_text: str = "ideal"


def _true_hadamard(space: CompositeSpace) -> tuple:
    return atom_block(space.factor("beta").dim, TRUE_HADAMARD), ("beta",)


def _fidelity_outcome(f: float, suffix: str) -> str:
    return f"fidelity={checked_fidelity(f):.9f}{suffix}"


@dataclass(frozen=True)
class _Scored:
    """What one physical gate scored: the state it ran on, its result (the
    ideal target and the output) and the constant text after its fidelity."""

    pre: StateVector
    result: GateResult
    suffix: str = ""


def _cnot_photon_to_alpha(step, state, params, config):
    res = physical_cnot_cavity_to_atom(state, params, config.gate_config(),
                                       atom="alpha", cavity="A")
    return res.output, [(step.operation, _pulse_text(res), _Scored(state, res),
                         step.support)]


def _not_beta(step, state, params, config):
    # a two-level beta is flipped sector by sector inside its cavity
    cavity = None if state.space.factor("beta").dim == 3 else "B"
    res = physical_not_atom(state, params, config.gate_config(), atom="beta",
                            cavity=cavity)
    support = step.support if cavity is None else step.support + (cavity,)
    return res.output, [(step.operation, _pulse_text(res), _Scored(state, res),
                         support)]


def _cnot_beta_to_photon(step, state, params, config):
    res = physical_cnot_atom_to_cavity(state, SWAP_PARAMS, config.gate_config(),
                                       atom="beta", cavity="B")
    scored = _Scored(state, res, f" exchange={res.exchange_probability_tdse:.6f}")
    return res.output, [(step.operation, _pulse_text(res), scored, step.support)]


def _cqpg_at_bob(step, state, params, config):
    g = params.rabi_coupling
    res = physical_cqpg_local(state, ThreeLevelParams(rabi_coupling=g),
                              config.gate_config(), atom="beta", cavity="B")
    return res.output, [(step.operation, f"resonant e-i cycle t=pi/{g:.6g}",
                         _Scored(state, res), step.support)]


def _hadamard_beta(step, state, params, config):
    # the pi/2 pulse between atom frame phases; a two-level beta is first
    # Stark-switched far off its cavity and pulsed through its dressed states
    beta_dim = state.space.factor("beta").dim
    frame = atom_block(beta_dim, np.diag(HADAMARD_FRAME_PHASE))
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
                    _Scored(state, res), support))
    return apply_local(res.output, frame, ("beta",)), records


def _reset_alpha(step, state, params, config):
    res = physical_not_atom(state, params, config.gate_config(), atom="alpha",
                            cavity=None)
    return res.output, [(step.operation, "decoupled reset before phase pulse",
                         _Scored(state, res), step.support)]


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


def _apply_ideal(step, state, params, config):
    return (apply_local(state, *step.ideal(state.space)),
            [(step.operation, step.ideal_text, "-", step.support)])


@dataclass(frozen=True)
class _Level:
    """How one level traces the register and applies a step."""

    register_text: str
    apply: Callable             # (step, state, params, config) -> (state, records)
    resets_alpha: bool          # whether e branches reset alpha before the phase


_LEVELS = {
    "ideal": _Level("ideal", _apply_ideal, False),
    "physical": _Level("resonant quarter-cycle transfer",
                       lambda step, *args: step.physical(step, *args), True),
}


def _record(records: list, branch: str, step: str, node: Node, operation: str,
            params_text: str, outcome: str, support: tuple = (),
            slot: Optional[tuple] = None) -> None:
    """Append the record and its slot (see _Maps) to records."""
    if not _is_local(node.name, support):
        raise ProtocolError(
            f"operation on {support} exceeds node {node.name} ({sorted(node.factors)})")
    records.append((TraceRecord(branch, step, node.name, operation, params_text,
                                outcome, tuple(support)), slot))


def _run_step(records: list, scores: list, level: _Level, params: JCParams,
              config: ProtocolConfig, branch: str, step: _Step,
              state: StateVector) -> StateVector:
    """Apply step and record it; a gate record is traced with the fidelity on
    state, and its slot names its _Scored gate's index in scores."""
    state, done = level.apply(step, state, params, config)
    for operation, params_text, outcome, support in done:
        slot = None
        if isinstance(outcome, _Scored):
            slot = ("gate", len(scores), outcome.suffix)
            scores.append(outcome)
            outcome = _fidelity_outcome(outcome.result.fidelity_vs_ideal,
                                        outcome.suffix)
        _record(records, branch, step.name, step.node, operation, params_text,
                outcome, support, slot)
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
    spec = _GATES[gate]
    config = config or _cached_config()
    dim_c = config.fock_cutoff + 1

    # step 1-2: register
    if input_state is not None:
        ref_cav = input_state
    else:
        _check_pair(a, b, "ab")
        _check_pair(c, d, "cd")
        amps = np.zeros((dim_c, dim_c), dtype=complex)
        amps[:2, :2] = np.outer(np.array([b, a], dtype=complex), [d, c])
        ref_cav = StateVector(_register_space(dim_c), amps.reshape(-1))
    layout = _layout(ref_cav.space, spec.beta_dim, dim_c)

    # step 3: the ebit, the ideal Bell pair unless the caller brings one
    supplied = ebit_state is not None
    atoms = (_ebit_pair(ebit_state, spec.beta_dim) if supplied
             else _bell_pair(spec.beta_dim))

    records, branches = _apply_maps(gate, level, config, ref_cav, layout, atoms, supplied)
    return ProtocolTrace(gate=gate, level=level, records=tuple(records),
                         branches=tuple(branches))


@dataclass(frozen=True)
class _Leaf:
    """One measurement branch of the step loop, before it is scored."""

    alpha: str
    beta: str
    p_alpha: float
    p_beta: float               # conditional on alpha
    state: StateVector
    target: Optional[StateVector]   # None on a beta outcome i
    bits: tuple


def _measured(level: str, p: float) -> str:
    return f"outcome={level} p={p:.6f}"


def _run_steps(spec: _Gate, lvl: _Level, config: ProtocolConfig,
               cav_state: StateVector, ref_cav: StateVector,
               atoms: StateVector, supplied: bool) -> tuple:
    """The step table on one loaded register and ebit: (records, leaves,
    scores), records each (TraceRecord, slot) and scores the _Scored gate of
    each gate record.

    ref_cav is the register the ideal target is taken on; every record is
    refused as it is made if it leaves its node.
    """
    records: list = []
    leaves: list = []
    scores: list = []
    run = partial(_run_step, records, scores, lvl, spec.node_params, config)
    _record(records, "*", "encoding", SOURCE, "logical-encoding", ENCODING_NOTE, "-")
    for node in (ALICE, BOB):
        _record(records, "*", "register", node, "prepare-cavity",
                lvl.register_text, f"{node.cavity} loaded", (node.cavity, node.atom))
    if supplied:
        _record(records, "*", "ebit", SOURCE, "inject-ebit",
                "caller-supplied pair state", "-")
    else:
        _record(records, "*", "ebit", SOURCE, "distribute-bell-pair",
                "(|eg>+|ge>)/sqrt2", "-")
        _record(records, "*", "ebit", SOURCE, "handoff",
                "alpha to Alice, beta to Bob", "-")
    state = tensor([cav_state, atoms])

    # ideal reference for fidelity targets: the nonlocal gate on the input
    gated = apply_local(ref_cav, spec.target(ref_cav.space.factor("A").dim),
                        ("A", "B"))

    state = run("*", _STEP4, state)

    # alpha measured: one bit to Bob, his NOT on e, then steps 5 and 6
    for alpha_level, s, p_alpha in _measure(state, "alpha"):
        alpha_out = ATOM_LEVEL_NAMES[alpha_level]
        tag_a = alpha_out + "?"
        _record(records, tag_a, "measure-alpha", ALICE, "projective-measurement",
                "basis g/e", _measured(alpha_out, p_alpha), ("alpha",),
                ("alpha", alpha_out))
        to_bob = ("Alice", "Bob", _bit_of(alpha_out), "alpha-measurement")
        _record(records, tag_a, "classical", ALICE, "send-bit",
                f"bit={_bit_of(alpha_out)}", "Alice -> Bob")
        if alpha_out == "e":
            s = run(tag_a, _CONDITIONAL_NOT, s)
        s = run(tag_a, spec.step5, s)
        s = run(tag_a, _STEP6, s)

        # beta measured: one bit to Alice, her photon phase on the trigger
        for beta_level, sf, p_beta in _measure(s, "beta"):
            beta_out = ATOM_LEVEL_NAMES[beta_level]
            tag = alpha_out + beta_out
            _record(records, tag, "measure-beta", BOB, "projective-measurement",
                    "basis " + "/".join(ATOM_LEVEL_NAMES[:spec.beta_dim]),
                    _measured(beta_out, p_beta), ("beta",), ("beta", len(leaves)))
            if beta_out == "i":
                leaves.append(_Leaf(alpha_out, beta_out, p_alpha, p_beta, sf, None,
                                    (to_bob,)))
                continue
            to_alice = ("Bob", "Alice", _bit_of(beta_out), "beta-measurement")
            _record(records, tag, "classical", BOB, "send-bit",
                    f"bit={_bit_of(beta_out)}", "Bob -> Alice")

            alpha_final = alpha_out
            if beta_out == spec.correction_on:
                if lvl.resets_alpha and alpha_out == "e":
                    sf = run(tag, _ALPHA_RESET, sf)
                    alpha_final = "g"
                sf = run(tag, _PHOTON_PHASE, sf)

            leaves.append(_Leaf(alpha_out, beta_out, p_alpha, p_beta, sf,
                                _branch_target(gated, sf.space, alpha_final, beta_out),
                                (to_bob, to_alice)))
    return records, leaves, scores


# ---------------------------------------------------------------------------
# both levels as one linear map per measurement branch

# built maps kept: a few gates, levels, cutoffs, ebits and occupied levels
_MAPS_CACHED = 16


@dataclass(frozen=True)
class _Maps:
    """The protocol on the cavity levels <= m of one key.

    kraus[j] and targets[j] take the input's (A, B) amplitudes on those
    levels, A-major, to branch j's unnormalized output and its ideal target
    on (A, B, alpha, beta); targets[j] is zero on a beta outcome i, which so
    scores 0.  branches[j] is its (alpha, beta, bits).  scored[k] holds gate
    record k's pre-state, ideal-image and output columns as _gate_columns
    keeps them.  records holds the step loop's records in order, each as
    (record, slot): slot None copies the record; ("alpha", outcome) and
    ("beta", j) are measurements, whose p= is the input's; ("gate", k,
    suffix) is gate record k, whose fidelity= is the input's from scored[k].
    """

    side: int
    records: tuple
    branches: tuple
    kraus: np.ndarray
    targets: np.ndarray
    scored: np.ndarray


def _load_map(params: JCParams, dim_c: int) -> np.ndarray:
    """prepare_register at params as a 4 x 4 matrix: column 2 i + j holds
    the loaded (A, B) amplitudes on cavity levels <= 1, A-major, of the
    product |i>_A |j>_B: the Kronecker square of one node's 2 x 2 map,
    column i its cavity levels <= 1, atom in g, loaded with |i>."""
    node = np.array([_load_node(i, 1 - i, dim_c, params, "atom", "cavity")
                     .tensor_view()[ATOM_G, :2] for i in (0, 1)]).T
    return np.kron(node, node)


@lru_cache(maxsize=_MAPS_CACHED)
def _branch_maps(gate: str, level: str, config: ProtocolConfig, m: int,
                 ebit: bytes, supplied: bool) -> _Maps:
    """Run gate's step table once at level on a Choi state of the levels <= m.

    ebit holds the (alpha, beta) amplitudes.  The reference state is
    sum_k |k>_AB |k>_choi / side over the side^2 levels k, and the ideal
    level runs on it; the physical level runs on its image under _load_map
    (m is 1 there) and keeps it as the targets' reference.  Branch j ends in
    (K_j x 1)|choi> / sqrt(p_j), whose k-th column times side and sqrt(p_j)
    is K_j|k>.  A gate that meets the state S|k> scores input v on
    S v / |S v|, so it keeps the columns S, I S and A S of its pre-state,
    ideal image and output (see _gate_columns).  A branch the loop
    drops is zero on every input of those levels.  The maps must be
    complete there: sum_j K_j^dag K_j = 1.
    """
    spec = _GATES[gate]
    dim_c = config.fock_cutoff + 1
    side = m + 1
    n = side * side
    space = CompositeSpace([FactorLabel("A", dim_c), FactorLabel("B", dim_c),
                            FactorLabel("choi", n)])

    def choi(columns: np.ndarray) -> StateVector:
        v = np.zeros((dim_c, dim_c, n), dtype=complex)
        v[:side, :side] = columns.reshape(side, side, n) / side
        return StateVector(space, v.reshape(-1))

    def columns(state: StateVector) -> np.ndarray:
        # the amplitudes at choi level k as column k, rows in factor order
        view = np.moveaxis(state.tensor_view(), state.space.axis("choi"), -1)
        return view.reshape(-1, n)

    ref = choi(np.eye(n))
    loaded = ref if level == "ideal" else choi(_load_map(spec.node_params, dim_c))
    atoms = StateVector(CompositeSpace([FactorLabel("alpha", 2),
                                        FactorLabel("beta", spec.beta_dim)]),
                        np.frombuffer(ebit, dtype=complex))
    records, leaves, scores = _run_steps(spec, _LEVELS[level], config, loaded,
                                         ref, atoms, supplied)

    kraus = np.array([columns(leaf.state)
                      * (side * math.sqrt(leaf.p_alpha * leaf.p_beta))
                      for leaf in leaves])
    targets = np.array([np.zeros(kraus.shape[1:]) if leaf.target is None
                        else columns(leaf.target) * side for leaf in leaves])
    stacked = kraus.reshape(-1, n)
    err = float(np.linalg.norm(stacked.conj().T @ stacked - np.eye(n)))
    if err > 1e-10:
        raise ProtocolError(f"branch maps are incomplete on cavity levels <= {m}: "
                            f"sum K^dag K is off the identity by {err:.3g}")
    scored = np.array([_gate_columns(columns(sc.pre), columns(sc.result.target),
                                     columns(sc.result.output)) for sc in scores])
    for array in (kraus, targets, scored):
        array.setflags(write=False)
    return _Maps(side, tuple(records),
                 tuple((leaf.alpha, leaf.beta, leaf.bits) for leaf in leaves),
                 kraus, targets, scored)


def _gate_columns(pre: np.ndarray, target: np.ndarray,
                  output: np.ndarray) -> np.ndarray:
    """A gate's pre-state, ideal-image and output columns (rows x n each) as
    the R of their joint QR, split the same way: Q is an isometry, so R keeps
    every norm and overlap of their images of an input, in at most 3 n rows."""
    r = np.linalg.qr(np.hstack([pre, target, output]), mode="r")
    return r.reshape(len(r), 3, -1).transpose(1, 0, 2)


def _gate_fidelities(scored: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each gate record's fidelity on input v, |y'z|^2 / |x|^4 for its
    pre-state x = S v, ideal image y = I S v and output z = A S v; not a
    fidelity on a record of a branch that v never reaches, which is dropped.
    The vectors are formed first, so rounding errs by about 1e-16 / |x|, as
    on the normalized state."""
    x, y, z = np.moveaxis(scored @ v, 1, 0)
    overlap = np.einsum("kd,kd->k", y.conj(), z)
    norm = np.einsum("kd,kd->k", x.conj(), x).real
    with np.errstate(divide="ignore", invalid="ignore"):
        return abs(overlap) ** 2 / norm ** 2


def _with_outcome(record: TraceRecord, outcome: str) -> TraceRecord:
    # one dict copy in place of the frozen __init__'s seven setattr calls
    new = object.__new__(TraceRecord)
    new.__dict__.update(record.__dict__, outcome=outcome)
    return new


# the default config, and the ideal level's map key (it integrates nothing)
_cached_config = lru_cache(maxsize=_MAPS_CACHED)(ProtocolConfig)


@lru_cache(maxsize=_MAPS_CACHED)
def _register_space(dim_c: int) -> CompositeSpace:
    return CompositeSpace([FactorLabel("A", dim_c), FactorLabel("B", dim_c)])


@lru_cache(maxsize=_MAPS_CACHED)
def _layout(space: CompositeSpace, beta_dim: int, dim_c: int) -> tuple:
    """An input space, checked, as _apply_maps reads it: perm takes its axes
    to (A, B, rest), levels[i] is amplitude i's higher cavity level, and
    stacked outputs on (A, B, alpha, beta, rest), reshaped to shape and
    transposed by order, lie on out_space."""
    for need in ("A", "B"):
        if need not in space.names:
            raise QStateError(f"input_state must contain factor {need!r}")
        if space.factor(need).dim != dim_c:
            raise QStateError(f"input_state factor {need!r} must have dim {dim_c}")
    taken = sorted({"alpha", "beta"}.intersection(space.names))
    if taken:
        raise QStateError(f"label collision on {taken}")
    axes = [space.axis("A"), space.axis("B")]
    rest = [k for k in range(len(space.dims)) if k not in axes]
    levels = np.maximum(*np.indices(space.dims)[axes]).reshape(-1)
    levels.setflags(write=False)
    out_space = CompositeSpace(space.factors + (FactorLabel("alpha", 2),
                                                FactorLabel("beta", beta_dim)))
    shape = (-1, dim_c, dim_c, 2, beta_dim) + tuple(space.dims[k] for k in rest)
    order = [0] + [1 + axes.index(k) if k in axes else 5 + rest.index(k)
                   for k in range(len(space.dims))] + [3, 4]
    return axes + rest, levels, out_space, shape, order


def _apply_maps(gate: str, level: str, config: ProtocolConfig,
                ref_cav: StateVector, layout: tuple, atoms: StateVector,
                supplied: bool) -> tuple:
    """The protocol on one register: (records, branches) from the maps of its
    occupied cavity levels, with the step loop's drop rule and order."""
    perm, levels, out_space, shape, order = layout
    # the highest level any amplitude of A or B occupies, exactly; at least 1
    m = int(levels.max(where=ref_cav.amplitudes != 0, initial=1))
    key = config if level == "physical" else _cached_config(config.fock_cutoff)
    maps = _branch_maps(gate, level, key, m, atoms.amplitudes.tobytes(), supplied)
    side = maps.side
    psi = ref_cav.tensor_view().transpose(perm)[:side, :side].reshape(side * side, -1)
    outs = (maps.kraus.reshape(-1, len(psi)) @ psi).reshape(len(maps.kraus), -1)
    probs = np.vecdot(outs, outs).real.tolist()
    check_branch_total(sum(probs))   # as the alpha measurement refuses it
    targets = (maps.targets.reshape(-1, len(psi)) @ psi).reshape(len(outs), -1)
    # physical inputs are one product column; ideal maps score no gate
    fids = _gate_fidelities(maps.scored, psi[:, 0]) if len(maps.scored) else ()

    # the step loop's drop rule: a measurement at p < BRANCH_FLOOR is dropped
    # with every record up to the next measurement, and a dropped alpha
    # outcome with every beta outcome under it
    p_alpha: dict = {}
    for (alpha, _, _), p in zip(maps.branches, probs):
        p_alpha[alpha] = p_alpha.get(alpha, 0) + p
    p_beta = [0.0 if p_alpha[alpha] < BRANCH_FLOOR else p / p_alpha[alpha]
              for (alpha, _, _), p in zip(maps.branches, probs)]
    p = [p_alpha[alpha] * pb for (alpha, _, _), pb in zip(maps.branches, p_beta)]
    # a branch at p = 0 is dropped: divided by 1, its row is not read
    finals = outs / np.array([math.sqrt(pj) or 1.0 for pj in p])[:, None]
    fidelity = [abs(v) ** 2 for v in np.vecdot(targets, finals).tolist()]
    finals = np.ascontiguousarray(finals.reshape(shape).transpose(order))

    # one pass in record order
    records, branches = [], []
    keep = True
    for record, slot in maps.records:
        if slot is None:
            pass
        elif slot[0] == "gate":
            if keep:
                record = _with_outcome(record, _fidelity_outcome(fids[slot[1]], slot[2]))
        elif slot[0] == "alpha":
            alpha = slot[1]
            keep = not p_alpha[alpha] < BRANCH_FLOOR
            if keep:
                record = _with_outcome(record, _measured(alpha, p_alpha[alpha]))
        else:
            j = slot[1]
            keep = not p_beta[j] < BRANCH_FLOOR
            if keep:
                alpha, beta, bits = maps.branches[j]
                record = _with_outcome(record, _measured(beta, p_beta[j]))
                branches.append(BranchResult(alpha, beta, p[j], fidelity[j],
                                             StateVector(out_space, finals[j]), bits))
        if keep:
            records.append(record)
    return records, branches


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


@lru_cache(maxsize=None)
def _bell_pair(beta_dim: int) -> StateVector:
    """The ideal Bell pair as _ebit_pair widens it; immutable, so shared."""
    return _ebit_pair(_bell_atoms(), beta_dim)


def _pulse_text(result) -> str:
    return " ".join(f"gaussian(carrier={p.omega_drive:.9g}, width={p.width:.6g})"
                    for p in result.pulse_log) or "-"


def _branch_target(gated: StateVector, space: CompositeSpace, alpha_final: str,
                   beta_final: str) -> StateVector:
    """The ideal output on space: the gated register, with alpha and beta,
    the last two factors, at the branch's final levels."""
    amps = np.zeros(space.dims, dtype=complex)
    amps[..., ATOM_LEVEL_NAMES.index(alpha_final),
         ATOM_LEVEL_NAMES.index(beta_final)] = gated.tensor_view()
    return StateVector(space, amps)


# ---------------------------------------------------------------------------
# photon-gun Monte Carlo


def monte_carlo_gun_fidelity(model: PhotonGunModel, n_runs: int = 10000,
                             seed: int = 0) -> dict:
    """Mean protocol fidelity under imperfect pair distribution, on the
    default register of run_nonlocal_cnot.

    Emission outcomes are sampled with common random numbers (one uniform
    per run, single-photon band first), so the estimate is exactly
    non-increasing in p_empty + p_double at a fixed seed.  Failed heralds
    score zero; unflagged outcomes run the ideal protocol conditioned on
    the distributed pair state, which is deterministic per outcome.
    """
    if n_runs <= 0:
        raise QStateError("n_runs must be positive")
    u = make_rng(seed).random(n_runs)
    branches = enumerate_ebit_branches(model)
    weights = model.weights

    def conditional_score(br: EbitBranch) -> float:
        if br.flagged:
            return 0.0
        return run_nonlocal_cnot(ebit_state=br.atoms_state).mean_fidelity()

    outcome_score = {}
    for outcome in ("single", "empty", "double"):
        subset = [br for br in branches if br.label.startswith(outcome)]
        w = weights[outcome]
        if w == 0.0 or not subset:
            outcome_score[outcome] = 0.0
            continue
        outcome_score[outcome] = sum(
            br.probability / w * conditional_score(br) for br in subset)

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
