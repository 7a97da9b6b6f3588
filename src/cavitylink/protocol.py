"""Two-node nonlocal-gate protocol: shared entanglement plus two classical bits.

Layout: Alice holds cavity "A" and atom "alpha", Bob holds cavity "B" and
atom "beta"; an entangled atom pair is distributed once, then each side
applies only local operations and sends one measurement outcome to the
other.  The engine enforces that locality at apply time and records every
operation, so a trace can be audited line by line.

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
from typing import Optional

import numpy as np
import scipy.linalg

from .qstate import (CompositeSpace, FactorLabel, QStateError, StateVector,
                     apply_local, enumerate_branches, make_rng, tensor)
from .jcmodel import (JCParams, desk_params, resonant_rabi_evolve,
                      set_stark_detuning)
from .perturb import SOURCE_POINT_CYCLIC, TwoPhotonParams
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
    corrections: tuple
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
    input_description: str
    encoding: str
    records: tuple
    branches: tuple
    channel_bits_per_branch: int

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
    """Operating points for the physical protocol level."""

    x: float = 0.1
    fock_cutoff: int = 5
    tol: float = 1e-10
    rwa: bool = True
    swap_params: TwoPhotonParams = SOURCE_POINT_CYCLIC
    hadamard_x: float = 1e-3

    def gate_config(self) -> PhysicalGateConfig:
        return PhysicalGateConfig(fock_cutoff=self.fock_cutoff, rwa=self.rwa,
                                  tol=self.tol)


def locality_violations(records) -> list:
    """Records whose support leaks outside the acting node's territory."""
    side = {}
    for node in (ALICE, BOB):
        for f in node.factors:
            side[f] = node.name
    bad = []
    for r in records:
        if r.node not in ("Alice", "Bob", "Source"):
            continue
        touched = {side.get(f) for f in r.support if f in side}
        touched.discard(None)
        if r.node == "Source":
            if any(f not in SOURCE.factors for f in r.support):
                bad.append(r)
        elif touched - {r.node}:
            bad.append(r)
    return bad


def _assert_local(node: Node, support: tuple, anc_ok: bool = False) -> None:
    for f in support:
        if f in node.factors:
            continue
        if anc_ok and f not in ALICE.factors | BOB.factors:
            continue
        raise ProtocolError(
            f"operation on {support} exceeds node {node.name} ({sorted(node.factors)})")


def _basis_ge(dim: int) -> list:
    names = ("g", "e", "i")[:dim]
    basis = []
    for k, name in enumerate(names):
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        basis.append((name, v))
    return basis


def _bit_of(outcome: str) -> int:
    return {"g": 1, "e": 0}[outcome]


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
                     mode: str = "ideal", fock_cutoff: int = 5,
                     params_a: Optional[JCParams] = None,
                     params_b: Optional[JCParams] = None,
                     beta_dim: int = 2) -> StateVector:
    """Cavity qubits (a|1> + b|0>) on A and (c|1> + d|0>) on B, atoms in g.

    Physical mode prepares each atom in the matching superposition (with a
    pre-compensated drive phase) and transfers it to the cavity by a
    resonant quarter-cycle exchange; the transfer phase -i on |e,0> ->
    |g,1> is what the pre-compensation cancels.
    """
    if mode not in ("ideal", "physical"):
        raise QStateError(f"unknown mode {mode!r}")
    _check_pair(a, b, "ab")
    _check_pair(c, d, "cd")
    dim_c = fock_cutoff + 1
    if mode == "ideal":
        return tensor([
            _cavity_qubit("A", dim_c, a, b), _atom_level("alpha", 2, 0),
            _cavity_qubit("B", dim_c, c, d), _atom_level("beta", beta_dim, 0),
        ])
    if beta_dim != 2:
        raise ProtocolError("physical register transfer is defined for two-level atoms")
    params_a = params_a or desk_params(1.0, x=0.1)
    params_b = params_b or desk_params(1.0, x=0.1)
    parts = []
    for label_c, label_a, one, zero, params in (
            ("A", "alpha", a, b, params_a), ("B", "beta", c, d, params_b)):
        atom = np.array([zero, 1.0j * one], dtype=complex)  # drive-phase precompensation
        cav = np.zeros(dim_c, dtype=complex)
        cav[0] = 1.0
        node = tensor([
            StateVector(CompositeSpace([FactorLabel(label_a, 2)]), atom),
            StateVector(CompositeSpace([FactorLabel(label_c, dim_c)]), cav),
        ])
        resonant = set_stark_detuning(params, params.omega)
        node = resonant_rabi_evolve(resonant, node,
                                    math.pi / (2.0 * params.rabi_coupling),
                                    atom=label_a, cavity=label_c)
        parts.append(node)
    full = tensor(parts)
    order = [FactorLabel("A", dim_c), FactorLabel("alpha", 2),
             FactorLabel("B", dim_c), FactorLabel("beta", 2)]
    return _reorder(full, CompositeSpace(order))


def _reorder(state: StateVector, space: CompositeSpace) -> StateVector:
    if state.space == space:
        return state
    perm = [state.space.axis(f.name) for f in space.factors]
    return StateVector(space, state.tensor_view().transpose(perm).reshape(-1))


def beam_splitter_mix(state: StateVector, mode_a: str, mode_b: str,
                      theta: float = math.pi / 4.0,
                      phase: float = -math.pi / 2.0) -> StateVector:
    """50/50 mixing U = exp(-i theta (e^{i phase} a+b + h.c.)) of two modes.

    The default angles send |1,0> to (|0,1> + |1,0>)/sqrt2 with no relative
    phase.
    """
    da = state.space.factor(mode_a).dim
    db = state.space.factor(mode_b).dim
    if da != db:
        raise QStateError("beam splitter needs equal mode dimensions")
    low = np.diag(np.sqrt(np.arange(1, da)), k=1)   # annihilation
    a_op = np.kron(low, np.eye(db))
    b_op = np.kron(np.eye(da), low)
    gen = theta * (np.exp(1j * phase) * a_op.conj().T @ b_op
                   + np.exp(-1j * phase) * a_op @ b_op.conj().T)
    return apply_local(state, scipy.linalg.expm(-1j * gen), (mode_a, mode_b))


def _bell_atoms(beta_dim: int = 2) -> StateVector:
    space = CompositeSpace([FactorLabel("alpha", 2), FactorLabel("beta", beta_dim)])
    v = np.zeros(space.dim, dtype=complex)
    v[space.index({"alpha": 1, "beta": 0})] = 1.0 / math.sqrt(2)   # |e g>
    v[space.index({"alpha": 0, "beta": 1})] = 1.0 / math.sqrt(2)   # |g e>
    return StateVector(space, v)


def enumerate_ebit_branches(model: PhotonGunModel,
                            transfer_coupling: float = 1.0) -> tuple:
    """All heralded outcomes of one photon-gun distribution attempt.

    The gun loads port p1 with zero, one, or two photons; a balanced beam
    splitter mixes the ports; each node converts its port photon onto its
    atom by a resonant quarter-cycle exchange and then checks the port with
    a photodetector.  Any leftover photon flags the attempt as a failed
    herald.  An empty emission is indistinguishable from success at the
    detectors and ends with both atoms in g.
    """
    weights = model.weights
    g = transfer_coupling
    params = JCParams(omega0=1.0, omega=1.0, rabi_coupling=g)
    t_transfer = math.pi / (2.0 * g)
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
        for n1, st1, pr1 in enumerate_branches(st, "p1"):
            if st1 is None:
                continue
            for n2, st2, pr2 in enumerate_branches(st1, "p2"):
                if st2 is None:
                    continue
                flagged = (n1 != "0") or (n2 != "0")
                atoms = _strip_ports(st2)
                # transfer phases: |1> -> -i|e> on each side, global for the pair
                branches.append(EbitBranch(
                    label=f"{outcome}:{n1}{n2}", flagged=flagged,
                    atoms_state=atoms,
                    probability=float(w * pr1 * pr2)))
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > 1e-9:
        raise ProtocolError(f"gun branch probabilities sum to {total}")
    return tuple(branches)


def _strip_ports(state: StateVector) -> StateVector:
    space = CompositeSpace([FactorLabel("alpha", 2), FactorLabel("beta", 2)])
    return _reorder_sub(state, space)


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


def prepare_ebit(mode: str = "ideal", model: Optional[PhotonGunModel] = None,
                 rng=None, beta_dim: int = 2) -> tuple:
    """Distribute the shared atom pair; returns (state on (alpha, beta), flagged).

    photon_gun mode samples one emission outcome from the model (rng
    required) and runs it through the beam splitter, transfer, and herald
    chain; the flag marks a failed herald.
    """
    if mode == "ideal":
        return _bell_atoms(beta_dim), False
    if mode != "photon_gun":
        raise QStateError(f"unknown mode {mode!r}")
    if beta_dim != 2:
        raise ProtocolError("photon gun distribution is defined for two-level atoms")
    if model is None or rng is None:
        raise QStateError("photon_gun mode needs a model and an rng")
    branches = enumerate_ebit_branches(model)
    probs = np.array([b.probability for b in branches])
    k = int(rng.choice(len(branches), p=probs / probs.sum()))
    chosen = branches[k]
    return chosen.atoms_state, chosen.flagged


# ---------------------------------------------------------------------------
# small local blocks, applied with apply_local


def _atom_block(dim: int, block: np.ndarray) -> np.ndarray:
    """A (g, e) block on an atom of dimension dim, identity on any i level."""
    mat = np.eye(dim, dtype=complex)
    mat[:2, :2] = block
    return mat


def _nonlocal_target_block(dim: int, gate: str) -> np.ndarray:
    """The nonlocal gate on cavities (A, B) of dimension dim each: CNOT with
    A controlling B, or the phase -1 on |0 photons, 0 photons>."""
    mat = np.eye(dim * dim, dtype=complex)
    if gate == "cnot":
        i10 = 1 * dim + 0
        i11 = 1 * dim + 1
        mat[i10, i10] = mat[i11, i11] = 0.0
        mat[i10, i11] = mat[i11, i10] = 1.0
    elif gate == "cqpg":
        mat[0, 0] = -1.0
    else:
        raise QStateError(f"unknown gate {gate!r}")
    return mat


# ---------------------------------------------------------------------------
# the protocol engine


class _Run:
    def __init__(self, gate: str, level: str, config: ProtocolConfig):
        self.gate = gate
        self.level = level
        self.config = config
        self.records: list = []
        self.branches: list = []

    def record(self, branch: str, step: str, node: Node, operation: str,
               params_text: str, outcome: str, support: tuple,
               anc_ok: bool = False) -> None:
        if node in (ALICE, BOB, SOURCE):
            _assert_local(node, support, anc_ok=anc_ok)
        self.records.append(TraceRecord(branch, step, node.name, operation,
                                        params_text, outcome, tuple(support)))


def _node_params(gate: str, config: ProtocolConfig) -> JCParams:
    if gate == "cnot":
        return config.swap_params.jc_params()
    return desk_params(1.0, x=config.x)


def run_nonlocal_cnot(a: complex = 1 / math.sqrt(2), b: complex = 1 / math.sqrt(2),
                      c: complex = 1 / math.sqrt(2), d: complex = 1 / math.sqrt(2),
                      level: str = "ideal", branch_mode: str = "enumerate",
                      seed: Optional[int] = None,
                      input_state: Optional[StateVector] = None,
                      ebit_mode: str = "ideal",
                      gun_model: Optional[PhotonGunModel] = None,
                      ebit_state: Optional[StateVector] = None,
                      config: Optional[ProtocolConfig] = None) -> ProtocolTrace:
    """Nonlocal CNOT between the cavity qubits of Alice and Bob."""
    return _run_protocol("cnot", a, b, c, d, level, branch_mode, seed,
                         input_state, ebit_mode, gun_model, ebit_state, config)


def run_nonlocal_cqpg(a: complex = 1 / math.sqrt(2), b: complex = 1 / math.sqrt(2),
                      c: complex = 1 / math.sqrt(2), d: complex = 1 / math.sqrt(2),
                      level: str = "ideal", branch_mode: str = "enumerate",
                      seed: Optional[int] = None,
                      input_state: Optional[StateVector] = None,
                      ebit_mode: str = "ideal",
                      gun_model: Optional[PhotonGunModel] = None,
                      ebit_state: Optional[StateVector] = None,
                      config: Optional[ProtocolConfig] = None) -> ProtocolTrace:
    """Nonlocal controlled-phase between the cavity qubits, local step 5."""
    return _run_protocol("cqpg", a, b, c, d, level, branch_mode, seed,
                         input_state, ebit_mode, gun_model, ebit_state, config)


def _run_protocol(gate, a, b, c, d, level, branch_mode, seed, input_state,
                  ebit_mode, gun_model, ebit_state, config) -> ProtocolTrace:
    if level not in ("ideal", "physical"):
        raise QStateError(f"unknown level {level!r}")
    if branch_mode not in ("enumerate", "sample"):
        raise QStateError(f"unknown branch_mode {branch_mode!r}")
    if input_state is not None and level != "ideal":
        raise ProtocolError("external-ancilla inputs are supported at the ideal level")
    config = config or ProtocolConfig()
    run = _Run(gate, level, config)
    beta_dim = 3 if gate == "cqpg" else 2
    dim_c = config.fock_cutoff + 1
    rng = make_rng(seed) if seed is not None else None
    if branch_mode == "sample" and rng is None:
        raise QStateError("branch_mode sample needs a seed")

    params = _node_params(gate, config)
    gate_cfg = config.gate_config()
    tp3 = ThreeLevelParams(rabi_coupling=params.rabi_coupling)

    run.record("*", "encoding", SOURCE, "logical-encoding", ENCODING_NOTE, "-", ())

    # step 1-2: register
    if input_state is not None:
        for need in ("A", "B"):
            if need not in input_state.space.names:
                raise QStateError(f"input_state must contain factor {need!r}")
            if input_state.space.factor(need).dim != dim_c:
                raise QStateError(f"input_state factor {need!r} must have dim {dim_c}")
        cav_state = input_state
        ref_cav = input_state
        amplitudes = None
        desc = "external input state on " + ",".join(input_state.space.names)
    else:
        _check_pair(a, b, "ab")
        _check_pair(c, d, "cd")
        ref_cav = tensor([_cavity_qubit("A", dim_c, a, b),
                          _cavity_qubit("B", dim_c, c, d)])
        if level == "physical":
            reg = prepare_register(a, b, c, d, mode="physical",
                                   fock_cutoff=config.fock_cutoff,
                                   params_a=params, params_b=params)
            cav_state = _reorder_sub(reg, CompositeSpace(
                [FactorLabel("A", dim_c), FactorLabel("B", dim_c)]))
        else:
            cav_state = ref_cav
        amplitudes = (complex(a), complex(b), complex(c), complex(d))
        desc = "product register (a|1>+b|0>)_A (c|1>+d|0>)_B"
    run.record("*", "register", ALICE, "prepare-cavity",
               "resonant quarter-cycle transfer" if level == "physical" else "ideal",
               "A loaded", ("A", "alpha"))
    run.record("*", "register", BOB, "prepare-cavity",
               "resonant quarter-cycle transfer" if level == "physical" else "ideal",
               "B loaded", ("B", "beta"))

    # step 3: entanglement distribution
    flagged = False
    if ebit_state is not None:
        atoms = ebit_state
        run.record("*", "ebit", SOURCE, "inject-ebit", "caller-supplied pair state",
                   "-", ())
    elif ebit_mode == "photon_gun":
        if gate != "cnot":
            raise ProtocolError("photon gun distribution is wired for the cnot protocol")
        if rng is None:
            raise QStateError("photon_gun mode needs a seed")
        atoms, flagged = prepare_ebit("photon_gun", gun_model or PhotonGunModel(),
                                      rng=rng)
        run.record("*", "ebit", SOURCE, "photon-gun+beam-splitter",
                   "theta=pi/4 phase=-pi/2", f"herald_failed={flagged}",
                   ("p1", "p2"))
        run.record("*", "ebit", ALICE, "port-transfer", "resonant quarter cycle",
                   "p1 -> alpha", ("alpha", "p1"))
        run.record("*", "ebit", BOB, "port-transfer", "resonant quarter cycle",
                   "p2 -> beta", ("beta", "p2"))
    else:
        atoms, _ = prepare_ebit("ideal", beta_dim=beta_dim)
        run.record("*", "ebit", SOURCE, "distribute-bell-pair",
                   "(|eg>+|ge>)/sqrt2", "-", ())
        run.record("*", "ebit", SOURCE, "handoff", "alpha to Alice, beta to Bob",
                   "-", ())
    if atoms.space.factor("beta").dim != beta_dim:
        atoms = _widen_beta(atoms, beta_dim)
    state = tensor([cav_state, atoms])

    # ideal reference for fidelity targets: the nonlocal gate on the input
    ref_atoms = tensor([_atom_level("alpha", 2, 0), _atom_level("beta", beta_dim, 0)])
    target_initial = apply_local(tensor([ref_cav, ref_atoms]),
                                 _nonlocal_target_block(dim_c, gate), ("A", "B"))

    # step 4: photon-controlled flip of alpha at Alice
    if level == "ideal":
        state = apply_local(state, *ideal_block(GateKind.CNOT_CAVITY_TO_ATOM,
                                                 state.space, "alpha", "A"))
        run.record("*", "step4", ALICE, "cnot-cavity-to-atom", "ideal", "-",
                   ("alpha", "A"))
    else:
        res = physical_cnot_cavity_to_atom(state, params, gate_cfg,
                                           atom="alpha", cavity="A")
        state = res.output
        run.record("*", "step4", ALICE, "cnot-cavity-to-atom",
                   _pulse_text(res), f"fidelity={res.fidelity_vs_ideal:.9f}",
                   ("alpha", "A"))

    # measurement of alpha, branching
    alpha_branches = enumerate_branches(state, "alpha", basis=_basis_ge(2))
    if branch_mode == "sample":
        alpha_branches = [_sample_branch(alpha_branches, rng)]

    for alpha_out, state_a, p_alpha in alpha_branches:
        if state_a is None:
            continue
        tag_a = alpha_out + "?"
        run.record(tag_a, "measure-alpha", ALICE, "projective-measurement",
                   "basis g/e", f"outcome={alpha_out} p={p_alpha:.6f}", ("alpha",))
        bits = [("Alice", "Bob", _bit_of(alpha_out), "alpha-measurement")]
        run.record(tag_a, "classical", ALICE, "send-bit",
                   f"bit={_bit_of(alpha_out)}", "Alice -> Bob", ())

        s = state_a
        if alpha_out == "e":
            if level == "ideal":
                s = apply_local(s, *ideal_block(GateKind.NOT_ATOM, s.space, "beta"))
                run.record(tag_a, "conditional-not", BOB, "not-atom", "ideal",
                           "-", ("beta",))
            else:
                cav_for_not = None if beta_dim == 3 else "B"
                resn = physical_not_atom(s, params, gate_cfg, atom="beta",
                                         cavity=cav_for_not)
                s = resn.output
                run.record(tag_a, "conditional-not", BOB, "not-atom",
                           _pulse_text(resn),
                           f"fidelity={resn.fidelity_vs_ideal:.9f}",
                           ("beta",) if cav_for_not is None else ("beta", "B"))

        # step 5
        if gate == "cnot":
            if level == "ideal":
                s = apply_local(s, *ideal_block(GateKind.CNOT_ATOM_TO_CAVITY,
                                                 s.space, "beta", "B"))
                run.record(tag_a, "step5", BOB, "cnot-atom-to-cavity", "ideal",
                           "-", ("beta", "B"))
            else:
                res5 = physical_cnot_atom_to_cavity(s, config.swap_params,
                                                    gate_cfg, atom="beta",
                                                    cavity="B")
                s = res5.output
                run.record(tag_a, "step5", BOB, "cnot-atom-to-cavity",
                           _pulse_text(res5),
                           f"fidelity={res5.fidelity_vs_ideal:.9f} "
                           f"exchange={res5.exchange_probability_tdse:.6f}",
                           ("beta", "B"))
        else:
            if level == "ideal":
                s = apply_local(s, *ideal_block(GateKind.CQPG_LOCAL, s.space,
                                                 "beta", "B"))
                run.record(tag_a, "step5", BOB, "cqpg-local", "phi=pi", "-",
                           ("beta", "B"))
            else:
                res5 = physical_cqpg_local(s, tp3, gate_cfg, atom="beta",
                                           cavity="B")
                s = res5.output
                run.record(tag_a, "step5", BOB, "cqpg-local",
                           f"resonant e-i cycle t=pi/{params.rabi_coupling:.6g}",
                           f"fidelity={res5.fidelity_vs_ideal:.9f}",
                           ("beta", "B"))

        # step 6: protocol Hadamard on beta
        if level == "ideal":
            s = apply_local(s, _atom_block(beta_dim, TRUE_HADAMARD), ("beta",))
            run.record(tag_a, "step6", BOB, "hadamard", "ideal", "-", ("beta",))
        else:
            frame = _atom_block(beta_dim, np.diag(HADAMARD_FRAME_PHASE))
            s = apply_local(s, frame, ("beta",))
            if beta_dim == 3:
                resh = physical_hadamard_atom(s, params, gate_cfg, atom="beta",
                                              cavity=None)
                sup = ("beta",)
            else:
                params_h = set_stark_detuning(
                    params, params.omega + params.rabi_coupling / config.hadamard_x)
                run.record(tag_a, "step6", BOB, "stark-switch",
                           f"delta -> coupling/{config.hadamard_x:.6g}", "-",
                           ("beta", "B"))
                resh = physical_hadamard_atom(s, params_h, gate_cfg, atom="beta",
                                              cavity="B")
                sup = ("beta", "B")
            s = apply_local(resh.output, frame, ("beta",))
            run.record(tag_a, "step6", BOB, "hadamard",
                       _pulse_text(resh) + " + atom frame phases diag(i,1)",
                       f"fidelity={resh.fidelity_vs_ideal:.9f}", sup)

        beta_branches = enumerate_branches(s, "beta", basis=_basis_ge(beta_dim))
        if branch_mode == "sample":
            beta_branches = [_sample_branch(beta_branches, rng)]

        for beta_out, state_b, p_beta in beta_branches:
            if state_b is None:
                continue
            tag = alpha_out + beta_out
            run.record(tag, "measure-beta", BOB, "projective-measurement",
                       f"basis {'/'.join(n for n, _ in _basis_ge(beta_dim))}",
                       f"outcome={beta_out} p={p_beta:.6f}", ("beta",))
            if beta_out == "i":
                self_prob = float(p_alpha * p_beta)
                run.branches.append(BranchResult(
                    alpha_out, beta_out, self_prob, 0.0, state_b,
                    ("auxiliary-level leakage",), tuple(bits)))
                continue
            channel = ClassicalChannel()
            for sender, recipient, bit, step in bits:
                channel.send(sender, recipient, bit, step)
            channel.send("Bob", "Alice", _bit_of(beta_out), "beta-measurement")
            run.record(tag, "classical", BOB, "send-bit",
                       f"bit={_bit_of(beta_out)}", "Bob -> Alice", ())

            sf = state_b
            corrections = []
            alpha_final = alpha_out
            trigger = "g" if gate == "cnot" else "e"
            if beta_out == trigger:
                if level == "ideal":
                    sf = apply_local(sf, *ideal_block(GateKind.SIGMA_Z, sf.space,
                                                       cavity="A"))
                    run.record(tag, "correction", ALICE, "photon-phase", "ideal",
                               "-", ("A",))
                else:
                    if alpha_out == "e":
                        resr = physical_not_atom(sf, params, gate_cfg,
                                                 atom="alpha", cavity=None)
                        sf = resr.output
                        alpha_final = "g"
                        corrections.append("alpha reset (decoupled pi pulse)")
                        run.record(tag, "correction", ALICE, "not-atom",
                                   "decoupled reset before phase pulse",
                                   f"fidelity={resr.fidelity_vs_ideal:.9f}",
                                   ("alpha",))
                    resonant = set_stark_detuning(params, params.omega)
                    run.record(tag, "correction", ALICE, "stark-switch",
                               "delta -> 0", "-", ("alpha", "A"))
                    sf = resonant_rabi_evolve(resonant, sf,
                                              math.pi / params.rabi_coupling,
                                              atom="alpha", cavity="A")
                    run.record(tag, "correction", ALICE, "resonant-2pi-cycle",
                               f"t=pi/{params.rabi_coupling:.6g}", "-",
                               ("alpha", "A"))
                corrections.append("photon phase on A")

            target = _branch_target(target_initial, alpha_final, beta_out)
            fid = float(abs(np.vdot(target.amplitudes, sf.amplitudes)) ** 2)
            if flagged:
                fid = 0.0
                corrections.append("failed herald")
            run.branches.append(BranchResult(
                alpha_out, beta_out, float(p_alpha * p_beta), fid, sf,
                tuple(corrections), tuple(channel.log)))

    if branch_mode == "enumerate" and not flagged:
        total = sum(br.probability for br in run.branches)
        if abs(total - 1.0) > 1e-10:
            raise ProtocolError(f"branch probabilities sum to {total}")
    for br in run.branches:
        if len(br.bits) != 2 and br.beta != "i":
            raise ProtocolError(f"branch {br.label} used {len(br.bits)} bits")

    return ProtocolTrace(
        gate=gate, level=level, amplitudes=amplitudes, input_description=desc,
        encoding=ENCODING_NOTE, records=tuple(run.records),
        branches=tuple(run.branches), channel_bits_per_branch=2)


def _widen_beta(atoms: StateVector, beta_dim: int) -> StateVector:
    space = CompositeSpace([FactorLabel("alpha", 2), FactorLabel("beta", beta_dim)])
    out = np.zeros(space.dim, dtype=complex)
    old = atoms.tensor_view()
    ia = atoms.space.axis("alpha")
    if ia != 0:
        old = old.transpose(1, 0)
    out_view = out.reshape(2, beta_dim)
    out_view[:, :old.shape[1]] = old
    return StateVector(space, out)


def _sample_branch(branches, rng):
    labels = [b[0] for b in branches]
    probs = np.array([b[2] for b in branches])
    k = int(rng.choice(len(labels), p=probs / probs.sum()))
    return branches[k]


def _pulse_text(result) -> str:
    parts = []
    for p in result.pulse_log:
        parts.append(f"{p.shape}(carrier={p.omega_drive:.9g}, width={p.width:.6g})")
    return " ".join(parts) if parts else "-"


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
