"""Local gates on one atom-cavity node: ideal unitaries and pulsed physics.

Physical single-node gates share one pipeline:

1. encode: the computational labels {|g,0>, |e,0>, |g,1>, |e,1>} are carried
   into the dressed frame by the adiabatic detuning-ramp map (bare photon
   states become |g,0>, |V+,0>, |V-,0>, |V+,1>);
2. drive: a gaussian pulse is integrated in the cavity-rotating frame as one
   pulses.Drive on the atom's raising operator: its carrier is the offset
   from the cavity frequency, and its counter-rotating term at 2 omega plus
   that offset is kept unless the config sets rwa.  Either drive takes
   pulses' 6th-order Magnus path in the carrier's frame, to an error
   estimate below tol that the GateResult carries with its step count;
3. correct: residual deterministic phases are removed by a diagonal
   correction solved from the simulated propagator itself, restricted to
   locally implementable phases (atom frame phases, photon-conditioned
   dispersive phases) -- magnitudes are never touched, and the
   controlled-phase gate's defining sign is never adjusted;
4. decode: back through the ramp map, so callers always see bare-basis
   states in and out.

Each engine integrates the full node once per (params, config) and caches
the corrected bare-basis action; every gate call applies that one small
matrix to its node factors with qstate.apply_local, whatever the rest of
the register holds.  Fidelity is always reported against the ideal oracle
(the same small block, applied the same way) on the caller's state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

from .qstate import (ATOM_E, ATOM_G, ATOM_I, CompositeSpace, FactorLabel,
                     Operator, QStateError, StateVector, apply_local, embed)
from .jcmodel import (JCParams, bare_to_dressed_map, dressed_pair, jc_rotating,
                      manifold_splitting)
from .pulses import (GAUSSIAN_SUPPORT, Drive, PulseSpec, calibrate_pulse_area,
                     propagate_basis)
from .perturb import TwoPhotonParams, two_photon_amplitude


class GateKind(Enum):
    CNOT_CAVITY_TO_ATOM = "cnot_cavity_to_atom"
    CNOT_ATOM_TO_CAVITY = "cnot_atom_to_cavity"
    SWAP_ATOM_CAVITY = "swap_atom_cavity"
    CQPG_LOCAL = "cqpg_local"
    HADAMARD_ATOM = "hadamard_atom"
    NOT_ATOM = "not_atom"
    SIGMA_Z = "sigma_z"


# Physical pi/2-pulse target on the atom: |g> -> (|g> - i|e>)/sqrt(2).
HADAMATOM = np.array([[1.0, -1.0j], [-1.0j, 1.0]], dtype=complex) / math.sqrt(2)


def fidelity_closed_form(x: float) -> float:
    """Reference fidelity curve of the dispersive cavity-controls-atom gate.

    Exceeds 1 by a few 1e-7 for small nonzero x because of the additive
    0.003 x^2 term; callers comparing for monotonicity should allow a
    2e-6 slack.
    """
    if x < 0:
        raise QStateError(f"x must be >= 0, got {x}")
    main = 0.25 * (1.0 + math.sin(0.5 * math.pi * (1.0 - 1.5 * x * x))) ** 2
    return main + 0.003 * x * x


# selective pulse width = TAU_FACTOR / (selectivity splitting); every
# gaussian is truncated at pulses.GAUSSIAN_SUPPORT widths
TAU_FACTOR = 6.0


@dataclass(frozen=True)
class PhysicalGateConfig:
    """What callers of the pulsed gates set: the cavity's Fock cutoff,
    whether the drive keeps its counter-rotating term (rwa False), and the
    integrator tolerance."""

    fock_cutoff: int = 5
    rwa: bool = False
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.fock_cutoff < 2:
            raise QStateError("fock_cutoff must be >= 2")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise QStateError(f"tol must be > 0 and finite, got {self.tol}")


@dataclass(frozen=True)
class ThreeLevelParams:
    """Ladder atom {g, e, i} with the cavity resonant on e <-> i.

    delta_ge None models the fully suppressed g <-> e cavity coupling (the
    transition is far out of band); a finite value turns that coupling on
    at the given detuning, with strength coupling_ge (defaults to the e-i
    coupling).
    """

    rabi_coupling: float
    delta_ge: Optional[float] = None
    coupling_ge: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rabi_coupling <= 0:
            raise QStateError("rabi_coupling must be > 0")
        if self.delta_ge is not None and self.delta_ge == 0:
            raise QStateError("delta_ge = 0 would make g<->e resonant; use None to suppress")
        if self.coupling_ge is not None and self.coupling_ge <= 0:
            raise QStateError("coupling_ge must be > 0")


@dataclass(frozen=True)
class GateResult:
    """Outcome of one physical gate application."""

    output: StateVector
    fidelity_vs_ideal: float
    pulse_log: tuple
    duration: float
    norm_drift: Optional[float] = None
    correction: Optional[dict] = None
    exchange_probability_tdse: Optional[float] = None
    exchange_probability_perturbative: Optional[float] = None
    # step-doubling estimate of max |U - U_exact| over the propagators the
    # action is built from, and their Magnus steps (0 for exact evolution)
    error_estimate: Optional[float] = None
    steps: Optional[int] = None

    def __post_init__(self) -> None:
        f = self.fidelity_vs_ideal
        if not -1e-12 <= f <= 1.0 + 1e-9:
            raise QStateError(f"fidelity {f} outside [0, 1]")
        object.__setattr__(self, "fidelity_vs_ideal", float(min(max(f, 0.0), 1.0)))


# ---------------------------------------------------------------------------
# ideal oracles


# computational labels in logical order [0g, 0e, 1g, 1e] as (atom, photon)
_LOGICAL = ((ATOM_G, 0), (ATOM_E, 0), (ATOM_G, 1), (ATOM_E, 1))


def _comp_rows(n_ph: int) -> list:
    return [a * n_ph + n for a, n in _LOGICAL]


# the logical label [0g, 0e, 1g, 1e] each output row takes from
_TRUTH_TABLE = {
    GateKind.CNOT_CAVITY_TO_ATOM: (0, 1, 3, 2),
    GateKind.NOT_ATOM: (1, 0, 3, 2),
    GateKind.SWAP_ATOM_CAVITY: (3, 1, 2, 0),
    GateKind.CNOT_ATOM_TO_CAVITY: (2, 1, 0, 3),
}


def _ideal_pair_matrix(kind: GateKind, atom_dim: int, n_ph: int) -> np.ndarray:
    """Identity outside the computational labels; on them, the truth table
    of a CNOT or the SWAP, or the controlled phase's -1 on |e,1>."""
    u = np.eye(atom_dim * n_ph, dtype=complex)
    rows = _comp_rows(n_ph)
    if kind == GateKind.CQPG_LOCAL:
        u[rows[3], rows[3]] = np.exp(1j * math.pi)
        return u
    # scalar writes to the moved rows only: fancy indexing would triple the
    # cost of this block, which every warm gate call builds
    for row, label in zip(rows, _TRUTH_TABLE[kind]):
        if rows[label] != row:
            u[row, row], u[row, rows[label]] = 0.0, 1.0
    return u


def ideal_block(kind: GateKind, space: CompositeSpace, atom: Optional[str] = None,
                cavity: Optional[str] = None) -> tuple:
    """The ideal gate as (matrix, factors): its block on the factors it acts on.

    Apply it with qstate.apply_local; ideal_gate embeds the same block into
    a dense operator on the whole space.
    """
    pair_kinds = (GateKind.CNOT_CAVITY_TO_ATOM, GateKind.CNOT_ATOM_TO_CAVITY,
                  GateKind.SWAP_ATOM_CAVITY, GateKind.CQPG_LOCAL)
    if kind in pair_kinds:
        if atom is None or cavity is None:
            raise QStateError(f"{kind.value} needs both atom and cavity labels")
        a_dim = space.factor(atom).dim
        n_ph = space.factor(cavity).dim
        if a_dim not in (2, 3):
            raise QStateError(f"atom factor {atom!r} must have dim 2 or 3")
        if n_ph < 2:
            raise QStateError(f"cavity factor {cavity!r} must hold photon 0 and 1")
        return _ideal_pair_matrix(kind, a_dim, n_ph), (atom, cavity)

    if kind in (GateKind.HADAMARD_ATOM, GateKind.NOT_ATOM):
        if atom is None:
            raise QStateError(f"{kind.value} needs an atom label")
        a_dim = space.factor(atom).dim
        if a_dim not in (2, 3):
            raise QStateError(f"atom factor {atom!r} must have dim 2 or 3")
        block = HADAMATOM if kind == GateKind.HADAMARD_ATOM else \
            np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        mat = np.eye(a_dim, dtype=complex)
        mat[:2, :2] = block
        return mat, (atom,)

    if kind == GateKind.SIGMA_Z:
        if (atom is None) == (cavity is None):
            raise QStateError("sigma_z takes exactly one of atom or cavity")
        name = atom if atom is not None else cavity
        mat = np.eye(space.factor(name).dim, dtype=complex)
        if atom is not None:
            mat[ATOM_G, ATOM_G] = -1.0  # logical |1> is |g>
        else:
            mat[1, 1] = -1.0            # one photon
        return mat, (name,)

    raise QStateError(f"unknown gate kind {kind!r}")


def ideal_gate(kind: GateKind, space: CompositeSpace, atom: Optional[str] = None,
               cavity: Optional[str] = None) -> Operator:
    """Exact unitary oracle of a gate, identity outside its truth table.

    Two-factor kinds (both CNOTs, SWAP, and CQPG with its phase pi on
    |e,1>) need atom and cavity labels; HADAMARD_ATOM and NOT_ATOM act on
    the atom alone; SIGMA_Z takes exactly one factor and puts -1 on its
    logical |1> (|g> for an atom, one photon for a cavity).
    """
    mat, factors = ideal_block(kind, space, atom, cavity)
    sub = CompositeSpace([space.factor(name) for name in factors])
    return embed(Operator(sub, mat, unitary=True), space)


# ---------------------------------------------------------------------------
# shared physical-gate machinery


def _logical_columns(params: JCParams, cutoff: int) -> np.ndarray:
    """Dressed images of the computational labels, column per logical state."""
    n_ph = cutoff + 1
    dim = 2 * n_ph
    cols = np.zeros((dim, 4), dtype=complex)
    cols[ATOM_G * n_ph + 0, 0] = 1.0
    p0 = dressed_pair(params, 0, cutoff)
    p1 = dressed_pair(params, 1, cutoff)
    cols[:, 1] = p0.v_plus
    cols[:, 2] = p0.v_minus
    cols[:, 3] = p1.v_plus
    return cols


def _truth_table_phases(m: np.ndarray, kind: GateKind) -> np.ndarray:
    """One phase per level, each solved on its own truth-table entry of the
    logical block m; an entry of magnitude 1e-9 or less (a swap that barely
    exchanges) falls back to the diagonal."""
    th = np.zeros(4)
    for row, col in enumerate(_TRUTH_TABLE[kind]):
        entry = m[row, col] if abs(m[row, col]) > 1e-9 else m[row, row]
        th[row] = -np.angle(entry)
    return th


def _atom_phases_hadamard(m: np.ndarray) -> tuple:
    """Post- and pre-pulse atom phases for the pi/2 target.

    Row phases cannot fix both columns here (two entries per column), so
    the e level also gets a deterministic phase before the pulse; both are
    plain atom-frame phases.
    """
    chi_g = -np.angle(m[0, 0])
    chi_e = -0.5 * math.pi - np.angle(m[1, 0])   # steer 0e<-0g onto -i
    eta_e = -0.5 * math.pi - np.angle(m[0, 1]) - chi_g  # and 0g<-0e onto -i
    theta = np.array([chi_g, chi_e, chi_g, chi_e])
    eta = np.array([0.0, eta_e, 0.0, eta_e])
    return theta, eta


def _corrected_action(u: np.ndarray, logical: np.ndarray, theta: np.ndarray,
                      eta: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply exp(i theta_j) on the logical components of each output column.

    eta adds pre-pulse phases on the logical inputs: the propagator is
    right-multiplied by the extended diagonal.
    """
    overlaps = logical.conj().T @ u
    post = u + logical @ ((np.exp(1j * theta) - 1.0)[:, None] * overlaps)
    if eta is None:
        return post
    inner = post @ logical
    return post + (inner * (np.exp(1j * eta) - 1.0)[None, :]) @ logical.conj().T


def _bare_action(params: JCParams, cutoff: int, corrected: np.ndarray) -> np.ndarray:
    """Decode a dressed-frame action: the ramp map sends the computational
    labels onto the dressed columns, so the bare-basis action is W' C W."""
    w = bare_to_dressed_map(params, cutoff).matrix
    action = w.conj().T @ corrected @ w
    action.setflags(write=False)
    return action


def _check_cavity(state: StateVector, cavity: str,
                  config: PhysicalGateConfig) -> None:
    n_ph = config.fock_cutoff + 1
    if state.space.factor(cavity).dim != n_ph:
        raise QStateError(
            f"cavity dim {state.space.factor(cavity).dim} != fock_cutoff+1 = {n_ph}")


def _gate_result(state: StateVector, engine: tuple, factors: tuple,
                 ideal: tuple, **fields) -> GateResult:
    """Apply an engine's cached action to its factors; score it against the
    ideal block (matrix, factors) on the same input.

    engine is what every *_engine returns: (bare-basis action, pulses,
    duration, meta with _integration's keys and optionally "correction").
    """
    action, pulses, duration, meta = engine
    out = apply_local(state, action, factors)
    target = apply_local(state, *ideal)
    fidelity = float(abs(np.vdot(target.amplitudes, out.amplitudes)) ** 2)
    return GateResult(output=out, fidelity_vs_ideal=fidelity, pulse_log=pulses,
                      duration=duration, norm_drift=meta["norm_drift"],
                      error_estimate=meta["error_estimate"], steps=meta["steps"],
                      correction=meta.get("correction"), **fields)


def _integration(info: dict) -> dict:
    """The engine meta read from one propagate_basis info."""
    return {key: info[key] for key in ("norm_drift", "error_estimate", "steps")}


# ---------------------------------------------------------------------------
# CNOT, cavity controls atom


def _cnot_pulse(params: JCParams) -> tuple:
    r0 = float(manifold_splitting(params, 0))
    r1 = float(manifold_splitting(params, 1))
    carrier_rot = r0 + r1                       # |V-,0> <-> |V+,1| gap
    splitting = r1 - params.delta / 2.0         # distance to the 0-photon line
    tau = TAU_FACTOR / splitting
    shape = PulseSpec(omega_drive=params.omega + carrier_rot, amplitude=1.0,
                      width=tau)
    pulse = calibrate_pulse_area(shape, math.pi)
    return pulse, carrier_rot


@lru_cache(maxsize=32)
def _cnot_engine(params: JCParams, config: PhysicalGateConfig):
    cutoff = config.fock_cutoff
    pulse, carrier_rot = _cnot_pulse(params)
    static = jc_rotating(params, cutoff)
    logical = _logical_columns(params, cutoff)
    t0, t1 = pulse.window
    drive = Drive(pulse, carrier_rot,
                  None if config.rwa else 2.0 * params.omega + carrier_rot)
    u, info = propagate_basis(static, [drive], t0, t1, config.tol)
    theta = _truth_table_phases(logical.conj().T @ u @ logical,
                                GateKind.CNOT_CAVITY_TO_ATOM)
    action = _bare_action(params, cutoff, _corrected_action(u, logical, theta))
    meta = {**_integration(info),
            "correction": {"theta": tuple(float(v) for v in theta),
                           "ramp": "adiabatic detuning ramp on computational labels"}}
    return action, (pulse,), (t1 - t0), meta


def physical_cnot_cavity_to_atom(state: StateVector, params: JCParams,
                                 config: Optional[PhysicalGateConfig] = None,
                                 atom: str = "atom",
                                 cavity: str = "cavity") -> GateResult:
    """Pulsed photon-number-controlled atom flip on one node.

    A pi-area gaussian pulse resonant with the one-photon dressed doublet
    flips |1,g> <-> |1,e> while the zero-photon line sits one splitting
    away; see the module pipeline notes for encode/correct/decode.
    """
    config = config or PhysicalGateConfig()
    if params.delta <= 0:
        raise QStateError("dispersive gate needs delta > 0")
    x = params.rabi_coupling / params.delta
    if x > 0.3:
        raise QStateError(f"coupling/detuning = {x:.3g} outside dispersive regime (> 0.3)")
    _check_cavity(state, cavity, config)
    return _gate_result(state, _cnot_engine(params, config), (atom, cavity),
                        ideal_block(GateKind.CNOT_CAVITY_TO_ATOM, state.space,
                                    atom, cavity))


# ---------------------------------------------------------------------------
# two-photon SWAP


@lru_cache(maxsize=32)
def _swap_engine(p: TwoPhotonParams, config: PhysicalGateConfig):
    params = p.jc_params()
    cutoff = config.fock_cutoff
    static = jc_rotating(params, cutoff)
    pulse = PulseSpec(omega_drive=p.laser_frequency, amplitude=2.0 * p.sigma0,
                      width=p.tau)
    drives = [Drive(pulse, pulse.omega_drive)] if p.sigma0 > 0 else []
    u, info = propagate_basis(static, drives, p.t_start, p.t_end, config.tol)
    logical = _logical_columns(params, cutoff)
    m = logical.conj().T @ u @ logical
    theta = _truth_table_phases(m, GateKind.SWAP_ATOM_CAVITY)
    action = _bare_action(params, cutoff, _corrected_action(u, logical, theta))
    meta = {**_integration(info),
            "correction": {"theta": tuple(float(v) for v in theta)},
            "exchange_forward": float(abs(m[3, 0]) ** 2)}
    return action, (pulse,), (p.t_end - p.t_start), meta


def physical_swap_two_photon(state: StateVector, p: TwoPhotonParams,
                             config: Optional[PhysicalGateConfig] = None,
                             atom: str = "atom",
                             cavity: str = "cavity") -> GateResult:
    """Laser-driven two-photon exchange |g,0> <-> |e,1> on one node.

    The exchange probability is read off the exact integrated propagator;
    the perturbative estimate, |two_photon_amplitude|^2 without the
    breakdown warning, rides along for comparison.  At the source
    operating point the exchange is far from complete, and the fidelity
    reflects that honestly.
    """
    config = config or PhysicalGateConfig()
    if config.fock_cutoff < 4:
        raise QStateError("fock_cutoff must be >= 4 for the two-photon ladder")
    _check_cavity(state, cavity, config)
    engine = _swap_engine(p, config)
    return _gate_result(state, engine, (atom, cavity),
                        ideal_block(GateKind.SWAP_ATOM_CAVITY, state.space,
                                    atom, cavity),
                        exchange_probability_tdse=engine[3]["exchange_forward"],
                        exchange_probability_perturbative=abs(two_photon_amplitude(p)) ** 2)


# ---------------------------------------------------------------------------
# composite CNOT, atom controls cavity


@lru_cache(maxsize=32)
def _cnot_atom_to_cavity_engine(p: TwoPhotonParams, config: PhysicalGateConfig):
    swap_action, swap_pulses, swap_dur, swap_meta = _swap_engine(p, config)
    cnot_action, cnot_pulses, cnot_dur, cnot_meta = _cnot_engine(p.jc_params(),
                                                                 config)
    action = swap_action @ cnot_action @ swap_action
    action.setflags(write=False)
    # the swap propagator is applied twice but integrated once
    meta = {"norm_drift": max(swap_meta["norm_drift"], cnot_meta["norm_drift"]),
            "error_estimate": 2.0 * swap_meta["error_estimate"]
            + cnot_meta["error_estimate"],
            "steps": swap_meta["steps"] + cnot_meta["steps"],
            "exchange_forward": swap_meta["exchange_forward"]}
    return (action, swap_pulses + cnot_pulses + swap_pulses,
            2.0 * swap_dur + cnot_dur, meta)


def physical_cnot_atom_to_cavity(state: StateVector, p: TwoPhotonParams,
                                 config: Optional[PhysicalGateConfig] = None,
                                 atom: str = "atom",
                                 cavity: str = "cavity") -> GateResult:
    """Atom-controls-photon CNOT as swap, photon-controlled flip, swap.

    Both swaps use the two-photon exchange, so its transition probability
    bounds the whole composite.
    """
    config = config or PhysicalGateConfig()
    _check_cavity(state, cavity, config)
    engine = _cnot_atom_to_cavity_engine(p, config)
    return _gate_result(state, engine, (atom, cavity),
                        ideal_block(GateKind.CNOT_ATOM_TO_CAVITY, state.space,
                                    atom, cavity),
                        exchange_probability_tdse=engine[3]["exchange_forward"],
                        exchange_probability_perturbative=abs(two_photon_amplitude(p)) ** 2)


def averaged_step5_fidelity(p: TwoPhotonParams,
                            config: Optional[PhysicalGateConfig] = None) -> tuple:
    """Mean composite-CNOT fidelity over the node's computational labels.

    Returns (mean, per-label dict); the uniform four-label average is the
    documented reduction of "average over all the possible initial
    configurations".
    """
    config = config or PhysicalGateConfig()
    action = _cnot_atom_to_cavity_engine(p, config)[0]
    n_ph = config.fock_cutoff + 1
    rows = _comp_rows(n_ph)
    # the truth table is its own inverse: label k goes to row table[k]
    table = _TRUTH_TABLE[GateKind.CNOT_ATOM_TO_CAVITY]
    per = {}
    names = ("0g", "0e", "1g", "1e")
    for k, name in enumerate(names):
        col = action[:, rows[k]]
        per[name] = float(abs(col[rows[table[k]]]) ** 2)
    return float(np.mean(list(per.values()))), per


# ---------------------------------------------------------------------------
# Hadamard-type and NOT pulses on the atom


@lru_cache(maxsize=32)
def _bare_atom_pulse_engine(kind: GateKind, rabi: float, atom_dim: int,
                            tol: float):
    """Resonant rotating-wave pulse on a cavity-decoupled atom.

    HADAMARD_ATOM is a pi/2 pulse with post- and pre-pulse atom phases,
    NOT_ATOM a pi pulse with post-pulse phases; a third level is untouched.
    """
    hadamard = kind == GateKind.HADAMARD_ATOM
    tau = TAU_FACTOR / rabi
    shape = PulseSpec(omega_drive=0.0, amplitude=1.0, width=tau)
    pulse = calibrate_pulse_area(shape, math.pi / 2.0 if hadamard else math.pi)
    static = Operator(CompositeSpace([FactorLabel("atom", atom_dim)]),
                      np.zeros((atom_dim, atom_dim)), hermitian=True)
    t0, t1 = pulse.window
    u, info = propagate_basis(static, [Drive(pulse, pulse.omega_drive)], t0, t1, tol)
    if hadamard:
        theta, eta = _atom_phases_hadamard(u)   # (g, e) lead the 4-level pattern
        theta, eta = theta[:2], eta[:2]
    else:
        theta = -np.angle(np.array([u[ATOM_G, ATOM_E], u[ATOM_E, ATOM_G]]))
        eta = np.zeros(2)
    post = np.ones(atom_dim, dtype=complex)
    pre = np.ones(atom_dim, dtype=complex)
    post[:2], pre[:2] = np.exp(1j * theta), np.exp(1j * eta)
    action = (post[:, None] * u) * pre[None, :]
    action.setflags(write=False)
    correction = {"theta": tuple(float(v) for v in theta)}
    if hadamard:
        correction["eta"] = tuple(float(v) for v in eta)
    correction["mode"] = "decoupled"
    return action, (pulse,), (t1 - t0), {**_integration(info),
                                         "correction": correction}


@lru_cache(maxsize=32)
def _dressed_sector_pulse_engine(kind: GateKind, params: JCParams,
                                 config: PhysicalGateConfig):
    """HADAMARD_ATOM as one broadband midpoint pi/2 pulse, NOT_ATOM as two
    sector pi pulses.

    Broadband mode drives both photon sectors together in the
    far-dispersive regime; sequential mode addresses the one-photon and
    zero-photon transitions one after the other for the full atomic flip.
    """
    cutoff = config.fock_cutoff
    r0 = float(manifold_splitting(params, 0))
    r1 = float(manifold_splitting(params, 1))
    sector0 = r0 + params.delta / 2.0   # |g,0> <-> |V+,0>
    sector1 = r0 + r1                   # |V-,0> <-> |V+,1>
    static = jc_rotating(params, cutoff)
    logical = _logical_columns(params, cutoff)
    if kind == GateKind.HADAMARD_ATOM:
        carrier = 0.5 * (sector0 + sector1)
        tau = TAU_FACTOR / params.rabi_coupling
        shape = PulseSpec(omega_drive=params.omega + carrier, amplitude=1.0,
                          width=tau)
        pulse = calibrate_pulse_area(shape, math.pi / 2.0)
        drives = [Drive(pulse, carrier,
                        None if config.rwa else 2.0 * params.omega + carrier)]
        pulses = (pulse,)
        t0, t1 = pulse.window
    else:
        splitting = r1 - params.delta / 2.0
        tau = TAU_FACTOR / splitting
        half = GAUSSIAN_SUPPORT * tau
        shape1 = PulseSpec(omega_drive=params.omega + sector1, amplitude=1.0,
                           width=tau)
        shape0 = PulseSpec(omega_drive=params.omega + sector0, amplitude=1.0,
                           width=tau, center=2.0 * half)
        p1 = calibrate_pulse_area(shape1, math.pi)
        p0 = calibrate_pulse_area(shape0, math.pi)
        drives = [Drive(p, c, None if config.rwa else 2.0 * params.omega + c)
                  for p, c in ((p1, sector1), (p0, sector0))]
        pulses = (p1, p0)
        t0, t1 = -half, 3.0 * half
    u, info = propagate_basis(static, drives, t0, t1, config.tol)
    m = logical.conj().T @ u @ logical
    if kind == GateKind.HADAMARD_ATOM:
        theta, eta = _atom_phases_hadamard(m)
        correction = {"theta": tuple(float(v) for v in theta),
                      "eta": tuple(float(v) for v in eta),
                      "mode": "dressed-broadband"}
    else:
        theta, eta = _truth_table_phases(m, GateKind.NOT_ATOM), None
        correction = {"theta": tuple(float(v) for v in theta),
                      "mode": "dressed-sequential"}
    action = _bare_action(params, cutoff, _corrected_action(u, logical, theta, eta))
    return action, pulses, (t1 - t0), {**_integration(info),
                                       "correction": correction}


def _atom_pulse_gate(kind: GateKind, state: StateVector, params: JCParams,
                     config: Optional[PhysicalGateConfig], atom: str,
                     cavity: Optional[str]) -> GateResult:
    config = config or PhysicalGateConfig()
    atom_dim = state.space.factor(atom).dim
    if cavity is None or atom_dim == 3:
        engine = _bare_atom_pulse_engine(kind, params.rabi_coupling, atom_dim,
                                         config.tol)
        factors = (atom,)
    else:
        if kind == GateKind.HADAMARD_ATOM:
            x = params.rabi_coupling / params.delta
            if x > 0.01:
                raise QStateError(
                    f"coupling/detuning = {x:.3g} too large for the broadband pulse (> 0.01)")
        _check_cavity(state, cavity, config)
        engine = _dressed_sector_pulse_engine(kind, params, config)
        factors = (atom, cavity)
    return _gate_result(state, engine, factors, ideal_block(kind, state.space, atom))


def physical_hadamard_atom(state: StateVector, params: JCParams,
                           config: Optional[PhysicalGateConfig] = None,
                           atom: str = "atom",
                           cavity: Optional[str] = None) -> GateResult:
    """pi/2 pulse sending |g,j> to (|g,j> - i|e,j>)/sqrt(2), any photon j.

    With a cavity label the atom is driven through the dressed doublets in
    the far-dispersive regime (coupling/detuning <= 0.01); without one the
    atom is modeled as detuning-switched fully out of the cavity band and
    driven bare.
    """
    return _atom_pulse_gate(GateKind.HADAMARD_ATOM, state, params, config,
                            atom, cavity)


def physical_not_atom(state: StateVector, params: JCParams,
                      config: Optional[PhysicalGateConfig] = None,
                      atom: str = "atom",
                      cavity: Optional[str] = None) -> GateResult:
    """Full atomic flip |g,j> <-> |e,j| preserving the photon number.

    Decoupled mode is a single resonant pi pulse; with a cavity label the
    flip is two sequential sector-selective pi pulses (one-photon doublet
    first, zero-photon line second).
    """
    return _atom_pulse_gate(GateKind.NOT_ATOM, state, params, config,
                            atom, cavity)


# ---------------------------------------------------------------------------
# local controlled phase via the third atomic level


def three_level_hamiltonian(tp: ThreeLevelParams, fock_cutoff: int) -> Operator:
    """Rotating-frame ladder Hamiltonian: cavity resonant on e <-> i.

    |g,n> sits at delta_ge when the residual g <-> e coupling is modeled;
    in suppressed mode the g sector is fully decoupled and unshifted.
    """
    if fock_cutoff < 2:
        raise QStateError("fock_cutoff must be >= 2")
    n_ph = fock_cutoff + 1
    dim = 3 * n_ph
    h = np.zeros((dim, dim), dtype=complex)
    g = tp.rabi_coupling

    def idx(a, n):
        return a * n_ph + n

    for n in range(fock_cutoff):
        root = math.sqrt(n + 1)
        h[idx(ATOM_I, n), idx(ATOM_E, n + 1)] = g * root
        h[idx(ATOM_E, n + 1), idx(ATOM_I, n)] = g * root
    if tp.delta_ge is not None:
        gge = tp.coupling_ge if tp.coupling_ge is not None else g
        for n in range(n_ph):
            h[idx(ATOM_G, n), idx(ATOM_G, n)] = tp.delta_ge
        for n in range(fock_cutoff):
            root = math.sqrt(n + 1)
            h[idx(ATOM_E, n), idx(ATOM_G, n + 1)] = gge * root
            h[idx(ATOM_G, n + 1), idx(ATOM_E, n)] = gge * root
    space = CompositeSpace([FactorLabel("atom", 3), FactorLabel("cavity", n_ph)])
    return Operator(space, h, hermitian=True)


@lru_cache(maxsize=32)
def _cqpg_engine(tp: ThreeLevelParams, config: PhysicalGateConfig):
    n_ph = config.fock_cutoff + 1
    static = three_level_hamiltonian(tp, config.fock_cutoff)
    t_full = math.pi / tp.rabi_coupling   # full e1 -> i0 -> -e1 cycle
    u, info = propagate_basis(static, [], 0.0, t_full, config.tol)
    # rows |g,0>, |g,1>, |e,0>, |e,1>
    rows = [ATOM_G * n_ph, ATOM_G * n_ph + 1, ATOM_E * n_ph, ATOM_E * n_ph + 1]
    th = np.zeros(4)
    th[:3] = [-np.angle(u[r, r]) for r in rows[:3]]
    th[3] = th[2] + th[1] - th[0]   # forced: the -1 must appear physically
    action = u.copy()
    action[rows, :] *= np.exp(1j * th)[:, None]
    action.setflags(write=False)
    meta = {**_integration(info),
            "correction": {"theta": tuple(float(v) for v in th),
                           "mode": "resonant e-i cycle"}}
    return action, (), t_full, meta


def physical_cqpg_local(state: StateVector, tp: ThreeLevelParams,
                        config: Optional[PhysicalGateConfig] = None,
                        atom: str = "atom",
                        cavity: str = "cavity") -> GateResult:
    """Controlled phase by a full resonant cycle |e,1> -> |i,0> -> -|e,1>.

    The atom's e <-> i transition is switched into cavity resonance for
    t = pi / coupling; |e,1> returns with a minus sign while |g,0>, |g,1>
    and |e,0> have nothing resonant to exchange with.  The phase fix is
    solved on the g and e0 rows only -- the e1 sign is never adjusted.
    """
    config = config or PhysicalGateConfig()
    if state.space.factor(atom).dim != 3:
        raise QStateError(f"factor {atom!r} must be a three-level atom")
    _check_cavity(state, cavity, config)
    return _gate_result(state, _cqpg_engine(tp, config), (atom, cavity),
                        ideal_block(GateKind.CQPG_LOCAL, state.space, atom, cavity))
