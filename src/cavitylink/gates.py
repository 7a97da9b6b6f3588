"""Local gates on one atom-cavity node: ideal unitaries and pulsed physics.

Each pulsed gate is one table entry, a _PulsedGate: node Hamiltonian,
pulses.Drive windows and span, whether the propagator is dressed, phase
rule, and the labels and readouts of its record.  One engine, _action,
runs an entry once per (gate, parameters) and keeps its result read-only;
the atom-controls-cavity CNOT is an entry of three references (swap,
CNOT, swap), each run once.  The engine's steps:

1. drive: propagate_basis integrates the node under the drives to an
   error estimate below tol, carried by the GateResult with its step
   count, and integrates each distinct window once wherever it recurs.
   On a cavity node a drive's carrier is the offset from the cavity
   frequency; its counter-rotating term at 2 omega plus that offset is
   kept unless the config sets rwa;
2. encode: the adiabatic detuning-ramp map W carries the computational
   labels {|g,0>, |e,0>, |g,1>, |e,1>} onto the dressed states |g,0>,
   |V+,0>, |V-,0>, |V+,1>, so W' u W is the propagator on the bare labels
   (a cavity-decoupled atom and the three-level ladder are already bare);
3. fix phases: the entry's rule solves residual deterministic phases on
   the computational rows (and, for a pi/2 pulse, columns) from that
   propagator, restricted to locally implementable phases (atom frame
   phases, photon-conditioned dispersive phases); _phase_fixed applies
   them.  Magnitudes are never touched, and the controlled-phase gate's
   defining sign is never adjusted.

Every gate call applies that one small matrix to its node factors with
qstate.apply_local, whatever the rest of the register holds.  Fidelity is
always reported against the ideal oracle (the same small block, applied
the same way) on the caller's state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial, reduce
from typing import Callable, Optional

import numpy as np

from .qstate import (ATOM_E, ATOM_G, ATOM_I, CompositeSpace, FactorLabel,
                     Operator, QStateError, StateVector, apply_local,
                     check_finite, check_tol, embed)
from .jcmodel import (JCParams, bare_to_dressed_map, check_fock_cutoff,
                      jc_rotating, manifold_splitting)
from .pulses import (GAUSSIAN_SUPPORT, Drive, PulseSpec, calibrate_pulse_area,
                     propagate_basis)
from .perturb import TwoPhotonParams


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
        check_fock_cutoff(self.fock_cutoff)
        check_tol(self.tol)


@dataclass(frozen=True)
class ThreeLevelParams:
    """Ladder atom {g, e, i} with the cavity resonant on e <-> i.

    delta_ge None models the fully suppressed g <-> e cavity coupling (the
    transition is far out of band); a finite value turns that coupling on
    at the given detuning, with the e-i coupling's strength.
    """

    rabi_coupling: float
    delta_ge: Optional[float] = None

    def __post_init__(self) -> None:
        check_finite(self, ("rabi_coupling",), ("delta_ge",))
        if self.rabi_coupling <= 0:
            raise QStateError("rabi_coupling must be > 0")
        if self.delta_ge is not None and self.delta_ge == 0:
            raise QStateError("delta_ge = 0 would make g<->e resonant; use None to suppress")


def checked_fidelity(f: float) -> float:
    """A computed fidelity clamped to [0, 1]; one outside [-1e-12, 1 + 1e-9]
    is refused as a numerical fault."""
    if not -1e-12 <= f <= 1.0 + 1e-9:
        raise QStateError(f"fidelity {f} outside [0, 1]")
    return float(min(max(f, 0.0), 1.0))


@dataclass(frozen=True)
class GateResult:
    """Outcome of one physical gate application."""

    output: StateVector
    fidelity_vs_ideal: float
    pulse_log: tuple
    duration: float
    # the ideal block's output on the same input, which output is scored against
    target: StateVector
    norm_drift: float
    # the phase-fix record; None for a composite
    correction: Optional[dict]
    # the swap's |g,0> -> |V+,1> probability; None for a gate without the swap
    exchange_probability_tdse: Optional[float]
    # step-doubling estimate of max |U - U_exact| over the propagators the
    # action is built from, and their Magnus steps (0 for exact evolution)
    error_estimate: float
    steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "fidelity_vs_ideal",
                           checked_fidelity(self.fidelity_vs_ideal))


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


def atom_block(dim: int, block: np.ndarray) -> np.ndarray:
    """A (g, e) block on an atom of dim 2 or 3, identity on the i level."""
    mat = np.eye(dim, dtype=complex)
    mat[:2, :2] = block
    return mat


@lru_cache(maxsize=None)
def _ideal_pair_matrix(kind: GateKind, atom_dim: int, n_ph: int) -> np.ndarray:
    """Identity outside the computational labels; on them, the truth table
    of a CNOT or the SWAP, or the controlled phase's -1 on |e,1>.  Shared
    between calls, so read-only."""
    u = np.eye(atom_dim * n_ph, dtype=complex)
    rows = _comp_rows(n_ph)
    if kind == GateKind.CQPG_LOCAL:
        u[rows[3], rows[3]] = np.exp(1j * math.pi)
    else:
        u[rows] = u[[rows[label] for label in _TRUTH_TABLE[kind]]]
    u.setflags(write=False)
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
        return atom_block(a_dim, block), (atom,)

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
# pulsed node gates as data, and the one engine that runs them


def _truth_table_phases(m: np.ndarray, kind: GateKind) -> tuple:
    """(theta, None): one phase per row of the logical block m (a bare
    atom's 2x2 block reads the table's first two rows), each solved on its
    own truth-table entry; an entry of magnitude 1e-9 or less (a swap that
    barely exchanges) falls back to the diagonal."""
    th = np.zeros(len(m))
    for row, col in enumerate(_TRUTH_TABLE[kind][:len(m)]):
        entry = m[row, col] if abs(m[row, col]) > 1e-9 else m[row, row]
        th[row] = -np.angle(entry)
    return th, None


def _atom_phases(m: np.ndarray, kind: GateKind) -> tuple:
    """(post, pre) atom phases on the logical block m, pre None for the NOT.

    For the pi/2 target, row phases cannot fix both columns (two entries
    per column), so the e level also gets a deterministic phase before the
    pulse; both are plain atom-frame phases, repeated per photon sector.
    """
    if kind == GateKind.NOT_ATOM:
        return _truth_table_phases(m, kind)
    chi_g = -np.angle(m[0, 0])
    chi_e = -0.5 * math.pi - np.angle(m[1, 0])   # steer 0e<-0g onto -i
    eta_e = -0.5 * math.pi - np.angle(m[0, 1]) - chi_g  # and 0g<-0e onto -i
    sectors = len(m) // 2
    return np.tile([chi_g, chi_e], sectors), np.tile([0.0, eta_e], sectors)


def _cqpg_phases(m: np.ndarray) -> tuple:
    """(theta, None) on the rows |g,0>, |g,1>, |e,0>, |e,1>: the first three
    solved on their diagonal, the e1 phase forced by them, so the
    controlled phase's -1 must appear physically."""
    th = np.zeros(4)
    th[:3] = [-np.angle(m[j, j]) for j in range(3)]
    th[3] = th[2] + th[1] - th[0]
    return th, None


def _phase_fixed(a: np.ndarray, rows: list, theta: np.ndarray,
                 eta: Optional[np.ndarray] = None, **labels) -> tuple:
    """The one phase fix of every table entry, on a bare-label propagator a.

    Row rows[j] takes exp(i theta_j) and, when eta is given, column rows[j]
    takes exp(i eta_j) before the pulse; every other entry is untouched.
    Returns the read-only action and its correction record: theta, eta if
    given, then labels in order.
    """
    post = np.ones(len(a), dtype=complex)
    post[rows] = np.exp(1j * theta)
    action = post[:, None] * a
    correction = {"theta": tuple(float(v) for v in theta)}
    if eta is not None:
        pre = np.ones(len(a), dtype=complex)
        pre[rows] = np.exp(1j * eta)
        action = action * pre[None, :]
        correction["eta"] = tuple(float(v) for v in eta)
    action.setflags(write=False)
    return action, {**correction, **labels}


@dataclass(frozen=True)
class _PulsedGate:
    """One pulsed node gate as data, which _action runs: static under the
    drives over span at tol; ramp, the node's JCParams when the propagator
    is dressed and goes through the ramp map W, else None; the phase rule
    on the logical block of rows (a list) and the labels of its correction
    record; readouts, meta read as |block[row, col]|^2; the pulse log."""

    static: Operator
    drives: tuple
    span: tuple
    tol: float
    pulses: tuple
    ramp: Optional[JCParams]
    rows: list
    phases: Callable
    labels: dict
    readouts: dict


_INTEGRATION = ("norm_drift", "error_estimate", "steps")


@lru_cache(maxsize=64)
def _action(gate: Callable, *args) -> tuple:
    """The one engine: the table entry gate(*args), run once and kept.

    Returns (read-only action on the bare labels, pulse log, duration,
    meta), meta holding _INTEGRATION's keys, the correction record and the
    entry's readouts.  A _PulsedGate runs propagate_basis, the ramp map,
    its phase rule and _phase_fixed; a tuple entry is a composite of
    (gate, *args) references in time order, whose parts each run once
    however often they recur.
    """
    entry = gate(*args)
    if isinstance(entry, tuple):
        parts = [_action(*ref) for ref in entry]
        metas = [part[3] for part in parts]
        action = reduce(np.matmul, [part[0] for part in reversed(parts)])
        action.setflags(write=False)
        meta = {"norm_drift": max(m["norm_drift"] for m in metas),
                "error_estimate": math.fsum(m["error_estimate"] for m in metas),
                # a recurring part is applied again but integrated once
                "steps": sum(m["steps"] for m in dict(zip(entry, metas)).values()),
                **{key: m[key] for m in metas for key in m
                   if key not in _INTEGRATION and key != "correction"}}
        return (action, sum((part[1] for part in parts), ()),
                math.fsum(part[2] for part in parts), meta)
    u, info = propagate_basis(entry.static, entry.drives, *entry.span, entry.tol)
    if entry.ramp is not None:
        # W sends the labels onto the dressed columns, so W' u W acts on them
        w = bare_to_dressed_map(entry.ramp, entry.static.space.dims[1] - 1).matrix
        u = w.conj().T @ u @ w
    m = u[np.ix_(entry.rows, entry.rows)]
    action, correction = _phase_fixed(u, entry.rows, *entry.phases(m),
                                      **entry.labels)
    meta = {**{key: info[key] for key in _INTEGRATION}, "correction": correction,
            **{key: float(abs(m[r, c]) ** 2) for key, (r, c) in entry.readouts.items()}}
    return action, entry.pulses, entry.span[1] - entry.span[0], meta


def _check_cavity(state: StateVector, cavity: str,
                  config: PhysicalGateConfig) -> None:
    n_ph = config.fock_cutoff + 1
    if state.space.factor(cavity).dim != n_ph:
        raise QStateError(
            f"cavity dim {state.space.factor(cavity).dim} != fock_cutoff+1 = {n_ph}")


def _gate_result(state: StateVector, engine: tuple, factors: tuple,
                 kind: GateKind) -> GateResult:
    """Apply the cached action of an _action result to its factors; score
    it against the ideal block of kind on the same input."""
    action, pulses, duration, meta = engine
    out = apply_local(state, action, factors)
    target = apply_local(state, *ideal_block(kind, state.space, *factors))
    fidelity = float(abs(np.vdot(target.amplitudes, out.amplitudes)) ** 2)
    return GateResult(output=out, fidelity_vs_ideal=fidelity, pulse_log=pulses,
                      duration=duration, target=target,
                      norm_drift=meta["norm_drift"],
                      error_estimate=meta["error_estimate"], steps=meta["steps"],
                      correction=meta.get("correction"),
                      exchange_probability_tdse=meta.get("exchange_forward"))


def _cavity_drive(params: JCParams, config: PhysicalGateConfig, offset: float,
                  width: float, center: float, area: float) -> Drive:
    """A gaussian at lab carrier omega + offset calibrated to area: in the
    cavity frame, carrier offset and, unless config.rwa, counter
    2 omega + offset."""
    pulse = calibrate_pulse_area(PulseSpec(omega_drive=params.omega + offset,
                                           amplitude=1.0, width=width,
                                           center=center), area)
    return Drive(pulse, offset, None if config.rwa else 2.0 * params.omega + offset)


# ---------------------------------------------------------------------------
# CNOT, cavity controls atom


def _cnot_gate(params: JCParams, config: PhysicalGateConfig) -> _PulsedGate:
    r0 = float(manifold_splitting(params, 0))
    r1 = float(manifold_splitting(params, 1))
    carrier = r0 + r1                           # |V-,0> <-> |V+,1| gap
    splitting = r1 - params.delta / 2.0         # distance to the 0-photon line
    drive = _cavity_drive(params, config, carrier, TAU_FACTOR / splitting, 0.0,
                          math.pi)
    return _PulsedGate(
        static=jc_rotating(params, config.fock_cutoff), drives=(drive,),
        span=drive.pulse.window, tol=config.tol, pulses=(drive.pulse,), ramp=params,
        rows=_comp_rows(config.fock_cutoff + 1),
        phases=partial(_truth_table_phases, kind=GateKind.CNOT_CAVITY_TO_ATOM),
        labels={"ramp": "adiabatic detuning ramp on computational labels"},
        readouts={})


def physical_cnot_cavity_to_atom(state: StateVector, params: JCParams,
                                 config: Optional[PhysicalGateConfig] = None,
                                 atom: str = "atom",
                                 cavity: str = "cavity") -> GateResult:
    """Pulsed photon-number-controlled atom flip on one node.

    A pi-area gaussian pulse resonant with the one-photon dressed doublet
    flips |1,g> <-> |1,e> while the zero-photon line sits one splitting
    away; see the module pipeline notes for the encoding and phase fix.
    """
    config = config or PhysicalGateConfig()
    if params.delta <= 0:
        raise QStateError("dispersive gate needs delta > 0")
    x = params.rabi_coupling / params.delta
    if x > 0.3:
        raise QStateError(f"coupling/detuning = {x:.3g} outside dispersive regime (> 0.3)")
    _check_cavity(state, cavity, config)
    return _gate_result(state, _action(_cnot_gate, params, config), (atom, cavity),
                        GateKind.CNOT_CAVITY_TO_ATOM)


# ---------------------------------------------------------------------------
# two-photon SWAP, and the composite CNOT (atom controls cavity) built on it


def _swap_gate(p: TwoPhotonParams, config: PhysicalGateConfig) -> _PulsedGate:
    params = p.jc_params()
    cutoff = config.fock_cutoff
    if cutoff < 4:
        raise QStateError("fock_cutoff must be >= 4 for the two-photon ladder")
    pulse = p.pulse
    return _PulsedGate(
        static=jc_rotating(params, cutoff),
        drives=(Drive(pulse, pulse.omega_drive),) if p.sigma0 > 0 else (),
        span=pulse.window, tol=config.tol, pulses=(pulse,), ramp=params,
        rows=_comp_rows(cutoff + 1),
        phases=partial(_truth_table_phases, kind=GateKind.SWAP_ATOM_CAVITY),
        labels={},
        # the population |g,0> hands to |e,1>
        readouts={"exchange_forward": (3, 0)})


def physical_swap_two_photon(state: StateVector, p: TwoPhotonParams,
                             config: Optional[PhysicalGateConfig] = None,
                             atom: str = "atom",
                             cavity: str = "cavity") -> GateResult:
    """Laser-driven two-photon exchange |g,0> <-> |e,1> on one node.

    The exchange probability is read off the exact integrated propagator.
    At the source operating point the exchange is far from complete, and
    the fidelity reflects that honestly.
    """
    config = config or PhysicalGateConfig()
    _check_cavity(state, cavity, config)
    return _gate_result(state, _action(_swap_gate, p, config), (atom, cavity),
                        GateKind.SWAP_ATOM_CAVITY)


def _cnot_atom_to_cavity_gate(p: TwoPhotonParams, config: PhysicalGateConfig) -> tuple:
    swap = (_swap_gate, p, config)
    return swap, (_cnot_gate, p.jc_params(), config), swap


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
    return _gate_result(state, _action(_cnot_atom_to_cavity_gate, p, config),
                        (atom, cavity), GateKind.CNOT_ATOM_TO_CAVITY)


def averaged_step5_fidelity(p: TwoPhotonParams,
                            config: Optional[PhysicalGateConfig] = None) -> tuple:
    """Mean composite-CNOT fidelity over the node's computational labels.

    Returns (mean, per-label dict); the uniform four-label average is the
    documented reduction of "average over all the possible initial
    configurations".
    """
    config = config or PhysicalGateConfig()
    action = _action(_cnot_atom_to_cavity_gate, p, config)[0]
    rows = _comp_rows(config.fock_cutoff + 1)
    # the truth table is its own inverse: label k goes to row table[k]
    table = _TRUTH_TABLE[GateKind.CNOT_ATOM_TO_CAVITY]
    per = {name: float(abs(action[rows[table[k]], rows[k]]) ** 2)
           for k, name in enumerate(("0g", "0e", "1g", "1e"))}
    return float(np.mean(list(per.values()))), per


# ---------------------------------------------------------------------------
# Hadamard-type and NOT pulses on the atom


def _bare_atom_gate(kind: GateKind, rabi: float, atom_dim: int,
                    tol: float) -> _PulsedGate:
    """Resonant rotating-wave pulse on a cavity-decoupled atom.

    HADAMARD_ATOM is a pi/2 pulse with post- and pre-pulse atom phases,
    NOT_ATOM a pi pulse with post-pulse phases; a third level is untouched.
    """
    shape = PulseSpec(omega_drive=0.0, amplitude=1.0, width=TAU_FACTOR / rabi)
    pulse = calibrate_pulse_area(
        shape, math.pi / 2.0 if kind == GateKind.HADAMARD_ATOM else math.pi)
    static = Operator(CompositeSpace([FactorLabel("atom", atom_dim)]),
                      np.zeros((atom_dim, atom_dim)), hermitian=True)
    return _PulsedGate(
        static=static, drives=(Drive(pulse, pulse.omega_drive),),
        span=pulse.window, tol=tol, pulses=(pulse,), ramp=None,
        rows=[ATOM_G, ATOM_E], phases=partial(_atom_phases, kind=kind),
        labels={"mode": "decoupled"}, readouts={})


def _dressed_atom_gate(kind: GateKind, params: JCParams,
                       config: PhysicalGateConfig) -> _PulsedGate:
    """HADAMARD_ATOM as one broadband midpoint pi/2 pulse, NOT_ATOM as two
    sector pi pulses.

    Broadband mode drives both photon sectors together in the
    far-dispersive regime; sequential mode addresses the one-photon and
    zero-photon transitions one after the other for the full atomic flip.
    """
    r0 = float(manifold_splitting(params, 0))
    r1 = float(manifold_splitting(params, 1))
    sector0 = r0 + params.delta / 2.0   # |g,0> <-> |V+,0>
    sector1 = r0 + r1                   # |V-,0> <-> |V+,1>
    if kind == GateKind.HADAMARD_ATOM:
        tau = TAU_FACTOR / params.rabi_coupling
        carriers, centers, area = (0.5 * (sector0 + sector1),), (0.0,), math.pi / 2.0
        mode = "dressed-broadband"
    else:
        tau = TAU_FACTOR / (r1 - params.delta / 2.0)
        # the second window starts where the first ends
        carriers, centers = (sector1, sector0), (0.0, 2.0 * (GAUSSIAN_SUPPORT * tau))
        area, mode = math.pi, "dressed-sequential"
    drives = tuple(_cavity_drive(params, config, c, tau, t, area)
                   for c, t in zip(carriers, centers))
    pulses = tuple(d.pulse for d in drives)
    return _PulsedGate(
        static=jc_rotating(params, config.fock_cutoff), drives=drives,
        span=(pulses[0].window[0], pulses[-1].window[1]), tol=config.tol,
        pulses=pulses, ramp=params,
        rows=_comp_rows(config.fock_cutoff + 1), phases=partial(_atom_phases, kind=kind),
        labels={"mode": mode}, readouts={})


def _atom_pulse_gate(kind: GateKind, state: StateVector, params: JCParams,
                     config: Optional[PhysicalGateConfig], atom: str,
                     cavity: Optional[str]) -> GateResult:
    config = config or PhysicalGateConfig()
    atom_dim = state.space.factor(atom).dim
    if cavity is None or atom_dim == 3:
        engine = _action(_bare_atom_gate, kind, params.rabi_coupling, atom_dim,
                         config.tol)
        factors = (atom,)
    else:
        if kind == GateKind.HADAMARD_ATOM:
            x = params.rabi_coupling / params.delta
            if x > 0.01:
                raise QStateError(
                    f"coupling/detuning = {x:.3g} too large for the broadband pulse (> 0.01)")
        _check_cavity(state, cavity, config)
        engine = _action(_dressed_atom_gate, kind, params, config)
        factors = (atom, cavity)
    return _gate_result(state, engine, factors, kind)


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
    check_fock_cutoff(fock_cutoff)
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
        for n in range(n_ph):
            h[idx(ATOM_G, n), idx(ATOM_G, n)] = tp.delta_ge
        for n in range(fock_cutoff):
            root = math.sqrt(n + 1)
            h[idx(ATOM_E, n), idx(ATOM_G, n + 1)] = g * root
            h[idx(ATOM_G, n + 1), idx(ATOM_E, n)] = g * root
    space = CompositeSpace([FactorLabel("atom", 3), FactorLabel("cavity", n_ph)])
    return Operator(space, h, hermitian=True)


def _cqpg_gate(tp: ThreeLevelParams, config: PhysicalGateConfig) -> _PulsedGate:
    n_ph = config.fock_cutoff + 1
    return _PulsedGate(
        static=three_level_hamiltonian(tp, config.fock_cutoff), drives=(),
        # the full e1 -> i0 -> -e1 cycle
        span=(0.0, math.pi / tp.rabi_coupling), tol=config.tol, pulses=(),
        ramp=None,
        rows=[ATOM_G * n_ph, ATOM_G * n_ph + 1, ATOM_E * n_ph, ATOM_E * n_ph + 1],
        phases=_cqpg_phases, labels={"mode": "resonant e-i cycle"}, readouts={})


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
    return _gate_result(state, _action(_cqpg_gate, tp, config), (atom, cavity),
                        GateKind.CQPG_LOCAL)
