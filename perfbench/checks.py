"""Correctness checks on the program's outputs.

Every check compares against a computation made here, apart from the
program (the benchmark's own CNOT and controlled-phase matrices, its own
closed-form curve, its own locality map), or against a property the method
must have.  None compares against a stored copy of earlier output.

Each check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import math

import numpy as np

# Logical photon register of the two cavities: index 2 * n_A + n_B with one
# photon = logical 1.  The nonlocal CNOT has A as control and B as target.
CNOT_AB = np.array([[1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 0, 1],
                    [0, 0, 1, 0]], dtype=complex)
# The protocol's controlled phase puts -1 on the vacuum-vacuum component
# (logical |0>_A|0>_B), a CZ up to local NOTs.
CPHASE_AB = np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex)
TARGETS = {"cnot": CNOT_AB, "cqpg": CPHASE_AB}

# Factor ownership of the two nodes; the pair source owns only the ports.
OWNER = {"A": "Alice", "alpha": "Alice", "p1": "Alice",
         "B": "Bob", "beta": "Bob", "p2": "Bob"}
SOURCE_PORTS = {"p1", "p2"}
ATOM_LEVEL = {"g": 0, "e": 1, "i": 2}


def fidelity_curve(x: float) -> float:
    """The paper's dispersive CNOT fidelity curve, written out here."""
    main = 0.25 * (1.0 + math.sin(0.5 * math.pi * (1.0 - 1.5 * x * x))) ** 2
    return main + 0.003 * x * x


def product_register(a, b, c, d) -> np.ndarray:
    """(a|1> + b|0>)_A (c|1> + d|0>)_B on the logical index 2 n_A + n_B."""
    return np.array([b * d, b * c, a * d, a * c], dtype=complex)


def register_target(gate: str, register: np.ndarray) -> np.ndarray:
    """Gate applied to a logical register, an ancilla axis optional.

    register has shape (4,) or (4, k) with the ancilla on the second axis.
    """
    return TARGETS[gate] @ register


def equal_up_to_phase(got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    got = np.asarray(got, dtype=complex).reshape(-1)
    want = np.asarray(want, dtype=complex).reshape(-1)
    overlap = np.vdot(want, got)
    if abs(abs(overlap) - 1.0) > tol:
        return False
    phase = overlap / abs(overlap)
    return bool(np.max(np.abs(got - phase * want)) <= tol)


def branch_register(final_state, alpha: str, beta: str) -> tuple:
    """Cut the final state at the measured atom levels.

    Returns (register, outside): register holds the amplitudes with both
    cavities in photon 0 or 1 as an array (4,) or (4, ancilla dim), outside
    the norm left on every other component of the state.
    """
    space = final_state.space
    names = list(space.names)
    axes = [names.index(n) for n in ("A", "B", "alpha", "beta")]
    rest = [k for k in range(len(names)) if k not in axes]
    psi = np.transpose(final_state.amplitudes.reshape(space.dims), axes + rest)
    at = (slice(0, 2), slice(0, 2), ATOM_LEVEL[alpha], ATOM_LEVEL[beta])
    register = psi[at].reshape(4, -1)
    rest = psi.copy()
    rest[at] = 0.0
    outside = float(np.linalg.norm(rest))
    return (register[:, 0] if register.shape[1] == 1 else register), outside


def check_register(gate: str, label: str, final_state, alpha: str, beta: str,
                   register_in: np.ndarray, tol: float = 1e-10) -> list:
    """An ideal branch must end in the gate's image of the input register."""
    got, outside = branch_register(final_state, alpha, beta)
    if outside > tol:
        return [f"{gate} branch {label}: {outside:.3g} of the norm outside the "
                f"register at alpha={alpha}, beta={beta}"]
    want = register_target(gate, register_in)
    if not equal_up_to_phase(got, want, tol):
        return [f"{gate} branch {label}: final register differs from the "
                f"target beyond {tol:g} up to global phase"]
    return []


def check_protocol_trace(gate: str, branches, records, tol: float = 1e-10) -> list:
    """Invariants every protocol run must keep, at any level.

    branches: objects with .label, .beta, .probability, .bits and
    .fidelity_vs_ideal; records: objects with .node and .support.
    """
    errors = []
    total = sum(br.probability for br in branches)
    if abs(total - 1.0) > tol:
        errors.append(f"{gate}: branch probabilities sum to {total!r}")
    for br in branches:
        if br.beta != "i" and len(br.bits) != 2:
            errors.append(f"{gate} branch {br.label}: {len(br.bits)} classical bits")
        if not 0.0 <= br.fidelity_vs_ideal <= 1.0 + 1e-12:
            errors.append(f"{gate} branch {br.label}: fidelity "
                          f"{br.fidelity_vs_ideal!r} outside [0, 1]")
    for rec in records:
        support = set(rec.support)
        if rec.node == "Source":
            bad = support - SOURCE_PORTS
        else:
            bad = {f for f in support if f in OWNER and OWNER[f] != rec.node}
        if bad:
            errors.append(f"{gate}: record at {rec.node} touches {sorted(bad)}")
    return errors


def check_same_branches(gate: str, first, second, tol: float = 1e-12) -> list:
    """Two runs of one input must agree whatever the engine caches held."""
    if [b.label for b in first] != [b.label for b in second]:
        return [f"{gate}: branch labels differ between cold and warm runs"]
    errors = []
    for b1, b2 in zip(first, second):
        if (abs(b1.probability - b2.probability) > tol
                or abs(b1.fidelity_vs_ideal - b2.fidelity_vs_ideal) > tol
                or np.max(np.abs(b1.final_state.amplitudes
                                 - b2.final_state.amplitudes)) > tol):
            errors.append(f"{gate} branch {b1.label}: cold and warm runs differ")
    return errors


def check_sweep_point(x: float, fidelity: float, norm_drift: float) -> list:
    """A pulse-level CNOT must follow the paper's curve and keep its norm."""
    errors = []
    if abs(fidelity - fidelity_curve(x)) >= 0.01:
        errors.append(f"x={x}: fidelity {fidelity!r} is 0.01 or more off the "
                      f"curve value {fidelity_curve(x)!r}")
    if not norm_drift < 1e-9:
        errors.append(f"x={x}: norm drift {norm_drift!r} not below 1e-9")
    return errors


def check_drives_agree(x: float, f_rwa: float, f_full: float) -> list:
    """The counter-rotating term is inert at these x: both drives agree."""
    if abs(f_rwa - f_full) >= 1e-6:
        return [f"x={x}: rotating-wave {f_rwa!r} and full drive {f_full!r} "
                f"differ by 1e-6 or more"]
    return []


def check_sigma0_scaling(reading: str, pert_full: float, pert_scaled: float,
                         scale: float) -> list:
    """Second-order theory: the probability scales as sigma0^4."""
    if abs(pert_scaled / (pert_full * scale ** 4) - 1.0) > 1e-9:
        return [f"{reading}: perturbative P at {scale!r} sigma0 is "
                f"{pert_scaled / pert_full!r} of P at sigma0, not {scale ** 4!r}"]
    return []


def check_two_photon(reading: str, pert_full: float, pert_tenth: float,
                     tdse_tenth: float) -> list:
    """P scales as sigma0^4, and the oracle agrees with it when weak."""
    errors = check_sigma0_scaling(reading, pert_full, pert_tenth, 0.1)
    if abs(tdse_tenth - pert_tenth) > 0.01 * tdse_tenth:
        errors.append(f"{reading}: at sigma0/10 the oracle {tdse_tenth!r} and "
                      f"the perturbative value {pert_tenth!r} differ by 1% or more")
    return errors
