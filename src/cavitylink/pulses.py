"""Classical drive pulses on an atom and time-dependent Schrodinger evolution.

A drive is a sum of terms z_k(t) M_k + conj(z_k(t)) M_k', which keeps the
generator Hermitian by construction and lets the integrator move to the
interaction picture of the static Hamiltonian: with H0 = Q E Q' diagonalized
once, the picture change cancels all fast static phases and the remaining
right-hand side is just the (slow) drive, so norm drift stays near machine
precision even over long pulses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import DOP853

from .qstate import (ATOM_E, ATOM_G, CompositeSpace, FactorLabel, Operator,
                     QStateError, StateVector, embed)

PULSE_SHAPES = ("rectangular", "gaussian")

# Gaussian envelopes are truncated at +/- support * width; erf(3) makes the
# clipped area correction at the default support.
DEFAULT_GAUSSIAN_SUPPORT = 3.0
ERF_SUPPORT_3 = math.erf(3.0)


class StiffnessError(RuntimeError):
    """The adaptive integrator failed to advance (step-size underflow)."""


@dataclass(frozen=True)
class PulseSpec:
    """One classical pulse: carrier plus named envelope.

    amplitude is the peak Rabi rate of the envelope (rad/s); width is the
    rectangular duration or the gaussian 1/e half-width tau (s); the carrier
    is cos(omega_drive * t + phase).  Gaussian envelopes are identically zero
    outside center +/- support * width.
    """

    omega_drive: float
    shape: str
    amplitude: float
    width: float
    center: float = 0.0
    phase: float = 0.0
    support: float = DEFAULT_GAUSSIAN_SUPPORT

    def __post_init__(self) -> None:
        if self.shape not in PULSE_SHAPES:
            raise QStateError(f"unknown pulse shape {self.shape!r}; use one of {PULSE_SHAPES}")
        if self.amplitude < 0:
            raise QStateError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.width <= 0:
            raise QStateError(f"width must be > 0, got {self.width}")
        if self.support <= 0:
            raise QStateError(f"support must be > 0, got {self.support}")
        if not math.isfinite(self.omega_drive):
            raise QStateError("omega_drive must be finite")

    @property
    def window(self) -> tuple:
        """(start, end) outside which the envelope is exactly zero."""
        half = self.width / 2.0 if self.shape == "rectangular" else self.support * self.width
        return (self.center - half, self.center + half)

    def envelope(self, t):
        """Envelope p(t) in rad/s, without the carrier.

        A float t gives a float (the integrators' per-step path); anything
        else is evaluated elementwise as an array.
        """
        lo, hi = self.window
        if isinstance(t, float):
            if not lo <= t <= hi:
                return 0.0
            if self.shape == "rectangular":
                return self.amplitude
            arg = (t - self.center) / self.width
            return self.amplitude * math.exp(-arg * arg)
        t = np.asarray(t, dtype=float)
        inside = (t >= lo) & (t <= hi)
        if self.shape == "rectangular":
            return np.where(inside, self.amplitude, 0.0)
        arg = (t - self.center) / self.width
        return np.where(inside, self.amplitude * np.exp(-arg * arg), 0.0)

    def envelope_area(self) -> float:
        """Integral of the envelope over its window, analytic."""
        if self.shape == "rectangular":
            return self.amplitude * self.width
        return self.amplitude * self.width * math.sqrt(math.pi) * math.erf(self.support)


def calibrate_pulse_area(envelope: PulseSpec, target_area: float,
                         max_amplitude: Optional[float] = None) -> PulseSpec:
    """Rescale the envelope amplitude so its area matches target_area.

    Rectangular pulses solve exactly; gaussian pulses divide by the unit
    envelope's quadrature over the finite window, e.g. a pi area needs
    amplitude pi / (tau sqrt(pi) erf(support)).
    """
    if target_area <= 0:
        raise QStateError(f"target_area must be > 0, got {target_area}")
    unit = PulseSpec(omega_drive=envelope.omega_drive, shape=envelope.shape,
                     amplitude=1.0, width=envelope.width, center=envelope.center,
                     phase=envelope.phase, support=envelope.support)
    amp = target_area / unit.envelope_area()
    if max_amplitude is not None and amp > max_amplitude:
        raise QStateError(
            f"area {target_area} unreachable: needs amplitude {amp} > bound {max_amplitude}")
    return PulseSpec(omega_drive=envelope.omega_drive, shape=envelope.shape,
                     amplitude=amp, width=envelope.width, center=envelope.center,
                     phase=envelope.phase, support=envelope.support)


class DriveHamiltonian:
    """Time-dependent Hermitian generator H(t) = sum_k z_k(t) M_k + h.c.

    terms is a list of (matrix, scalar function); matrices live on `space`
    and need not be Hermitian themselves (the conjugate term is implied).
    """

    def __init__(self, space: CompositeSpace, terms: Sequence[tuple]):
        self.space = space
        self.terms = [(np.asarray(m, dtype=complex), fn) for m, fn in terms]
        for m, _ in self.terms:
            if m.shape != (space.dim, space.dim):
                raise QStateError(f"drive term shape {m.shape} != space dim {space.dim}")


def drive_hamiltonian_bare(pulse: PulseSpec, atom_dim: int = 2,
                           coupling: Optional[float] = None, rwa: bool = False,
                           atom_name: str = "atom") -> DriveHamiltonian:
    """Laser drive on the bare g<->e transition of a 2- or 3-level atom.

    Full form: <e|H(t)|g> = p(t) cos(omega_drive t + phase), with p(t) the
    envelope (peak `coupling`, defaulting to the pulse amplitude).  With
    rwa=True the counter-rotating half is dropped and the element becomes
    (p(t)/2) exp(-i(omega_drive t + phase)).  Any third level is untouched.
    """
    if atom_dim not in (2, 3):
        raise QStateError(f"atom_dim must be 2 or 3, got {atom_dim}")
    if coupling is not None and coupling <= 0:
        raise QStateError(f"coupling must be > 0, got {coupling}")
    scale = pulse.amplitude if coupling is None else coupling
    raise_op = np.zeros((atom_dim, atom_dim), dtype=complex)
    raise_op[ATOM_E, ATOM_G] = 1.0
    unit = PulseSpec(omega_drive=pulse.omega_drive, shape=pulse.shape, amplitude=1.0,
                     width=pulse.width, center=pulse.center, phase=pulse.phase,
                     support=pulse.support)
    w, ph = pulse.omega_drive, pulse.phase
    if rwa:
        def z(t, _env=unit.envelope):
            return 0.5 * scale * float(_env(t)) * np.exp(-1j * (w * t + ph))
    else:
        # real scalar on s+ plus its conjugate on s- rebuilds p(t) cos(...)
        def z(t, _env=unit.envelope):
            return scale * float(_env(t)) * math.cos(w * t + ph)
    space = CompositeSpace([FactorLabel(atom_name, atom_dim)])
    return DriveHamiltonian(space, [(raise_op, z)])


def _embedded_terms(drive: DriveHamiltonian, space: CompositeSpace) -> list:
    if drive.space == space:
        return list(drive.terms)
    out = []
    for m, fn in drive.terms:
        big = embed(Operator(drive.space, m), space).matrix
        out.append((big, fn))
    return out


def propagate_basis(static_h: Operator, drives: Sequence[DriveHamiltonian],
                    t0: float, t1: float, tol: float,
                    columns: Optional[np.ndarray] = None):
    """Propagate one or more columns under static_h plus drives.

    Returns (final columns, info).  Integration happens in the interaction
    picture of static_h: the static part is removed exactly by the
    eigenbasis phase change, leaving only the drive terms on the right-hand
    side.  Norm is never renormalized; info["norm_drift"] reports the worst
    deviation as the accuracy diagnostic.
    """
    if t1 <= t0:
        raise QStateError(f"need t1 > t0, got [{t0}, {t1}]")
    if tol <= 0:
        raise QStateError(f"tol must be > 0, got {tol}")
    dim = static_h.space.dim
    if columns is None:
        columns = np.eye(dim, dtype=complex)
    cols = np.asarray(columns, dtype=complex)
    squeeze = cols.ndim == 1
    if squeeze:
        cols = cols[:, None]
    if cols.shape[0] != dim:
        raise QStateError(f"column length {cols.shape[0]} != dim {dim}")
    norms0 = np.linalg.norm(cols, axis=0)

    evals, q = np.linalg.eigh(static_h.matrix)
    terms = []
    for d in drives:
        for m, fn in _embedded_terms(d, static_h.space):
            m_e = q.conj().T @ m @ q
            terms.append((-1j * m_e, -1j * m_e.conj().T, fn))   # -i H

    if not terms:
        # free evolution is exact in this picture
        phase = np.exp(-1j * evals * (t1 - t0))
        out = q @ (phase[:, None] * (q.conj().T @ cols))
        info = {"norm_drift": 0.0, "nfev": 0, "method": "exact"}
        return (out[:, 0] if squeeze else out), info

    n_cols = cols.shape[1]
    y0 = np.exp(1j * evals * t0)[:, None] * (q.conj().T @ cols)

    i_evals = 1j * evals

    # in the picture the drive is D (sum z_k M_k + h.c.) D* with
    # D = diag(exp(i E t)), applied to the columns as D (-i H (D* Y))
    def rhs(t, y):
        ph = np.exp(i_evals * t)[:, None]
        h = None
        for m_e, m_h, fn in terms:
            z = complex(fn(t))
            if h is None:
                h = z * m_e
            else:
                h += z * m_e
            h += z.conjugate() * m_h
        out = h @ (ph.conj() * y.reshape(dim, n_cols))
        out *= ph
        return out.ravel()

    # stepped here rather than through solve_ivp, which would keep the
    # state of every step: tens of MB for a full node without the RWA
    solver = DOP853(rhs, float(t0), y0.ravel(), float(t1), rtol=tol,
                    atol=tol * 1e-2)
    while solver.status == "running":
        message = solver.step()
    if solver.status == "failed":
        raise StiffnessError(
            f"integrator stalled at t = {solver.t:.6g} of [{t0:.6g}, {t1:.6g}]: {message}")
    y = solver.y.reshape(dim, n_cols)
    out = q @ (np.exp(-1j * evals * t1)[:, None] * y)
    drift = float(np.max(np.abs(np.linalg.norm(out, axis=0) - norms0)))
    info = {"norm_drift": drift, "nfev": int(solver.nfev), "method": "DOP853"}
    return (out[:, 0] if squeeze else out), info


def evolve_tdse(state: StateVector, static_h: Operator,
                drives: Sequence[DriveHamiltonian], t0: float, t1: float,
                tol: float) -> StateVector:
    """Integrate i d|psi>/dt = (H0 + sum H_drive(t)) |psi> from t0 to t1.

    Adaptive high-order Runge-Kutta in the interaction picture of H0; the
    result is only accepted if the norm survived within the global norm
    tolerance (no renormalization is ever applied).
    """
    if state.space != static_h.space:
        raise QStateError("state and static Hamiltonian live on different spaces")
    out, _info = propagate_basis(static_h, drives, t0, t1, tol,
                                 columns=state.amplitudes)
    return StateVector(state.space, out)
