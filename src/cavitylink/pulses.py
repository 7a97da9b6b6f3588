"""Classical drive pulses on an atom and time-dependent Schrodinger evolution.

Every drive is one Drive record: an envelope p(t) times a carrier, acting on
the g<->e raising operator of the atom that leads the node's space.  Its
coefficient z(t) multiplies s+ and conj(z(t)) multiplies s-, which keeps the
generator Hermitian by construction.  propagate_basis picks its method from
the drives it is given:

- no drive: free evolution, exact through one eigendecomposition of H0;
- rotating-wave drives only: a 6th-order Magnus propagator in the frame
  rotating at each drive's carrier c on the excitation number N (the atom's
  e population plus the cavity's photon number).  H0 conserves N and s+
  raises it by one, so the generator there is H0 - c N + p(t) B with a
  constant B: only the real envelope depends on time.  Step doubling picks
  the step count and supplies the error estimate (Blanes, Casas, Oteo &
  Ros, Phys. Rep. 470, 151 (2009));
- any full drive: adaptive DOP853 in the interaction picture of H0, where
  the picture change cancels all static phases and the right-hand side is
  just the drive with both its rotating and counter-rotating terms.

No path renormalizes; the norm drift of the result is reported as a check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import DOP853

from .qstate import (ATOM_E, ATOM_G, CompositeSpace, Operator, QStateError,
                     StateVector)

PULSE_SHAPES = ("rectangular", "gaussian")

# Gaussian envelopes are truncated at +/- support * width.
DEFAULT_GAUSSIAN_SUPPORT = 3.0


# 3-point Gauss-Legendre nodes on a unit step, for the 6th-order Magnus step.
_GAUSS3 = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
# Magnus steps start at MAGNUS_FIRST_STEPS per drive and double until the
# estimate meets the tolerance; past MAGNUS_MAX_STEPS the drive is refused.
MAGNUS_FIRST_STEPS = 64
MAGNUS_MAX_STEPS = 2 ** 20
# Steps are exponentiated and multiplied this many at a time, so memory does
# not grow with the step count.
MAGNUS_BLOCK = 256


class StiffnessError(RuntimeError):
    """The integrator failed to resolve the drive: DOP853's step size
    underflowed, or Magnus step doubling passed MAGNUS_MAX_STEPS."""


@dataclass(frozen=True)
class PulseSpec:
    """One classical pulse: carrier plus named envelope.

    amplitude is the peak Rabi rate of the envelope (rad/s); width is the
    rectangular duration or the gaussian 1/e half-width tau (s); the lab
    carrier is cos(omega_drive * t + phase), and a Drive states the frame
    the pulse is integrated in.  Gaussian envelopes are identically zero
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

        A float t gives a float (DOP853's per-step path); anything else is
        evaluated elementwise as an array (the Magnus path's Gauss points).
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
    amp = target_area / replace(envelope, amplitude=1.0).envelope_area()
    if max_amplitude is not None and amp > max_amplitude:
        raise QStateError(
            f"area {target_area} unreachable: needs amplitude {amp} > bound {max_amplitude}")
    return replace(envelope, amplitude=amp)


@dataclass(frozen=True)
class Drive:
    """One classical pulse on the atom's g->e raising operator s+.

    The s+ coefficient is (p(t)/2) exp(-i(carrier t + phase)), plus
    (p(t)/2) exp(+i(counter t + phase)) unless counter is None (the
    rotating-wave approximation); s- carries the conjugate.  A bare drive
    has carrier = counter = pulse.omega_drive, i.e. <e|H|g> =
    p(t) cos(omega_drive t + phase); in the cavity-rotating frame the
    carrier is the offset from the cavity and counter = 2 omega + carrier.
    """

    pulse: PulseSpec
    carrier: float
    counter: Optional[float] = None

    def coefficient(self, t: float) -> complex:
        """Coefficient z(t) of s+ at time t."""
        half = 0.5 * self.pulse.envelope(t)
        phase = self.pulse.phase
        # scalar cmath, not numpy: this runs once per right-hand-side call
        if self.counter is None:
            return half * cmath.exp(-1j * (self.carrier * t + phase))
        return half * (cmath.exp(-1j * (self.carrier * t + phase))
                       + cmath.exp(1j * (self.counter * t + phase)))


def _atom_raise(space: CompositeSpace) -> np.ndarray:
    """s+ on the leading atom factor, identity on the rest of the space."""
    atom = space.factors[0]
    if atom.name != "atom" or atom.dim not in (2, 3):
        raise QStateError(
            f"drives act on a leading 'atom' factor of dim 2 or 3, got {atom}")
    raise_op = np.zeros((atom.dim, atom.dim), dtype=complex)
    raise_op[ATOM_E, ATOM_G] = 1.0
    return np.kron(raise_op, np.eye(space.dim // atom.dim))


def _excitations(space: CompositeSpace) -> np.ndarray:
    """Diagonal of N: the leading atom's e population plus the photon number
    of a factor named "cavity", on the product basis."""
    n = np.zeros(1)
    for k, factor in enumerate(space.factors):
        if k == 0:
            levels = (np.arange(factor.dim) == ATOM_E).astype(float)
        elif factor.name == "cavity":
            levels = np.arange(factor.dim, dtype=float)
        else:
            levels = np.zeros(factor.dim)
        n = np.add.outer(n, levels).ravel()
    return n


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _time_ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[0], multiplied pairwise."""
    while len(mats) > 1:
        even = len(mats) - len(mats) % 2
        mats = np.concatenate((mats[1:even:2] @ mats[0:even:2], mats[even:]))
    return mats[0]


def _magnus_steps(k: np.ndarray, b: np.ndarray, envelope, t0: float, t1: float,
                  n: int) -> np.ndarray:
    """Propagator of dU/dt = (k + p(t) b) U over [t0, t1] in n steps of the
    6th-order 3-point Gauss-Legendre Magnus scheme (Blanes et al. 2009)."""
    h = (t1 - t0) / n
    u = np.eye(k.shape[0], dtype=complex)
    for first in range(0, n, MAGNUS_BLOCK):
        j = np.arange(first, min(first + MAGNUS_BLOCK, n))
        p1, p2, p3 = np.asarray(envelope(t0 + h * (j[:, None] + _GAUSS3))).T
        a1 = h * (k + p2[:, None, None] * b)
        a2 = (math.sqrt(15.0) * h / 3.0 * (p3 - p1))[:, None, None] * b
        a3 = (10.0 * h / 3.0 * (p3 - 2.0 * p2 + p1))[:, None, None] * b
        c1 = _commutator(a1, a2)
        c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
        omega = a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
        # omega is anti-Hermitian: exp(omega) = V exp(-i w) V' from i omega = V w V'
        w, v = np.linalg.eigh(1j * omega)
        steps = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        u = _time_ordered_product(steps) @ u
    return u


def _magnus_window(h0: np.ndarray, n_exc: np.ndarray, raise_op: np.ndarray,
                   drive: Drive, t0: float, t1: float, tol: float) -> tuple:
    """One rotating-wave drive over [t0, t1], integrated in its carrier's frame.

    With V = exp(i c N t) the generator becomes H0 - c N + p(t) B, where
    B = (exp(-i phase) s+ + h.c.) / 2.  The step count doubles from
    MAGNUS_FIRST_STEPS until the gap to the previous count, over 2^6 - 1,
    is below tol.  Returns (U, steps, error estimate, envelope evaluations).
    """
    c = drive.carrier
    k = -1j * (h0 - c * np.diag(n_exc))
    half_raise = 0.5 * cmath.exp(-1j * drive.pulse.phase) * raise_op
    b = -1j * (half_raise + half_raise.conj().T)
    n, estimate = MAGNUS_FIRST_STEPS, math.inf
    coarse = _magnus_steps(k, b, drive.pulse.envelope, t0, t1, n)
    nfev = 3 * n
    while True:
        if 2 * n > MAGNUS_MAX_STEPS:
            raise StiffnessError(
                f"Magnus steps on [{t0:.6g}, {t1:.6g}] passed {MAGNUS_MAX_STEPS} "
                f"with error estimate {estimate:.3g} > tol {tol:.3g}")
        n *= 2
        fine = _magnus_steps(k, b, drive.pulse.envelope, t0, t1, n)
        nfev += 3 * n
        estimate = float(np.max(np.abs(fine - coarse))) / 63.0
        if estimate < tol:
            break
        coarse = fine
    # back to the lab frame: U = exp(-i c N t1) U' exp(i c N t0)
    u = np.exp(-1j * c * n_exc * t1)[:, None] * fine * np.exp(1j * c * n_exc * t0)
    return u, n, estimate, nfev


def _magnus_propagator(static_h: Operator, evals: np.ndarray, q: np.ndarray,
                       raise_op: np.ndarray, drives: Sequence[Drive],
                       t0: float, t1: float, tol: float) -> tuple:
    """Propagator over [t0, t1] under rotating-wave drives.

    Each drive's window is one segment in its own carrier's frame; the time
    outside every window evolves exactly under static_h.  Returns
    (U, info).
    """
    h0 = static_h.matrix
    n_exc = _excitations(static_h.space)
    if np.any(h0[n_exc[:, None] != n_exc[None, :]] != 0):
        raise QStateError("rotating-wave propagation needs a static Hamiltonian "
                          "that conserves N (atom e population plus photons)")
    windows = []
    for drive in drives:
        lo, hi = drive.pulse.window
        lo, hi = max(lo, t0), min(hi, t1)
        if hi > lo:
            windows.append((lo, hi, drive))
    windows.sort(key=lambda w: w[0])
    for (_lo, hi, _d), (lo, _hi, _d2) in zip(windows, windows[1:]):
        if lo < hi:
            raise QStateError(
                f"rotating-wave drive windows overlap on [{lo:.6g}, {hi:.6g}]")

    def free(dt):
        return (q * np.exp(-1j * evals * dt)) @ q.conj().T

    u = np.eye(h0.shape[0], dtype=complex)
    t, steps, estimate, nfev = t0, 0, 0.0, 0
    for lo, hi, drive in windows:
        if lo > t:
            u = free(lo - t) @ u
        seg, n, est, calls = _magnus_window(h0, n_exc, raise_op, drive, lo, hi, tol)
        u = seg @ u
        t, steps, estimate, nfev = hi, steps + n, estimate + est, nfev + calls
    if t1 > t:
        u = free(t1 - t) @ u
    return u, {"nfev": nfev, "method": "magnus6", "steps": steps,
               "error_estimate": estimate}


def _dop853_columns(evals: np.ndarray, q: np.ndarray, raise_op: np.ndarray,
                    drives: Sequence[Drive], t0: float, t1: float, tol: float,
                    cols: np.ndarray) -> tuple:
    """Columns integrated by DOP853 in the interaction picture of H0 = Q E Q'.

    Returns (final columns, info).
    """
    dim, n_cols = cols.shape
    raise_e = q.conj().T @ raise_op @ q
    m_e, m_h = -1j * raise_e, -1j * raise_e.conj().T   # -i s+ and -i s-
    first, rest = drives[0], tuple(drives[1:])
    y0 = np.exp(1j * evals * t0)[:, None] * (q.conj().T @ cols)

    i_evals = 1j * evals

    # in the picture the drive is D (z s+ + h.c.) D* with D = diag(exp(i E t)),
    # applied to the columns as D (-i H (D* Y))
    def rhs(t, y):
        ph = np.exp(i_evals * t)[:, None]
        z = first.coefficient(t)
        for d in rest:
            z += d.coefficient(t)
        h = z * m_e
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
    return out, {"nfev": int(solver.nfev), "method": "DOP853"}


def propagate_basis(static_h: Operator, drives: Sequence[Drive],
                    t0: float, t1: float, tol: float,
                    columns: Optional[np.ndarray] = None):
    """Propagate one or more columns under static_h plus drives.

    Returns (final columns, info).  The drives pick the method (see the
    module notes): info["method"] is "exact" without drives, "magnus6"
    when every drive is rotating-wave and "DOP853" otherwise.  Every drive
    acts on the raising operator of the space's leading factor, which must
    be an atom named "atom" (dim 2 or 3).  Norm is never renormalized;
    info["norm_drift"] reports the worst deviation of a column's norm, and
    the Magnus path adds info["steps"] and info["error_estimate"], its
    step-doubling estimate of max |U - U_exact| (held below tol).
    """
    if t1 <= t0:
        raise QStateError(f"need t1 > t0, got [{t0}, {t1}]")
    if not (tol > 0 and math.isfinite(tol)):
        raise QStateError(f"tol must be > 0 and finite, got {tol}")
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

    if not drives:
        # free evolution is exact in this picture
        phase = np.exp(-1j * evals * (t1 - t0))
        out = q @ (phase[:, None] * (q.conj().T @ cols))
        info = {"norm_drift": 0.0, "nfev": 0, "method": "exact"}
        return (out[:, 0] if squeeze else out), info

    raise_op = _atom_raise(static_h.space)
    if all(d.counter is None for d in drives):
        u, info = _magnus_propagator(static_h, evals, q, raise_op, drives,
                                     t0, t1, tol)
        out = u @ cols
    else:
        out, info = _dop853_columns(evals, q, raise_op, drives, t0, t1, tol, cols)
    info["norm_drift"] = float(np.max(np.abs(np.linalg.norm(out, axis=0) - norms0)))
    return (out[:, 0] if squeeze else out), info


def evolve_tdse(state: StateVector, static_h: Operator,
                drives: Sequence[Drive], t0: float, t1: float,
                tol: float) -> StateVector:
    """Integrate i d|psi>/dt = (H0 + sum H_drive(t)) |psi> from t0 to t1.

    The state is one column of propagate_basis, so the drives pick the
    method; the norm is never renormalized.
    """
    if state.space != static_h.space:
        raise QStateError("state and static Hamiltonian live on different spaces")
    out, _info = propagate_basis(static_h, drives, t0, t1, tol,
                                 columns=state.amplitudes)
    return StateVector(state.space, out)
