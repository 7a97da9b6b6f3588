"""Classical drive pulses on an atom and time-dependent Schrodinger evolution.

Every drive is one Drive record: a gaussian envelope p(t) times a carrier,
acting on the g<->e raising operator of the atom that leads the node's
space.  Its coefficient z(t) multiplies s+ and conj(z(t)) multiplies s-,
which keeps the generator Hermitian by construction.  propagate_basis
picks its method from the drives it is given:

- no drive: free evolution, exact through one eigendecomposition of H0;
- any drive: a 6th-order Magnus propagator in the frame rotating at each
  drive's carrier c on the excitation number N (the atom's e population
  plus the cavity's photon number).  H0 conserves N and s+ raises it by
  one, so the generator there is K + z(t) X + conj(z(t)) Y with constant K,
  X and Y: only the scalar z depends on time.  A rotating-wave drive has
  z = p(t)/2; the full drive adds its counter-rotating term, which
  oscillates at W, the carrier plus the counter frequency.
  Each step reads z through three moments, integrated on a fixed
  Gauss-Legendre rule with one panel per radian of W, and adds the double
  integral of z times its conjugate that no polynomial through the
  moments holds: the counter-rotating term's Bloch-Siegert shift.  So a
  step may span more than a radian of W (a Magnus-Filon step: Iserles,
  Appl. Numer. Math. 43, 145 (2002)).  Each step is built from six fixed
  matrices and exponentiated by a scaled Taylor polynomial, stacked
  matmuls only.  Step doubling picks the step count and supplies the
  error estimate (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).

No path renormalizes; the norm drift of the result is reported as a check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .qstate import (ATOM_E, ATOM_G, CompositeSpace, Operator, QStateError,
                     StateVector)

# Every envelope is a gaussian truncated at +/- GAUSSIAN_SUPPORT widths.
GAUSSIAN_SUPPORT = 3.0


# Each Magnus step takes its scalar moments on a fixed Gauss-Legendre rule of
# FILON_NODES nodes on each of P equal panels, P the least count with each
# panel spanning at most FILON_PANEL_RAD of the counter-rotating phase (one
# panel for a rotating-wave drive).
FILON_NODES = 10
FILON_PANEL_RAD = 1.0
# Magnus steps start at MAGNUS_FIRST_STEPS per drive, or at the first
# doubling that resolves the counter-rotating term, and double until the
# estimate meets the tolerance; past MAGNUS_MAX_STEPS the drive is refused.
MAGNUS_FIRST_STEPS = 64
MAGNUS_MAX_STEPS = 2 ** 23
# An estimate below this that rises at the next doubling has met the
# rounding floor: finer steps only add rounding, so the doubling stops.
# No tol of this size or more can see the rule, since the doubling would
# already have ended at the estimate below it.
MAGNUS_ROUNDING_ONSET = 1e-10
# Steps are exponentiated and multiplied this many at a time, so memory does
# not grow with the step count.
MAGNUS_BLOCK = 256
# Taylor coefficients 1/k!, k = 0..12, as three Paterson-Stockmeyer blocks
# and the last, and log2(13! u) with u = 2^-53 the unit roundoff: the
# budget for the degree-12 remainder (see _expm_stack).
_TAYLOR_BLOCKS = np.array([1.0 / math.factorial(k) for k in range(12)]).reshape(3, 4)
_TAYLOR_LAST = 1.0 / math.factorial(12)
_TAYLOR_LOG2_BUDGET = math.log2(math.factorial(13)) - 53.0


class StiffnessError(RuntimeError):
    """The integrator failed to resolve the drive: Magnus step doubling
    passed MAGNUS_MAX_STEPS, or met its rounding floor, before its error
    estimate met the tolerance."""


@dataclass(frozen=True)
class PulseSpec:
    """One classical pulse: carrier plus gaussian envelope.

    amplitude is the peak Rabi rate of the envelope (rad/s) and width its
    1/e half-width tau (s); the lab carrier is cos(omega_drive * t), and a
    Drive states the frame the pulse is integrated in.  The envelope is
    identically zero outside center +/- GAUSSIAN_SUPPORT * width.
    """

    omega_drive: float
    amplitude: float
    width: float
    center: float = 0.0

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise QStateError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.width <= 0:
            raise QStateError(f"width must be > 0, got {self.width}")
        if not math.isfinite(self.omega_drive):
            raise QStateError("omega_drive must be finite")

    @property
    def window(self) -> tuple:
        """(start, end) outside which the envelope is exactly zero."""
        half = GAUSSIAN_SUPPORT * self.width
        return (self.center - half, self.center + half)

    def envelope(self, t):
        """Envelope p(t) in rad/s, without the carrier.

        A float t gives a float (Drive.coefficient's scalar path, read only
        by the tests' DOP853 oracle); an array is evaluated elementwise (the
        panel nodes of the Magnus step and of the two-photon integrals).
        """
        lo, hi = self.window
        if isinstance(t, float):
            if not lo <= t <= hi:
                return 0.0
            arg = (t - self.center) / self.width
            return self.amplitude * math.exp(-arg * arg)
        t = np.asarray(t, dtype=float)
        inside = (t >= lo) & (t <= hi)
        arg = (t - self.center) / self.width
        return np.where(inside, self.amplitude * np.exp(-arg * arg), 0.0)

    def envelope_area(self) -> float:
        """Integral of the envelope over its window, analytic."""
        return (self.amplitude * self.width * math.sqrt(math.pi)
                * math.erf(GAUSSIAN_SUPPORT))


def calibrate_pulse_area(envelope: PulseSpec, target_area: float) -> PulseSpec:
    """Rescale the envelope amplitude so its area matches target_area.

    Divides by the unit envelope's area over the finite window, e.g. a pi
    area needs amplitude pi / (tau sqrt(pi) erf(GAUSSIAN_SUPPORT)).
    """
    if target_area <= 0:
        raise QStateError(f"target_area must be > 0, got {target_area}")
    amp = target_area / replace(envelope, amplitude=1.0).envelope_area()
    return replace(envelope, amplitude=amp)


@dataclass(frozen=True)
class Drive:
    """One classical pulse on the atom's g->e raising operator s+.

    The s+ coefficient is (p(t)/2) exp(-i carrier t), plus (p(t)/2)
    exp(+i counter t) unless counter is None (the rotating-wave
    approximation); s- carries the conjugate.  A bare drive has carrier =
    counter = pulse.omega_drive, i.e. <e|H|g> = p(t) cos(omega_drive t); in
    the cavity-rotating frame the carrier is the offset from the cavity and
    counter = 2 omega + carrier.
    """

    pulse: PulseSpec
    carrier: float
    counter: Optional[float] = None

    def coefficient(self, t: float) -> complex:
        """Coefficient z(t) of s+ at time t."""
        half = 0.5 * self.pulse.envelope(t)
        # scalar cmath, not numpy: the tests' DOP853 oracle calls this per RHS
        if self.counter is None:
            return half * cmath.exp(-1j * (self.carrier * t))
        return half * (cmath.exp(-1j * (self.carrier * t))
                       + cmath.exp(1j * (self.counter * t)))


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


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of every matrix in the stack a, from stacked matmuls only.

    The stack is scaled by 2^s; f = exp(a / 2^s) - 1 is the degree-12
    Taylor polynomial less its constant, evaluated by Paterson-Stockmeyer
    in five products, and squared s times as (1 + f)^2 - 1 = 2 f + f^2
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).  The identity
    joins only at the end: carried through the squarings it would round
    every step the same way, an error that grows with the step count.
    Squaring multiplies the truncation error by 2^s, so s is the least
    with 2^s (norm / 2^s)^13 / 13! below the unit roundoff, for the
    largest 1-norm in the stack.
    """
    norm = float(np.max(np.sum(np.abs(a), axis=-2)))
    s = max(0, math.ceil((13.0 * math.log2(norm) - _TAYLOR_LOG2_BUDGET) / 12.0)) \
        if norm > 0 else 0
    dim = a.shape[-1]
    powers = np.empty((3,) + a.shape, dtype=complex)    # a, a^2, a^3
    np.multiply(a, 0.5 ** s, out=powers[0])
    np.matmul(powers[0], powers[0], out=powers[1])
    np.matmul(powers[1], powers[0], out=powers[2])
    a4 = powers[1] @ powers[1]
    # b_j = sum_i c_{4j+i} a^i for i = 0..3, less the constant 1 in b_0
    b = (_TAYLOR_BLOCKS[:, 1:] @ powers.reshape(3, -1)).reshape(powers.shape)
    b.reshape(3, -1, dim * dim)[1:, :, ::dim + 1] += _TAYLOR_BLOCKS[1:, :1, None]
    f = b[0] + a4 @ (b[1] + a4 @ (b[2] + _TAYLOR_LAST * a4))
    for _ in range(s):
        f = 2.0 * f + f @ f     # (1 + f)^2 - 1
    f.reshape(len(f), -1)[:, ::dim + 1] += 1.0
    return f


def _magnus_basis(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K, X, Y = -X', [K, X], [K, Y] and [X, Y], one flattened row each.

    For a generator K + z(t) X + conj(z(t)) Y every Magnus term short of
    the nested commutators is a combination of these six.
    """
    y = -x.conj().T
    mats = (k, x, y, _commutator(k, x), _commutator(k, y), _commutator(x, y))
    return np.stack(mats).reshape(6, -1)


def _panels(w: float, h: float) -> int:
    """Panels per step of length h for a term oscillating at w."""
    return max(1, math.ceil(abs(w) * h / FILON_PANEL_RAD))


@lru_cache(maxsize=16)
def _step_rule(panels: int) -> tuple:
    """The fixed rule of a unit step cut into equal panels.

    Returns the nodes u in (0, 1), FILON_NODES per panel; the moment matrix
    whose column j gives the integral of (u - 1/2)^j z(u) over the step; and
    the weighted cumulative matrix whose row i gives w_i times the integral
    of z from 0 to u_i, exact for z a degree-9 polynomial on each panel.
    """
    leg = np.polynomial.legendre
    x, wx = leg.leggauss(FILON_NODES)
    # integral from -1 to x_i of the Lagrange polynomial through x_k
    lagrange = np.linalg.inv(leg.legvander(x, FILON_NODES - 1))
    inside = leg.legvander(x, FILON_NODES) @ leg.legint(lagrange, lbnd=-1.0)
    nodes = ((np.arange(panels)[:, None] + (x + 1.0) / 2.0) / panels).ravel()
    weights = np.tile(wx / (2.0 * panels), panels)
    # every earlier panel whole, then this one up to the node
    cumulative = (np.kron(np.tri(panels, k=-1), np.tile(wx, (FILON_NODES, 1)))
                  + np.kron(np.eye(panels), inside)) * (weights[:, None] / (2.0 * panels))
    moments = weights[:, None] * (nodes[:, None] - 0.5) ** np.arange(3)
    for array in (nodes, moments, cumulative):
        array.setflags(write=False)
    return nodes, moments, cumulative


def _step_scalars(z: np.ndarray, h: float, rule: tuple) -> tuple:
    """x1, x2, x3 and the Bloch-Siegert term of steps of length h, from z at
    the rule's nodes (one row per step).

    The moments B_j = h^-(j+1) int (t - t_mid)^j z dt fix the quadratic
    that the 6th-order scheme reads as x1 + x2 s + x3 s^2, s = (t - t_mid)
    / h.  The scheme's [X, Y] term is then R_poly / 2, with R_poly the
    closed form of R = int int_{s<t} (z(t) conj z(s) - conj z(t) z(s)) for
    that quadratic; the last value is (R - R_poly) / 2, R taken on the
    nodes.  For a rotating-wave drive it vanishes to the scheme's order; the
    counter-rotating term times its conjugate leaves the Bloch-Siegert
    shift, which the quadratic cannot hold.
    """
    _nodes, moments, cumulative = rule
    b0, b1, b2 = (z @ moments).T
    x1 = h * (2.25 * b0 - 15.0 * b2)
    x2 = (12.0 * h) * b1
    x3 = h * (180.0 * b2 - 15.0 * b0)
    r = (2j * h * h) * np.sum(z * (z.conj() @ cumulative.T), axis=1).imag
    r_poly = (-(x1 * x2.conj() - x1.conj() * x2) / 6.0
              + (x2 * x3.conj() - x2.conj() * x3) / 120.0)
    return x1, x2, x3, 0.5 * (r - r_poly)


def _magnus_steps(basis: np.ndarray, coefficient, w: float, t0: float,
                  t1: float, n: int) -> np.ndarray:
    """Propagator of dU/dt = (K + z X + conj(z) Y) U over [t0, t1] in n steps
    of the 6th-order Magnus scheme (Blanes et al. 2009); basis is
    _magnus_basis(K, X), coefficient gives z at an array of times, and w is
    the frequency of its fastest term (0 for a rotating-wave drive).

    Each step reads z through exact-to-rounding moments on _step_rule's
    panels, not through point samples, and adds the Bloch-Siegert term of
    _step_scalars to its [X, Y] coefficient, so a step may span a radian
    or more of w (Iserles, Appl. Numer. Math. 43, 145 (2002)).
    """
    h = (t1 - t0) / n
    dim = math.isqrt(basis.shape[1])
    rule = _step_rule(_panels(w, h))
    u = np.eye(dim, dtype=complex)
    for first in range(0, n, MAGNUS_BLOCK):
        m = min(MAGNUS_BLOCK, n - first)
        z = np.asarray(coefficient(t0 + h * (np.arange(first, first + m)[:, None]
                                             + rule[0])))
        # a1, a2 and a3 on (X, Y); K enters a1 alone, as h K
        x1, x2, x3, bloch_siegert = _step_scalars(z, h, rule)
        # rows a1, a2, d = 2 a3 + c1, l = -20 a1 - a3 + c1 and a1 + a3 / 12 on
        # the basis; c1 = [a1, a2] lies on ([K, X], [K, Y], [X, Y])
        coef = np.zeros((5, m, 6), dtype=complex)
        coef[:, :, 0] = np.array([[h], [0.0], [0.0], [-20.0 * h], [h]])
        coef[:, :, 1] = (x1, x2, 2.0 * x3, -20.0 * x1 - x3, x1 + x3 / 12.0)
        coef[:, :, 2] = coef[:, :, 1].conj()
        coef[2:4, :, 3] = h * x2
        coef[2:4, :, 4] = h * x2.conj()
        coef[2:4, :, 5] = x1 * x2.conj() - x1.conj() * x2
        coef[4, :, 5] = bloch_siegert
        a1, a2, d, l, low = (coef.reshape(5 * m, 6) @ basis).reshape(5, m, dim, dim)
        r = a2 - _commutator(a1, d) / 60.0        # a2 + c2, c2 = -[a1, d] / 60
        omega = low + _commutator(l, r) / 240.0
        u = _time_ordered_product(_expm_stack(omega)) @ u
    return u


def _first_steps(w: float, t0: float, t1: float) -> int:
    """Where step doubling starts: MAGNUS_FIRST_STEPS, doubled while one step
    spans more than pi radians of a term oscillating at w.  The panels
    integrate such a step well; the start keeps the first comparison where
    the error falls by 2^6 a doubling, which the estimate assumes."""
    n = MAGNUS_FIRST_STEPS
    while abs(w) * (t1 - t0) / n > math.pi:
        n *= 2
    return n


def _magnus_window(h0: np.ndarray, n_exc: np.ndarray, raise_op: np.ndarray,
                   drive: Drive, t0: float, t1: float, tol: float) -> tuple:
    """One drive over [t0, t1], integrated in its carrier's frame.

    With V = exp(i c N t) the generator becomes K + z(t) X + conj(z(t)) Y,
    where K = -i (H0 - c N), X = -i s+, Y = -i s- and
    z(t) = (p(t)/2) (1 + exp(i W t)), W = carrier + counter; a
    rotating-wave drive keeps only the first term.  The step count doubles
    until the gap to the previous count, over 2^6 - 1, is below tol.
    Returns (U, steps, error estimate, coefficient evaluations over every
    pass).
    """
    c, pulse = drive.carrier, drive.pulse
    h_frame = h0 - c * np.diag(n_exc)
    # the trace is a global phase: taking it out of every step makes the
    # steps smaller and so needs fewer squarings in _expm_stack
    shift = float(np.trace(h_frame).real) / len(h_frame)
    basis = _magnus_basis(-1j * (h_frame - shift * np.eye(len(h_frame))),
                          -1j * raise_op)
    # z is written out in this frame rather than taken as coefficient(t)
    # exp(i c t), whose large opposite phases would cancel only to rounding
    if drive.counter is None:
        w = 0.0

        def coefficient(t):
            return (0.5 + 0.0j) * pulse.envelope(t)
    else:
        w = c + drive.counter

        def coefficient(t):
            return pulse.envelope(t) * (0.5 + 0.5 * np.exp(1j * w * t))
    evaluations = 0

    def integrate(count):
        nonlocal evaluations
        evaluations += count * FILON_NODES * _panels(w, (t1 - t0) / count)
        return _magnus_steps(basis, coefficient, w, t0, t1, count)

    n = _first_steps(w, t0, t1)
    estimate, fine = math.inf, None
    while True:
        # a comparison needs 2n steps: refuse before integrating any of them
        if 2 * n > MAGNUS_MAX_STEPS:
            raise StiffnessError(
                f"Magnus steps on [{t0:.6g}, {t1:.6g}] passed {MAGNUS_MAX_STEPS} "
                f"(the next comparison needs {2 * n}) with error estimate "
                f"{estimate:.3g} > tol {tol:.3g}")
        coarse = integrate(n) if fine is None else fine
        n *= 2
        fine = integrate(n)
        previous = estimate
        estimate = float(np.max(np.abs(fine - coarse))) / 63.0
        if estimate < tol:
            break
        if previous < MAGNUS_ROUNDING_ONSET and estimate > previous:
            raise StiffnessError(
                f"Magnus steps on [{t0:.6g}, {t1:.6g}] met the rounding floor: "
                f"the error estimate rose from {previous:.3g} to {estimate:.3g} "
                f"at {n} steps, so tol {tol:.3g} is out of reach")
    # back to the lab frame: U = exp(-i c N t1) U' exp(i c N t0)
    post = np.exp(-1j * (c * n_exc * t1 + shift * (t1 - t0)))
    u = post[:, None] * fine * np.exp(1j * c * n_exc * t0)
    return u, n, estimate, evaluations


def _magnus_propagator(static_h: Operator, evals: np.ndarray, q: np.ndarray,
                       drives: Sequence[Drive], t0: float, t1: float,
                       tol: float) -> tuple:
    """Propagator over [t0, t1] under drives with disjoint windows.

    Each drive's window is one segment in its own carrier's frame; the time
    outside every window evolves exactly under static_h.  Returns
    (U, info).
    """
    h0 = static_h.matrix
    raise_op = _atom_raise(static_h.space)
    n_exc = _excitations(static_h.space)
    if np.any(h0[n_exc[:, None] != n_exc[None, :]] != 0):
        raise QStateError("carrier-frame propagation needs a static Hamiltonian "
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
            raise QStateError(f"drive windows overlap on [{lo:.6g}, {hi:.6g}]")

    def free(dt):
        return (q * np.exp(-1j * evals * dt)) @ q.conj().T

    u = np.eye(h0.shape[0], dtype=complex)
    t, steps, estimate, evaluations = t0, 0, 0.0, 0
    for lo, hi, drive in windows:
        if lo > t:
            u = free(lo - t) @ u
        seg, n, est, work = _magnus_window(h0, n_exc, raise_op, drive, lo, hi, tol)
        u = seg @ u
        t, steps, estimate, evaluations = hi, steps + n, estimate + est, evaluations + work
    if t1 > t:
        u = free(t1 - t) @ u
    return u, {"nfev": evaluations, "method": "magnus6", "steps": steps,
               "error_estimate": estimate}


def propagate_basis(static_h: Operator, drives: Sequence[Drive],
                    t0: float, t1: float, tol: float,
                    columns: Optional[np.ndarray] = None):
    """Propagate one or more columns under static_h plus drives.

    Returns (final columns, info).  The drives pick the method (see the
    module notes): info["method"] is "exact" without drives and "magnus6"
    with them.  Every drive acts on the raising operator of the space's
    leading factor, which must be an atom named "atom" (dim 2 or 3), and
    no two drive windows may overlap.  Norm is never renormalized;
    info["norm_drift"] reports the worst deviation of a column's norm.
    info["steps"] counts the Magnus steps of the result and
    info["error_estimate"] is their step-doubling estimate of
    max |U - U_exact|, held below tol (both 0 on the exact path);
    info["nfev"] counts coefficient evaluations at the step rule's nodes,
    FILON_NODES per panel of every step computed over every doubling: 10 a
    step for a rotating-wave drive, 10 P for the full drive's P panels.
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
        info = {"norm_drift": 0.0, "nfev": 0, "method": "exact", "steps": 0,
                "error_estimate": 0.0}
        return (out[:, 0] if squeeze else out), info

    u, info = _magnus_propagator(static_h, evals, q, drives, t0, t1, tol)
    out = u @ cols
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
