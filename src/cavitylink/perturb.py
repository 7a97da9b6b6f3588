"""Second-order amplitude for the laser-driven two-photon transition
|g,0> <-> |V+,1> of a detuned atom-cavity node.

The laser couples |g,0> to the manifold-0 dressed pair and that pair to
|V+,1>; summing the two paths with their time-ordered double integral gives
the exchange amplitude of the swap primitive.  Energies are taken in the
frame co-rotating at the cavity frequency, where the three levels sit at
-delta/2, +/-R_0 and +R_1, so the resonant laser frequency is
(R_1 + delta/2)/2, half the total two-photon gap.

The source-scale operating point is kept under two frequency readings
(numbers as rad/s, or numbers as cycles/s times 2 pi); see
calibrate_convention for the measured outcome of both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .qstate import ATOM_G, QStateError
from .jcmodel import (JCParams, dressed_pair, jc_rotating, jc_space,
                      manifold_splitting, mixing_angle)
from .pulses import Drive, PulseSpec, propagate_basis


class QuadratureError(RuntimeError):
    """The double-integral refinement failed to converge."""


@dataclass(frozen=True)
class TwoPhotonParams:
    """Operating point of the two-photon exchange.

    rabi_coupling: atom-cavity coupling (rad/s)
    delta: atom-cavity detuning (rad/s), positive dispersive
    tau: gaussian 1/e half-width of the laser envelope (s)
    sigma0: peak atom-laser coupling (rad/s); the rotating-wave drive
        element is sigma0 * exp(-t^2/tau^2) in full
    t_final: end of the integration window (s); it starts at -3 tau
    omega_laser: laser frequency in the cavity-rotating frame; None picks
        half the |g,0> -> |V+,1> gap, (R_1 + delta/2) / 2
    """

    rabi_coupling: float
    delta: float
    tau: float
    sigma0: float
    t_final: Optional[float] = None
    omega_laser: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rabi_coupling <= 0:
            raise QStateError("rabi_coupling must be > 0")
        if self.delta <= 0:
            raise QStateError("delta must be > 0 (dispersive operating point)")
        if self.tau <= 0:
            raise QStateError("tau must be > 0")
        if self.sigma0 < 0:
            raise QStateError("sigma0 must be >= 0")
        if self.rabi_coupling / self.delta > 0.3:
            warnings.warn(
                f"coupling/detuning = {self.rabi_coupling / self.delta:.3g} > 0.3; "
                "the dispersive treatment is unreliable here", stacklevel=2)

    @property
    def x(self) -> float:
        return self.rabi_coupling / self.delta

    @property
    def t_end(self) -> float:
        return 3.0 * self.tau if self.t_final is None else self.t_final

    @property
    def t_start(self) -> float:
        return -3.0 * self.tau

    @property
    def laser_frequency(self) -> float:
        return _laser_frequency(self.rabi_coupling, self.delta, self.omega_laser)

    def jc_params(self) -> JCParams:
        return _node_params(self.rabi_coupling, self.delta)


def _node_params(rabi_coupling: float, delta: float) -> JCParams:
    """Node parameters with the cavity placed at a desk-scale frequency.

    Only the detuning and coupling matter in the rotating frame used
    throughout this module.
    """
    return JCParams(omega0=3.0 * delta, omega=2.0 * delta,
                    rabi_coupling=rabi_coupling)


def _laser_frequency(rabi_coupling: float, delta: float,
                     omega_laser: Optional[float]) -> float:
    if omega_laser is not None:
        return omega_laser
    r1 = float(manifold_splitting(_node_params(rabi_coupling, delta), 1))
    return (r1 + delta / 2.0) / 2.0


# Operating point quoted at the source scale, under both frequency readings.
SOURCE_POINT_ANGULAR = TwoPhotonParams(
    rabi_coupling=1e5, delta=1e6, tau=2e-5, sigma0=1e5)
SOURCE_POINT_CYCLIC = TwoPhotonParams(
    rabi_coupling=2.0 * math.pi * 1e5, delta=2.0 * math.pi * 1e6, tau=2e-5,
    sigma0=2.0 * math.pi * 1e5)

# Frozen calibration outcome (see calibrate_convention): probability of the
# two-photon exchange at the operating point, perturbative and exact.
FROZEN_CONVENTION = "cyclic"
FROZEN_CALIBRATION = {
    "angular": {"perturbative": 0.009308, "tdse": 0.008153},
    "cyclic": {"perturbative": 0.360453, "tdse": 0.000638},
}


def _path_elements(rabi_coupling: float, delta: float,
                   omega_laser: Optional[float]):
    """Matrix elements and detunings of the two intermediate paths.

    Returns (weights, d1, d2): per path j in (+, -), weights[j] is the
    product of the two hop elements, d1/d2 the rotating-frame detunings of
    the first and second hop under the laser of TwoPhotonParams.laser_frequency.
    None of them depends on the drive strength sigma0.
    """
    params = _node_params(rabi_coupling, delta)
    phi0 = mixing_angle(params, 0)
    phi1 = mixing_angle(params, 1)
    r0 = float(manifold_splitting(params, 0))
    r1 = float(manifold_splitting(params, 1))
    wl = _laser_frequency(rabi_coupling, delta, omega_laser)
    # hop 1: <V_j,0| s+ |g,0>; hop 2: <V+,1| s+ |V_j,0>
    m1 = np.array([math.cos(phi0), -math.sin(phi0)])
    m2 = np.array([math.sin(phi0) * math.cos(phi1),
                   math.cos(phi0) * math.cos(phi1)])
    e_i, e_f = -delta / 2.0, r1
    e_j = np.array([r0, -r0])
    d1 = e_j - e_i - wl
    d2 = e_f - e_j - wl
    return m1 * m2, d1, d2


def _ordered_double_integral(env_t, t, dt, d_inner, d_outer, work):
    """integral over t0<t'<t''<t1 of env(t'')e^{i d_outer t''} env(t')e^{i d_inner t'}
    on the uniform grid t from t0 to t1 (spacing dt), with env_t = env(t).

    work is three complex rows as long as t.  The arithmetic runs in place
    there, because fresh grid-sized temporaries on every call made glibc hand
    heap pages back and fault them in again, thousands of faults per call.
    """
    f_in, f_out, inner = work
    for f, d in ((f_in, d_inner), (f_out, d_outer)):
        np.multiply(1j * d, t, out=f)
        np.exp(f, out=f)
        f *= env_t
    # cumulative trapezoid of the inner integrand, F(t_k) = int_{t0}^{t_k}
    inner[0] = 0.0
    np.add(f_in[1:], f_in[:-1], out=inner[1:])
    inner[1:] *= 0.5
    inner[1:] *= dt
    np.cumsum(inner[1:], out=inner[1:])
    # trapezoid of f_out * inner, the same operations as np.trapezoid
    f_out *= inner
    np.add(f_out[1:], f_out[:-1], out=f_in[1:])
    f_in[1:] *= dt
    f_in[1:] /= 2.0
    return f_in[1:].sum()


@lru_cache(maxsize=32)
def _sigma0_free_total(rabi_coupling: float, delta: float, tau: float,
                       t_final: Optional[float], omega_laser: Optional[float],
                       direction: str, rel_tol: float, n_start: int,
                       n_max: int) -> complex:
    """sum_j w_j times the ordered double integral of path j, with the drive
    strength sigma0 taken out: converged on a doubling grid until it moves
    by less than rel_tol/3 between refinements.

    Keyed on the operating point's sigma0-free fields rather than on a
    TwoPhotonParams copy, whose construction would repeat its warnings.
    """
    weights, d1, d2 = _path_elements(rabi_coupling, delta, omega_laser)
    if direction == "reverse":
        # conjugated hops in the opposite order: emission back down
        d1, d2 = -d2, -d1
    # the window of TwoPhotonParams.t_start and t_end
    t_start = -3.0 * tau
    t_end = 3.0 * tau if t_final is None else t_final

    def env(t):
        t = np.asarray(t, dtype=float)
        out = np.exp(-(t / tau) ** 2)
        return np.where(np.abs(t) <= 3.0 * tau, out, 0.0)

    def evaluate(n):
        # one grid, envelope and workspace for both paths
        t = np.linspace(t_start, t_end, n + 1)
        env_t = env(t)
        work = np.empty((3, n + 1), dtype=complex)
        total = 0.0 + 0.0j
        for w, da, db in zip(weights, d1, d2):
            total += w * _ordered_double_integral(env_t, t, (t_end - t_start) / n,
                                                  da, db, work)
        return total

    n = n_start
    prev = evaluate(n)
    achieved = math.inf
    while True:
        n *= 2
        if n > n_max:
            raise QuadratureError(
                f"amplitude not converged at n = {n // 2} points; last relative "
                f"change {achieved:.3g} > {rel_tol / 3:.3g}")
        cur = evaluate(n)
        achieved = abs(cur - prev) / max(abs(cur), 1e-300)
        if achieved < rel_tol / 3.0:
            return complex(cur)
        prev = cur


def two_photon_amplitude(p: TwoPhotonParams, direction: str = "forward",
                         rel_tol: float = 1e-4, n_start: int = 4096,
                         n_max: int = 2 ** 17) -> complex:
    """Second-order amplitude of the |g,0> -> |V+,1> exchange (or reverse).

    Time-ordered double integral over both intermediate paths on the window
    [-3 tau, t_final], refined on a doubling grid until it moves by less
    than rel_tol/3 between refinements.  The amplitude is exactly
    -sigma0^2 times an integral that does not depend on sigma0, so that
    integral is computed once per operating point (coupling, detuning,
    window, laser and refinement settings) and cached; a call at another
    drive strength only rescales it.
    """
    if direction not in ("forward", "reverse"):
        raise QStateError(f"direction must be forward or reverse, got {direction!r}")
    if p.sigma0 == 0.0:
        return 0.0 + 0.0j
    total = _sigma0_free_total(p.rabi_coupling, p.delta, p.tau, p.t_final,
                               p.omega_laser, direction, rel_tol, n_start, n_max)
    return complex(-(p.sigma0 ** 2) * total)  # (-i)^2 prefactor


def two_photon_probability(p: TwoPhotonParams, direction: str = "forward",
                           rel_tol: float = 1e-4) -> float:
    """|amplitude|^2; values above 1 flag perturbation-theory breakdown."""
    prob = abs(two_photon_amplitude(p, direction=direction, rel_tol=rel_tol)) ** 2
    if prob > 1.0:
        warnings.warn(
            f"perturbative probability {prob:.4g} exceeds 1; "
            "second-order theory has broken down at these parameters", stacklevel=2)
    return float(prob)


def first_order_population(p: TwoPhotonParams, n_grid: int = 8192) -> float:
    """Peak total first-order population of the intermediate pair V+-,0.

    Small values justify treating the pair as virtual.
    """
    if p.sigma0 == 0.0:
        return 0.0
    params = p.jc_params()
    phi0 = mixing_angle(params, 0)
    r0 = float(manifold_splitting(params, 0))
    wl = p.laser_frequency
    m1 = np.array([math.cos(phi0), -math.sin(phi0)])
    d1 = np.array([r0, -r0]) + p.delta / 2.0 - wl
    t = np.linspace(p.t_start, p.t_end, n_grid + 1)
    dt = (p.t_end - p.t_start) / n_grid
    env = np.exp(-(t / p.tau) ** 2) * (np.abs(t) <= 3.0 * p.tau)
    total = np.zeros(n_grid + 1)
    for w, d in zip(m1, d1):
        f = env * np.exp(1j * d * t)
        c = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * dt)))
        total += np.abs(p.sigma0 * w * c) ** 2
    return float(np.max(total))


def two_photon_tdse_oracle(p: TwoPhotonParams, direction: str = "forward",
                           fock_cutoff: int = 4, tol: float = 1e-10) -> float:
    """Exact transition probability from integrating the driven node.

    Full rotating-frame Hamiltonian on the truncated node plus the
    rotating-wave laser drive; measures |<V+,1|psi>|^2 starting from |g,0>
    (or the reverse).  Independent of the perturbative machinery.
    """
    if direction not in ("forward", "reverse"):
        raise QStateError(f"direction must be forward or reverse, got {direction!r}")
    if fock_cutoff < 4:
        raise QStateError("fock_cutoff must be >= 4 to isolate the three levels")
    params = p.jc_params()
    static = jc_rotating(params, fock_cutoff)
    space = jc_space(fock_cutoff)
    # full-sigma0 rotating-wave element needs pulse amplitude 2 sigma0
    pulse = PulseSpec(omega_drive=p.laser_frequency, shape="gaussian",
                      amplitude=2.0 * p.sigma0, width=p.tau, center=0.0)
    pair1 = dressed_pair(params, 1, fock_cutoff)
    g0 = np.zeros(space.dim, dtype=complex)
    g0[space.index({"atom": ATOM_G, "cavity": 0})] = 1.0
    start, target = (g0, pair1.v_plus) if direction == "forward" else (pair1.v_plus, g0)
    final, _info = propagate_basis(static, [Drive(pulse, pulse.omega_drive)],
                                   p.t_start, p.t_end, tol, columns=start)
    return float(abs(np.vdot(target, final)) ** 2)


@dataclass(frozen=True)
class ConventionReport:
    """Measured exchange probabilities under both frequency readings."""

    perturbative: dict
    tdse: dict
    chosen: str
    in_band: bool


def calibrate_convention(band_center: float = 0.47, band_width: float = 0.02,
                         tol: float = 1e-8) -> ConventionReport:
    """Evaluate the operating point under both frequency readings.

    Picks the reading whose perturbative probability lands closest to the
    quoted band and reports whether it actually falls inside.  The outcome
    is frozen in FROZEN_CONVENTION / FROZEN_CALIBRATION; this function
    recomputes it from scratch.
    """
    points = {"angular": SOURCE_POINT_ANGULAR, "cyclic": SOURCE_POINT_CYCLIC}
    pert, exact = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, pt in points.items():
            pert[name] = two_photon_probability(pt)
            exact[name] = two_photon_tdse_oracle(pt, tol=tol)
    chosen = min(pert, key=lambda k: abs(pert[k] - band_center))
    in_band = abs(pert[chosen] - band_center) <= band_width
    return ConventionReport(perturbative=pert, tdse=exact, chosen=chosen,
                            in_band=in_band)
