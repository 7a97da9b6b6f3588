"""Second-order amplitude for the laser-driven two-photon transition
|g,0> <-> |V+,1> of a detuned atom-cavity node.

The laser couples |g,0> to the manifold-0 dressed pair and that pair to
|V+,1>; summing the two paths with their time-ordered double integral gives
the exchange amplitude of the swap primitive, taken on the Magnus step's
Filon panel rule (pulses._step_rule) repeated over the laser window.
Energies are taken in the frame co-rotating at the cavity frequency, where
the three levels sit at -delta/2, +/-R_0 and +R_1, so the resonant laser
frequency is (R_1 + delta/2)/2, half the total two-photon gap.

The source-scale operating point is kept under two frequency readings
(numbers as rad/s, or numbers as cycles/s times 2 pi); see
calibrate_convention for the measured outcome of both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qstate import ATOM_G, QStateError, check_finite
from .jcmodel import (JCParams, desk_node, dressed_pair, jc_rotating,
                      manifold_splitting, mixing_angle)
from .pulses import Drive, PulseSpec, _panels, _step_rule, propagate_basis


# Panel counts double until two totals agree to ORDERED_REL_TOL; a count
# past ORDERED_MAX_PANELS is refused before anything is allocated.
ORDERED_REL_TOL = 1e-10
ORDERED_MAX_PANELS = 2 ** 14
# The TDSE oracle truncates the node at this photon number, enough to
# isolate the three levels |g,0>, V+-,0 and |V+,1>.
ORACLE_FOCK_CUTOFF = 4


class QuadratureError(RuntimeError):
    """The ordered integral needed more than ORDERED_MAX_PANELS panels."""


@dataclass(frozen=True)
class TwoPhotonParams:
    """Operating point of the two-photon exchange.

    rabi_coupling: atom-cavity coupling (rad/s)
    delta: atom-cavity detuning (rad/s), positive dispersive
    tau: gaussian 1/e half-width of the laser envelope (s)
    sigma0: peak atom-laser coupling (rad/s); the rotating-wave drive
        element is sigma0 * exp(-t^2/tau^2) in full

    The laser pulse fires over its window [-3 tau, 3 tau] at half the
    |g,0> -> |V+,1> gap, (R_1 + delta/2) / 2, in the cavity-rotating frame.
    """

    rabi_coupling: float
    delta: float
    tau: float
    sigma0: float

    def __post_init__(self) -> None:
        check_finite(self, ("rabi_coupling", "delta", "tau", "sigma0"), ())
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
    def laser_frequency(self) -> float:
        return _laser_frequency(self.rabi_coupling, self.delta)

    @property
    def pulse(self) -> PulseSpec:
        """The laser pulse, carrier laser_frequency and width tau; its
        amplitude 2 sigma0 makes the rotating-wave element sigma0 in full."""
        return PulseSpec(omega_drive=self.laser_frequency,
                         amplitude=2.0 * self.sigma0, width=self.tau)

    def jc_params(self) -> JCParams:
        return desk_node(self.rabi_coupling, self.delta)


def _laser_frequency(rabi_coupling: float, delta: float) -> float:
    r1 = float(manifold_splitting(desk_node(rabi_coupling, delta), 1))
    return (r1 + delta / 2.0) / 2.0


# Operating point quoted at the source scale, under both frequency readings,
# and the two by the reading's name.
SOURCE_POINT_ANGULAR = TwoPhotonParams(
    rabi_coupling=1e5, delta=1e6, tau=2e-5, sigma0=1e5)
SOURCE_POINT_CYCLIC = TwoPhotonParams(
    rabi_coupling=2.0 * math.pi * 1e5, delta=2.0 * math.pi * 1e6, tau=2e-5,
    sigma0=2.0 * math.pi * 1e5)
SOURCE_POINTS = {"angular": SOURCE_POINT_ANGULAR, "cyclic": SOURCE_POINT_CYCLIC}

# The quoted exchange probability at the operating point, and its band.
BAND_CENTER = 0.47
BAND_WIDTH = 0.02

# Frozen calibration outcome (see calibrate_convention): probability of the
# two-photon exchange at the operating point, perturbative and exact.
FROZEN_CONVENTION = "cyclic"
FROZEN_CALIBRATION = {
    "angular": {"perturbative": 0.009308, "tdse": 0.008153},
    "cyclic": {"perturbative": 0.360455, "tdse": 0.000638},
}


def _path_elements(rabi_coupling: float, delta: float):
    """Hop elements and detunings of the two intermediate paths.

    Returns (hop1, hop2, d1, d2): per path j in (+, -), hop1[j] and hop2[j]
    are the elements of the first and second hop, d1/d2 their
    rotating-frame detunings under the laser of
    TwoPhotonParams.laser_frequency.  None of them depends on the drive
    strength sigma0.
    """
    params = desk_node(rabi_coupling, delta)
    phi0 = mixing_angle(params, 0)
    phi1 = mixing_angle(params, 1)
    r0 = float(manifold_splitting(params, 0))
    r1 = float(manifold_splitting(params, 1))
    wl = _laser_frequency(rabi_coupling, delta)
    # hop 1: <V_j,0| s+ |g,0>; hop 2: <V+,1| s+ |V_j,0>
    hop1 = np.array([math.cos(phi0), -math.sin(phi0)])
    hop2 = np.array([math.sin(phi0) * math.cos(phi1),
                     math.cos(phi0) * math.cos(phi1)])
    e_i, e_f = -delta / 2.0, r1
    e_j = np.array([r0, -r0])
    d1 = e_j - e_i - wl
    d2 = e_f - e_j - wl
    return hop1, hop2, d1, d2


def _path_integrands(envelope: PulseSpec, detunings: np.ndarray,
                     panels: int) -> tuple:
    """env(t) exp(i d t) for each detuning d at the nodes of pulses'
    one-panel rule repeated over `panels` equal panels of the envelope's
    window, shape (len(detunings), panels, FILON_NODES); and the panel width.

    env is the laser envelope per unit amplitude, exp(-t^2/tau^2).
    """
    t_start, t_end = envelope.window
    if panels > ORDERED_MAX_PANELS:
        raise QuadratureError(
            f"{panels} panels on [{t_start:.6g}, {t_end:.6g}] would pass "
            f"ORDERED_MAX_PANELS = {ORDERED_MAX_PANELS}")
    h = (t_end - t_start) / panels
    t = t_start + h * (np.arange(panels)[:, None] + _step_rule(1)[0])
    return envelope.envelope(t) * np.exp(1j * detunings[:, None, None] * t), h


def _running_integral(f: np.ndarray, h: float) -> np.ndarray:
    """The integral of f from the window's start to each node, from f at the
    nodes of _path_integrands (panels of width h on the last two axes).

    Each panel adds its part up to the node, exact for f a degree-9
    polynomial on the panel, to the totals of the panels before it.
    """
    _nodes, moments, cumulative = _step_rule(1)
    weights = moments[:, 0]
    totals = f @ weights
    before = np.zeros_like(totals)
    np.cumsum(totals[..., :-1], axis=-1, out=before[..., 1:])
    return h * ((f @ cumulative.T) / weights + before[..., None])


@lru_cache(maxsize=32)
def _sigma0_free_total(rabi_coupling: float, delta: float, tau: float) -> complex:
    """sum_j hop1_j hop2_j times the ordered double integral of path j, with
    the drive strength sigma0 taken out.

    Each path's integral weights the second hop's integrand by the first
    hop's running integral on the panel rule; the panel count doubles until
    two totals agree to ORDERED_REL_TOL.  Keyed on the operating point's
    sigma0-free fields rather than on a TwoPhotonParams copy, whose
    construction would repeat its warnings.
    """
    hop1, hop2, d1, d2 = _path_elements(rabi_coupling, delta)
    # TwoPhotonParams.pulse per unit amplitude, and the window it fires over
    envelope = PulseSpec(omega_drive=0.0, amplitude=1.0, width=tau)
    t_start, t_end = envelope.window

    def evaluate(panels):
        f, h = _path_integrands(envelope, np.concatenate((d1, d2)), panels)
        f_in, f_out = f[:2], f[2:]
        weights = _step_rule(1)[1][:, 0]
        paths = h * np.sum(f_out * weights * _running_integral(f_in, h),
                           axis=(1, 2))
        return complex((hop1 * hop2) @ paths)

    # one panel per FILON_PANEL_RAD of the fastest path phase to start
    panels = _panels(float(np.max(np.abs((d1, d2)))), t_end - t_start)
    coarse = evaluate(panels)
    while True:
        panels *= 2
        fine = evaluate(panels)
        if abs(fine - coarse) <= ORDERED_REL_TOL * abs(fine):
            return fine
        coarse = fine


def two_photon_amplitude(p: TwoPhotonParams) -> complex:
    """Second-order amplitude of the |g,0> -> |V+,1> exchange.

    Time-ordered double integral over both intermediate paths on the window
    [-3 tau, 3 tau], on the Magnus step's Filon panel rule repeated over
    the window, with panels doubled until two totals agree to
    ORDERED_REL_TOL.  The amplitude is exactly -sigma0^2 times an integral
    that does not depend on sigma0, so that integral is computed once per
    operating point (coupling, detuning and tau) and cached; a call at
    another drive strength only rescales it.
    """
    if p.sigma0 == 0.0:
        return 0.0 + 0.0j
    total = _sigma0_free_total(p.rabi_coupling, p.delta, p.tau)
    return complex(-(p.sigma0 ** 2) * total)  # (-i)^2 prefactor


def two_photon_probability(p: TwoPhotonParams) -> float:
    """|amplitude|^2; values above 1 flag perturbation-theory breakdown."""
    prob = abs(two_photon_amplitude(p)) ** 2
    if prob > 1.0:
        warnings.warn(
            f"perturbative probability {prob:.4g} exceeds 1; "
            "second-order theory has broken down at these parameters", stacklevel=2)
    return float(prob)


def two_photon_tdse_oracle(p: TwoPhotonParams, tol: float = 1e-10) -> float:
    """Exact transition probability from integrating the driven node.

    Full rotating-frame Hamiltonian on the node truncated at
    ORACLE_FOCK_CUTOFF photons plus the rotating-wave laser drive; measures
    |<V+,1|psi>|^2 starting from |g,0>.  Independent of the perturbative
    machinery.
    """
    params = p.jc_params()
    static = jc_rotating(params, ORACLE_FOCK_CUTOFF)
    space = static.space
    pulse = p.pulse
    pair1 = dressed_pair(params, 1, ORACLE_FOCK_CUTOFF)
    g0 = np.zeros(space.dim, dtype=complex)
    g0[space.index({"atom": ATOM_G, "cavity": 0})] = 1.0
    final, _info = propagate_basis(static, [Drive(pulse, pulse.omega_drive)],
                                   *pulse.window, tol, columns=g0)
    return float(abs(np.vdot(pair1.v_plus, final)) ** 2)


@dataclass(frozen=True)
class ConventionReport:
    """Measured exchange probabilities under both frequency readings."""

    perturbative: dict
    tdse: dict
    chosen: str
    in_band: bool


def in_band(p: float) -> bool:
    """Whether an exchange probability lies in the quoted band,
    BAND_CENTER +/- BAND_WIDTH."""
    return abs(p - BAND_CENTER) <= BAND_WIDTH


def convention_probabilities(name: str, tol: float) -> tuple:
    """(perturbative, TDSE) exchange probability of SOURCE_POINTS[name], the
    TDSE at tol; warnings are silenced, since a reading whose second-order
    number breaks down is reported, not refused."""
    point = SOURCE_POINTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return two_photon_probability(point), two_photon_tdse_oracle(point, tol=tol)


def calibrate_convention(tol: float = 1e-8) -> ConventionReport:
    """Evaluate the operating point under both frequency readings.

    Picks the reading whose perturbative probability lands closest to the
    quoted band and reports whether it actually falls inside.  The outcome
    is frozen in FROZEN_CONVENTION / FROZEN_CALIBRATION; this function
    recomputes it from scratch.
    """
    pert, exact = {}, {}
    for name in SOURCE_POINTS:
        pert[name], exact[name] = convention_probabilities(name, tol)
    chosen = min(pert, key=lambda k: abs(pert[k] - BAND_CENTER))
    return ConventionReport(perturbative=pert, tdse=exact, chosen=chosen,
                            in_band=in_band(pert[chosen]))
