"""Single-node model: one two-level atom coupled to one cavity mode.

All energies are angular frequencies (hbar = 1).  The bare basis is ordered
atom (g=0, e=1) tensor cavity photon number, flat index atom*(N+1) + n for a
cavity kept up to N photons.

The static Hamiltonian is

    H = (omega0/2) sz + omega (a'a + 1/2) + g (a' s- + a s+)

with detuning delta = omega0 - omega.  Within each excitation manifold
{|e,n>, |g,n+1>} the eigenstates are the dressed pair

    |V+,n> =  cos(phi_n) |e,n> + sin(phi_n) |g,n+1>
    |V-,n> = -sin(phi_n) |e,n> + cos(phi_n) |g,n+1>

with tan(2 phi_n) = 2 g sqrt(n+1) / delta and energies
omega (n+1) +/- R_n, where R_n = sqrt((delta/2)^2 + g^2 (n+1)).
The uncoupled ground state |g,0> keeps energy -delta/2.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .qstate import (ATOM_E, ATOM_G, CompositeSpace, FactorLabel, Operator,
                     QStateError, StateVector, apply_local, check_finite)


@dataclass(frozen=True)
class JCParams:
    """Static parameters of one atom-cavity node.

    omega0: atomic transition frequency (Stark-tunable in the protocol)
    omega: cavity mode frequency
    rabi_coupling: vacuum coupling g (half the vacuum Rabi splitting at
        resonance is g, the splitting itself 2g)
    """

    omega0: float
    omega: float
    rabi_coupling: float

    def __post_init__(self) -> None:
        check_finite(self, ("omega0", "omega", "rabi_coupling"), ())
        if self.rabi_coupling <= 0:
            raise QStateError(f"rabi_coupling must be > 0, got {self.rabi_coupling}")
        if self.omega <= 0:
            raise QStateError(f"omega must be > 0, got {self.omega}")

    @property
    def delta(self) -> float:
        """Atom-cavity detuning omega0 - omega (derived, never stored)."""
        return self.omega0 - self.omega


def desk_node(rabi_coupling: float, delta: float) -> JCParams:
    """The node at coupling g and detuning delta at desk scale: the cavity
    at 2 delta (2 g at resonance), small enough for affordable
    non-rotating-wave integrations, and the atom delta above it."""
    omega = 2.0 * (delta if delta > 0 else rabi_coupling)
    return JCParams(omega + delta, omega, rabi_coupling)


def desk_params(omega_rabi: float = 1.0, x: float = 0.1) -> JCParams:
    """Convenient desk-scale parameter set (desk_node) from the ratio
    x = g/delta; x = 0 means exact resonance."""
    if omega_rabi <= 0:
        raise QStateError("omega_rabi must be > 0")
    if x < 0:
        raise QStateError("x must be >= 0")
    return desk_node(omega_rabi, 0.0 if x == 0 else omega_rabi / x)


def set_stark_detuning(params: JCParams, new_omega0: float) -> JCParams:
    """Retune the atomic frequency (a Stark shift), all else unchanged.

    Round-trips exactly: set_stark_detuning(p, p.omega0) == p bit for bit.
    """
    return dataclasses.replace(params, omega0=new_omega0)


def jc_space(fock_cutoff: int) -> CompositeSpace:
    """Atom (dim 2) tensor cavity (photon numbers 0..fock_cutoff)."""
    if fock_cutoff < 2:
        raise QStateError(f"fock_cutoff must be >= 2, got {fock_cutoff}")
    return CompositeSpace([FactorLabel("atom", 2), FactorLabel("cavity", fock_cutoff + 1)])


def _jc_matrix(params: JCParams, fock_cutoff: int, rotating: bool) -> np.ndarray:
    n_ph = fock_cutoff + 1
    dim = 2 * n_ph
    h = np.zeros((dim, dim), dtype=complex)
    g = params.rabi_coupling
    delta = params.delta
    for n in range(n_ph):
        ig = ATOM_G * n_ph + n
        ie = ATOM_E * n_ph + n
        if rotating:
            h[ig, ig] = -delta / 2.0
            h[ie, ie] = +delta / 2.0
        else:
            # zero-point term kept so that E(|g,0>) = -delta/2 exactly
            h[ig, ig] = -params.omega0 / 2.0 + params.omega * (n + 0.5)
            h[ie, ie] = +params.omega0 / 2.0 + params.omega * (n + 0.5)
    for n in range(fock_cutoff):
        ie = ATOM_E * n_ph + n
        ig1 = ATOM_G * n_ph + n + 1
        h[ie, ig1] = g * math.sqrt(n + 1)
        h[ig1, ie] = g * math.sqrt(n + 1)
    return h


def jc_hamiltonian(params: JCParams, fock_cutoff: int) -> Operator:
    """Lab-frame Hamiltonian on the bare basis, zero-point energy included."""
    space = jc_space(fock_cutoff)
    return Operator(space, _jc_matrix(params, fock_cutoff, rotating=False),
                    hermitian=True)


def jc_rotating(params: JCParams, fock_cutoff: int) -> Operator:
    """Frame co-rotating at the cavity frequency for atom and field.

    H_rot = (delta/2) sz + g (a' s- + a s+); eigenvalues are +/- R_n per
    manifold and -delta/2 for |g,0>.
    """
    space = jc_space(fock_cutoff)
    return Operator(space, _jc_matrix(params, fock_cutoff, rotating=True),
                    hermitian=True)


def mixing_angle(params: JCParams, n: int) -> float:
    """Dressing angle phi_n in [0, pi/2); pi/4 at exact resonance."""
    if n < 0:
        raise QStateError(f"manifold index must be >= 0, got {n}")
    g = params.rabi_coupling
    return 0.5 * math.atan2(2.0 * g * math.sqrt(n + 1), params.delta)


def manifold_splitting(params: JCParams, n) -> np.ndarray:
    """R_n = sqrt((delta/2)^2 + g^2 (n+1)), half the dressed splitting."""
    n = np.asarray(n)
    return np.hypot(params.delta / 2.0, params.rabi_coupling * np.sqrt(n + 1.0))


def dressed_energies(params: JCParams, n):
    """Lab-frame dressed energies (E_plus, E_minus) = omega (n+1) +/- R_n."""
    n = np.asarray(n)
    if np.any(n < 0):
        raise QStateError("manifold index must be >= 0")
    r = manifold_splitting(params, n)
    center = params.omega * (n + 1.0)
    return center + r, center - r


@dataclass(frozen=True)
class DressedPair:
    """Eigenpair of one excitation manifold, vectors on the full bare basis."""

    n: int
    phi: float
    v_plus: np.ndarray
    v_minus: np.ndarray
    energy_plus: float
    energy_minus: float


def dressed_pair(params: JCParams, n: int, fock_cutoff: int) -> DressedPair:
    """Dressed eigenvectors of manifold n as full-space amplitude arrays."""
    if n >= fock_cutoff:
        raise QStateError(f"manifold {n} needs photon number {n + 1} > cutoff {fock_cutoff}")
    n_ph = fock_cutoff + 1
    dim = 2 * n_ph
    phi = mixing_angle(params, n)
    ie = ATOM_E * n_ph + n
    ig1 = ATOM_G * n_ph + n + 1
    vp = np.zeros(dim, dtype=complex)
    vm = np.zeros(dim, dtype=complex)
    vp[ie], vp[ig1] = math.cos(phi), math.sin(phi)
    vm[ie], vm[ig1] = -math.sin(phi), math.cos(phi)
    ep, em = dressed_energies(params, n)
    return DressedPair(n=n, phi=phi, v_plus=vp, v_minus=vm,
                       energy_plus=float(ep), energy_minus=float(em))


def bare_to_dressed_map(params: JCParams, fock_cutoff: int) -> Operator:
    """Unitary connecting bare labels to dressed states, column by column.

    Column |e,n> holds |V+,n>, column |g,n+1> holds |V-,n>; |g,0> and the
    top unpaired |e,N> map to themselves.  This is the limit of slowly
    ramping the Stark detuning from far positive down to its working value,
    so preparing |e,n> and ramping lands the system in |V+,n>.
    """
    space = jc_space(fock_cutoff)
    n_ph = fock_cutoff + 1
    u = np.zeros((space.dim, space.dim), dtype=complex)
    u[ATOM_G * n_ph + 0, ATOM_G * n_ph + 0] = 1.0
    u[ATOM_E * n_ph + fock_cutoff, ATOM_E * n_ph + fock_cutoff] = 1.0
    for n in range(fock_cutoff):
        pair = dressed_pair(params, n, fock_cutoff)
        u[:, ATOM_E * n_ph + n] = pair.v_plus
        u[:, ATOM_G * n_ph + n + 1] = pair.v_minus
    return Operator(space, u, unitary=True)


def resonant_rabi_unitary(params: JCParams, fock_cutoff: int, t: float) -> np.ndarray:
    """Rotating-frame propagator at exact resonance, closed form.

    Each manifold rotates by theta_n = g sqrt(n+1) t between |e,n> and
    |g,n+1>; |g,0> and the truncated top |e,N> are left untouched.
    """
    if params.delta != 0.0:
        raise QStateError(
            f"resonant evolution requires delta == 0 exactly, got {params.delta}")
    n_ph = fock_cutoff + 1
    dim = 2 * n_ph
    u = np.eye(dim, dtype=complex)
    for n in range(fock_cutoff):
        th = params.rabi_coupling * math.sqrt(n + 1) * t
        ie = ATOM_E * n_ph + n
        ig1 = ATOM_G * n_ph + n + 1
        c, s = math.cos(th), math.sin(th)
        u[ie, ie] = c
        u[ig1, ig1] = c
        u[ie, ig1] = -1j * s
        u[ig1, ie] = -1j * s
    return u


def resonant_rabi_evolve(params: JCParams, state: StateVector, t: float,
                         atom: str = "atom", cavity: str = "cavity") -> StateVector:
    """Apply the closed-form resonant propagator to the named node factors.

    The state may live on a larger composite; the unitary acts on the
    (atom, cavity) pair and leaves every other factor alone.  Raises unless
    params.delta is exactly zero.
    """
    n_ph = state.space.factor(cavity).dim
    if state.space.factor(atom).dim != 2:
        raise QStateError(f"factor {atom!r} must be a two-level atom")
    return apply_local(state, resonant_rabi_unitary(params, n_ph - 1, t),
                       (atom, cavity))
