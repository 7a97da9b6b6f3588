import math

import numpy as np
import pytest

from cavitylink.qstate import (CompositeSpace, FactorLabel, Operator,
                               QStateError, StateVector, make_rng)
from cavitylink.jcmodel import (desk_params, dressed_pair, jc_rotating,
                                jc_space, manifold_splitting,
                                resonant_rabi_evolve)
from cavitylink.pulses import (DriveHamiltonian, PulseSpec, StiffnessError,
                               calibrate_pulse_area, drive_hamiltonian_bare,
                               evolve_tdse, propagate_basis)


def test_pulse_spec_validation():
    with pytest.raises(QStateError, match="shape"):
        PulseSpec(omega_drive=1.0, shape="triangle", amplitude=1.0, width=1.0)
    with pytest.raises(QStateError, match="width"):
        PulseSpec(omega_drive=1.0, shape="gaussian", amplitude=1.0, width=0.0)
    with pytest.raises(QStateError, match="amplitude"):
        PulseSpec(omega_drive=1.0, shape="gaussian", amplitude=-1.0, width=1.0)


def test_envelope_windows_and_values():
    rect = PulseSpec(omega_drive=0.0, shape="rectangular", amplitude=2.0, width=4.0,
                     center=1.0)
    assert rect.window == (-1.0, 3.0)
    np.testing.assert_allclose(rect.envelope([-1.5, 0.0, 2.9, 3.1]),
                               [0.0, 2.0, 2.0, 0.0])
    gauss = PulseSpec(omega_drive=0.0, shape="gaussian", amplitude=1.0, width=2.0)
    assert gauss.window == (-6.0, 6.0)
    np.testing.assert_allclose(gauss.envelope(2.0), math.exp(-1.0))
    assert gauss.envelope(6.5) == 0.0


def test_envelope_area_vs_quadrature():
    gauss = PulseSpec(omega_drive=0.0, shape="gaussian", amplitude=1.3, width=0.7)
    ts = np.linspace(*gauss.window, 200001)
    numeric = np.trapezoid(gauss.envelope(ts), ts)
    np.testing.assert_allclose(gauss.envelope_area(), numeric, rtol=1e-9)


def test_calibrate_pulse_area():
    base = PulseSpec(omega_drive=5.0, shape="gaussian", amplitude=1.0, width=2.0)
    cal = calibrate_pulse_area(base, math.pi)
    np.testing.assert_allclose(cal.envelope_area(), math.pi, rtol=1e-14)
    np.testing.assert_allclose(
        cal.amplitude, math.pi / (2.0 * math.sqrt(math.pi) * math.erf(3.0)), rtol=1e-14)
    with pytest.raises(QStateError, match="unreachable"):
        calibrate_pulse_area(base, math.pi, max_amplitude=0.1)


def test_drive_hamiltonian_is_hermitian():
    pulse = PulseSpec(omega_drive=3.0, shape="gaussian", amplitude=0.5, width=1.0)
    for rwa in (False, True):
        drive = drive_hamiltonian_bare(pulse, rwa=rwa)
        for t in np.linspace(-3, 3, 17):
            # H(t) = sum_k z_k(t) M_k + h.c., as the generator is documented
            h = sum(fn(t) * m for m, fn in drive.terms)
            h = h + h.conj().T
            np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
            env = float(pulse.envelope(t))
            want = (0.5 * env * np.exp(-1j * 3.0 * t) if rwa
                    else env * math.cos(3.0 * t))
            np.testing.assert_allclose(h[1, 0], want, atol=1e-15)


def test_free_evolution_is_exact():
    p = desk_params(1.0, x=0.1)
    static = jc_rotating(p, 3)
    rng = make_rng(8)
    v = rng.normal(size=static.space.dim) + 1j * rng.normal(size=static.space.dim)
    v /= np.linalg.norm(v)
    out, info = propagate_basis(static, [], 0.0, 7.3, 1e-10, columns=v)
    assert info["method"] == "exact" and info["norm_drift"] == 0.0
    evals, q = np.linalg.eigh(static.matrix)
    expect = q @ (np.exp(-1j * evals * 7.3) * (q.conj().T @ v))
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_zero_drive_matches_resonant_oracle():
    p = desk_params(1.0, x=0.0)
    static = jc_rotating(p, 2)
    space = jc_space(2)
    start = space.basis_state({"atom": 0, "cavity": 1})
    for t in (0.4, 1.9):
        numeric = evolve_tdse(start, static, [], 0.0, t, 1e-12)
        oracle = resonant_rabi_evolve(p, start, t)
        np.testing.assert_allclose(numeric.amplitudes, oracle.amplitudes, atol=1e-8)


def test_resonant_pi_pulse_inverts_atom():
    # rectangular resonant pulse of area pi flips a decoupled atom
    space = CompositeSpace([FactorLabel("atom", 2)])
    static = Operator(space, np.zeros((2, 2)), hermitian=True)
    pulse = calibrate_pulse_area(
        PulseSpec(omega_drive=0.0, shape="rectangular", amplitude=1.0, width=3.0,
                  center=1.5), math.pi)
    drive = drive_hamiltonian_bare(pulse, rwa=True)
    start = space.basis_state({"atom": 0})
    out = evolve_tdse(start, static, [drive], 0.0, 3.0, 1e-10)
    assert abs(out.amplitude({"atom": 1})) ** 2 > 0.999999
    assert abs(out.norm() - 1.0) < 1e-9


def test_rwa_matches_full_model_for_slow_pulse():
    # far-off-resonant counter-rotating term averages out at small amp/omega
    space = CompositeSpace([FactorLabel("atom", 2)])
    omega0 = 60.0
    static = Operator(space, np.diag([0.0, omega0]), hermitian=True)
    envelope = PulseSpec(omega_drive=omega0, shape="gaussian", amplitude=1.0,
                         width=8.0)
    pulse = calibrate_pulse_area(envelope, math.pi / 2)
    start = space.basis_state({"atom": 0})
    outs = {}
    for rwa in (True, False):
        drive = drive_hamiltonian_bare(pulse, rwa=rwa)
        t0, t1 = pulse.window
        outs[rwa] = evolve_tdse(start, static, [drive], t0, t1, 1e-11)
    p_rwa = abs(outs[True].amplitude({"atom": 1})) ** 2
    p_full = abs(outs[False].amplitude({"atom": 1})) ** 2
    np.testing.assert_allclose(p_rwa, 0.5, atol=1e-6)
    assert abs(p_rwa - p_full) < 1e-3


def test_dressed_inversion_via_jc_drive():
    # gaussian pi pulse at the g0 <-> V+,0 dressed frequency inverts >= 0.99
    p = desk_params(1.0, x=0.1)
    cutoff = 3
    static = jc_rotating(p, cutoff)
    space = jc_space(cutoff)
    pair0 = dressed_pair(p, 0, cutoff)
    e_g0 = -p.delta / 2.0
    carrier = pair0.energy_plus - p.omega - e_g0   # rotating-frame gap g0 -> V+,0
    width = 40.0 / float(manifold_splitting(p, 0))
    area = math.pi / math.cos(pair0.phi)           # transfer element scales by cos(phi)
    pulse = calibrate_pulse_area(
        PulseSpec(omega_drive=carrier, shape="gaussian", amplitude=1.0,
                  width=width), area)
    drive = drive_hamiltonian_bare(pulse, rwa=True)
    start = space.basis_state({"atom": 0, "cavity": 0})
    t0, t1 = pulse.window
    out = evolve_tdse(start, static, [drive], t0, t1, 1e-10)
    p_plus = abs(np.vdot(pair0.v_plus, out.amplitudes)) ** 2
    assert p_plus > 0.99
    assert abs(out.norm() - 1.0) < 1e-9


def test_propagate_basis_norm_drift_reported():
    p = desk_params(1.0, x=0.1)
    static = jc_rotating(p, 2)
    pulse = PulseSpec(omega_drive=5.0, shape="gaussian", amplitude=0.3, width=2.0)
    # with and without the rotating-wave approximation the drive must stay
    # Hermitian, or the propagator would not be unitary
    for rwa in (True, False):
        drive = drive_hamiltonian_bare(pulse, rwa=rwa)
        cols, info = propagate_basis(static, [drive], -6.0, 6.0, 1e-10)
        assert info["method"] == "DOP853"
        assert info["norm_drift"] < 1e-9
        # columns stay mutually orthogonal (unitarity of the propagator)
        gram = cols.conj().T @ cols
        np.testing.assert_allclose(gram, np.eye(cols.shape[1]), atol=1e-8)


def test_propagate_basis_validation():
    p = desk_params(1.0, x=0.1)
    static = jc_rotating(p, 2)
    with pytest.raises(QStateError, match="t1 > t0"):
        propagate_basis(static, [], 1.0, 1.0, 1e-10)
    with pytest.raises(QStateError, match="tol"):
        propagate_basis(static, [], 0.0, 1.0, 0.0)
    with pytest.raises(QStateError, match="column length"):
        propagate_basis(static, [], 0.0, 1.0, 1e-10, columns=np.ones(3))


def test_evolve_tdse_space_mismatch():
    p = desk_params(1.0, x=0.1)
    static = jc_rotating(p, 2)
    other = jc_space(3)
    with pytest.raises(QStateError, match="different spaces"):
        evolve_tdse(other.basis_state({"atom": 0, "cavity": 0}), static, [],
                    0.0, 1.0, 1e-10)
