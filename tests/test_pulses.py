import math
import time

import numpy as np
import pytest
from scipy.integrate import DOP853

from cavitylink import gates, perturb, pulses
from cavitylink.qstate import (CompositeSpace, FactorLabel, Operator,
                               QStateError, make_rng)
from cavitylink.jcmodel import (desk_params, dressed_pair, jc_rotating,
                                jc_space, manifold_splitting,
                                resonant_rabi_evolve)
from cavitylink.gates import GateKind, PhysicalGateConfig
from cavitylink.perturb import (SOURCE_POINT_ANGULAR, SOURCE_POINT_CYCLIC,
                                two_photon_tdse_oracle)
from cavitylink.pulses import (Drive, PulseSpec, StiffnessError, _atom_raise,
                               calibrate_pulse_area, evolve_tdse,
                               propagate_basis)


def test_pulse_spec_validation():
    with pytest.raises(QStateError, match="width"):
        PulseSpec(omega_drive=1.0, amplitude=1.0, width=0.0)
    with pytest.raises(QStateError, match="amplitude"):
        PulseSpec(omega_drive=1.0, amplitude=-1.0, width=1.0)


def test_envelope_windows_and_values():
    shifted = PulseSpec(omega_drive=0.0, amplitude=2.0, width=0.5, center=1.0)
    assert shifted.window == (-0.5, 2.5)
    np.testing.assert_allclose(shifted.envelope([-0.6, 1.0, 1.5, 2.6]),
                               [0.0, 2.0, 2.0 * math.exp(-1.0), 0.0])
    gauss = PulseSpec(omega_drive=0.0, amplitude=1.0, width=2.0)
    assert gauss.window == (-6.0, 6.0)
    np.testing.assert_allclose(gauss.envelope(2.0), math.exp(-1.0))
    assert gauss.envelope(6.5) == 0.0


def test_envelope_area_vs_quadrature():
    gauss = PulseSpec(omega_drive=0.0, amplitude=1.3, width=0.7)
    ts = np.linspace(*gauss.window, 200001)
    numeric = np.trapezoid(gauss.envelope(ts), ts)
    np.testing.assert_allclose(gauss.envelope_area(), numeric, rtol=1e-9)


def test_calibrate_pulse_area():
    base = PulseSpec(omega_drive=5.0, amplitude=1.0, width=2.0)
    cal = calibrate_pulse_area(base, math.pi)
    np.testing.assert_allclose(cal.envelope_area(), math.pi, rtol=1e-14)
    np.testing.assert_allclose(
        cal.amplitude, math.pi / (2.0 * math.sqrt(math.pi) * math.erf(3.0)), rtol=1e-14)


def test_drive_hamiltonian_is_hermitian():
    pulse = PulseSpec(omega_drive=3.0, amplitude=0.5, width=1.0)
    raise_op = _atom_raise(CompositeSpace([FactorLabel("atom", 2)]))
    np.testing.assert_array_equal(raise_op, [[0.0, 0.0], [1.0, 0.0]])
    for rwa in (False, True):
        drive = Drive(pulse, 3.0, None if rwa else 3.0)
        for t in np.linspace(-3, 3, 17):
            # H(t) = z(t) s+ + h.c., as the generator is documented
            h = drive.coefficient(t) * raise_op
            h = h + h.conj().T
            np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
            env = float(pulse.envelope(t))
            want = (0.5 * env * np.exp(-1j * 3.0 * t) if rwa
                    else env * math.cos(3.0 * t))
            np.testing.assert_allclose(h[1, 0], want, atol=1e-15)


def test_cavity_frame_drive_coefficient():
    # rotating at the cavity frequency omega turns a lab carrier omega + c
    # into a slow term at -c plus a counter-rotating term at 2 omega + c
    p = desk_params(1.0, x=0.1)
    carrier = 0.37
    pulse = PulseSpec(omega_drive=p.omega + carrier, amplitude=0.8, width=2.0,
                      center=0.5)
    full = Drive(pulse, carrier, 2.0 * p.omega + carrier)
    rwa = Drive(pulse, carrier)
    for t in np.linspace(-6.0, 7.0, 23):
        half = 0.5 * float(pulse.envelope(t))
        slow = half * np.exp(-1j * carrier * t)
        fast = half * np.exp(1j * (2.0 * p.omega + carrier) * t)
        np.testing.assert_allclose(rwa.coefficient(t), slow, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(full.coefficient(t), slow + fast, rtol=1e-13,
                                   atol=1e-15)
    assert full.coefficient(7.0) == 0.0   # outside the envelope window


def test_drive_needs_leading_atom_factor():
    pulse = PulseSpec(omega_drive=1.0, amplitude=0.3, width=1.0)
    drive = Drive(pulse, pulse.omega_drive)
    spaces = ([FactorLabel("cavity", 3), FactorLabel("atom", 2)],
              [FactorLabel("qubit", 2)],
              [FactorLabel("atom", 4)])
    for factors in spaces:
        space = CompositeSpace(factors)
        static = Operator(space, np.zeros((space.dim, space.dim)), hermitian=True)
        with pytest.raises(QStateError, match="leading 'atom'"):
            propagate_basis(static, [drive], -3.0, 3.0, 1e-10)
        # free evolution has no drive to place
        propagate_basis(static, [], 0.0, 1.0, 1e-10)


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
    # resonant pulse of area pi flips a decoupled atom
    space = CompositeSpace([FactorLabel("atom", 2)])
    static = Operator(space, np.zeros((2, 2)), hermitian=True)
    pulse = calibrate_pulse_area(
        PulseSpec(omega_drive=0.0, amplitude=1.0, width=0.5, center=1.5), math.pi)
    start = space.basis_state({"atom": 0})
    out = evolve_tdse(start, static, [Drive(pulse, pulse.omega_drive)], 0.0, 3.0,
                      1e-10)
    assert abs(out.amplitude({"atom": 1})) ** 2 > 0.999999
    assert abs(out.norm() - 1.0) < 1e-9


def test_rwa_matches_full_model_for_slow_pulse():
    # far-off-resonant counter-rotating term averages out at small amp/omega
    space = CompositeSpace([FactorLabel("atom", 2)])
    omega0 = 60.0
    static = Operator(space, np.diag([0.0, omega0]), hermitian=True)
    envelope = PulseSpec(omega_drive=omega0, amplitude=1.0, width=8.0)
    pulse = calibrate_pulse_area(envelope, math.pi / 2)
    start = space.basis_state({"atom": 0})
    outs = {}
    for rwa in (True, False):
        drive = Drive(pulse, omega0, None if rwa else omega0)
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
        PulseSpec(omega_drive=carrier, amplitude=1.0, width=width), area)
    drive = Drive(pulse, carrier)
    start = space.basis_state({"atom": 0, "cavity": 0})
    t0, t1 = pulse.window
    out = evolve_tdse(start, static, [drive], t0, t1, 1e-10)
    p_plus = abs(np.vdot(pair0.v_plus, out.amplitudes)) ** 2
    assert p_plus > 0.99
    assert abs(out.norm() - 1.0) < 1e-9


def test_propagate_basis_norm_drift_reported():
    p = desk_params(1.0, x=0.1)
    static = jc_rotating(p, 2)
    pulse = PulseSpec(omega_drive=5.0, amplitude=0.3, width=2.0)
    # with and without the rotating-wave approximation the drive must stay
    # Hermitian, or the propagator would not be unitary
    for rwa in (True, False):
        drive = Drive(pulse, 5.0, None if rwa else 5.0)
        cols, info = propagate_basis(static, [drive], -6.0, 6.0, 1e-10)
        assert info["method"] == "magnus6"
        assert info["norm_drift"] < 1e-9
        # columns stay mutually orthogonal (unitarity of the propagator)
        gram = cols.conj().T @ cols
        np.testing.assert_allclose(gram, np.eye(cols.shape[1]), atol=1e-8)


def test_propagate_basis_validation():
    p = desk_params(1.0, x=0.1)
    static = jc_rotating(p, 2)
    with pytest.raises(QStateError, match="t1 > t0"):
        propagate_basis(static, [], 1.0, 1.0, 1e-10)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(QStateError, match="tol"):
            propagate_basis(static, [], 0.0, 1.0, bad)
    with pytest.raises(QStateError, match="column length"):
        propagate_basis(static, [], 0.0, 1.0, 1e-10, columns=np.ones(3))


def test_evolve_tdse_space_mismatch():
    p = desk_params(1.0, x=0.1)
    static = jc_rotating(p, 2)
    other = jc_space(3)
    with pytest.raises(QStateError, match="different spaces"):
        evolve_tdse(other.basis_state({"atom": 0, "cavity": 0}), static, [],
                    0.0, 1.0, 1e-10)


# ---------------------------------------------------------------------------
# the Magnus path


def _frame_generator(carrier, counter):
    """Basis, coefficient and its fastest frequency for the cutoff-2 CNOT node
    in the carrier's frame, under a pi-area gaussian drive; counter None is
    the rotating wave."""
    p = desk_params(1.0, x=0.1)
    static = jc_rotating(p, 2)
    k = -1j * (static.matrix - carrier * np.diag(pulses._excitations(static.space)))
    basis = pulses._magnus_basis(k, -1j * _atom_raise(static.space))
    pulse = calibrate_pulse_area(PulseSpec(omega_drive=carrier, amplitude=1.0,
                                           width=4.0), math.pi)
    if counter is None:
        w = 0.0

        def coefficient(t):
            return 0.5 * pulse.envelope(t)
    else:
        w = carrier + counter

        def coefficient(t):
            return 0.5 * pulse.envelope(t) * (1.0 + np.exp(1j * w * t))
    return basis, coefficient, w, pulse.window


def _check_sixth_order(counter, coarsest, finest_error=1e-10):
    basis, coefficient, w, (t0, t1) = _frame_generator(0.7, counter)
    ref = pulses._magnus_steps(basis, coefficient, w, t0, t1, 64 * coarsest)
    counts = [coarsest * 2 ** k for k in range(4)]
    errors = [np.max(np.abs(pulses._magnus_steps(basis, coefficient, w, t0, t1, n)
                            - ref))
              for n in counts]
    assert errors[-1] < finest_error
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 2.0 ** 5, errors


def test_magnus_step_is_sixth_order():
    # a sign slip in any commutator of the step lowers the order while the
    # result still converges, so check the rate, not one step count
    _check_sixth_order(None, 64)


def test_magnus_step_is_sixth_order_with_counter_rotating_term():
    # at 256 steps a step spans 0.56 rad of the 6 rad/s counter-rotating
    # term; past 2048 steps the errors meet the rounding floor
    _check_sixth_order(5.3, 256)
    # at 16 rad/s the steps span 3 and 1.5 rad over the first doubling: the
    # panel moments and the Bloch-Siegert term keep the rate there
    _check_sixth_order(15.3, 128, finest_error=1e-9)


def test_step_rule_bloch_siegert_term_vanishes_on_a_quadratic():
    # R_poly is R for the quadratic the moments describe, so a quadratic z
    # leaves no Bloch-Siegert term, on any panel count
    rng = make_rng(3)
    for panels in (1, 2, 4):
        rule = pulses._step_rule(panels)
        c = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
        s = rule[0] - 0.5
        z = (c[0] + c[1] * s + c[2] * s * s)[None, :]
        x1, x2, x3, bloch_siegert = pulses._step_scalars(z, 0.7, rule)
        np.testing.assert_allclose(np.ravel([x1, x2, x3]), 0.7 * c.ravel(), atol=1e-14)
        assert abs(bloch_siegert[0]) < 2e-15


def test_full_drive_bloch_siegert_term_at_fixed_steps(monkeypatch):
    # the cutoff-5 CNOT at x = 0.1 under the full drive: at 8192 steps a step
    # spans 1.36 rad of the counter-rotating term.  Without the
    # Bloch-Siegert term the moments are 6.1e-8 off the 16x reference (and
    # three Gauss samples a step 3.1e-8); with it, 9.6e-10
    calls = []
    steps = pulses._magnus_steps

    def spy(*args):
        calls.append(args)
        return steps(*args)

    monkeypatch.setattr(pulses, "_magnus_steps", spy)
    gates._cnot_engine.__wrapped__(desk_params(1.0, x=0.1), FULL)
    basis, coefficient, w, t0, t1, _n = calls[0]
    assert 1.3 < w * (t1 - t0) / 8192 < 1.4
    coarse = steps(basis, coefficient, w, t0, t1, 8192)
    fine = steps(basis, coefficient, w, t0, t1, 16 * 8192)
    assert np.max(np.abs(coarse - fine)) < 2e-9


def test_taylor_exponential_matches_eigh():
    rng = make_rng(5)
    h = rng.normal(size=(7, 12, 12)) + 1j * rng.normal(size=(7, 12, 12))
    h = (h + h.conj().transpose(0, 2, 1)) * np.logspace(-3, 1.5, 7)[:, None, None]
    w, v = np.linalg.eigh(h)
    exact = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    for one, want in zip(h, exact):
        # one matrix at a time, so each is scaled by its own norm
        got = pulses._expm_stack(-1j * one[None])[0]
        assert np.max(np.abs(got - want)) < 1e-13 * max(1.0, np.max(np.abs(one)))


def test_magnus_info_and_frame_checks():
    p = desk_params(1.0, x=0.1)
    static = jc_rotating(p, 2)
    first = PulseSpec(omega_drive=0.4, amplitude=0.3, width=1.0)
    for counter in (None, 40.0):
        u, info = propagate_basis(static, [Drive(first, 0.4, counter)], -3.0, 5.0, 1e-10)
        assert info["method"] == "magnus6"
        # the doubling starts where a step spans at most pi of the
        # counter-rotating phase: 3.8 rad a step at 64 steps, 1.9 at 128
        start = pulses.MAGNUS_FIRST_STEPS * (1 if counter is None else 2)
        assert pulses._first_steps(0.0 if counter is None else 40.4, -3.0, 3.0) == start
        assert info["steps"] >= 2 * start
        assert 0.0 <= info["error_estimate"] < 1e-10
        # ten nodes per panel of every step, over every doubling: one panel a
        # step for the rotating wave, two at 128 full-drive steps (1.9 rad)
        passes = [start << k for k in range((info["steps"] // start).bit_length())]
        w = 0.0 if counter is None else 40.4
        assert info["nfev"] == sum(10 * n * pulses._panels(w, 6.0 / n) for n in passes)
        if counter is None:
            assert info["nfev"] == 10 * (2 * info["steps"] - start)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(static.space.dim), atol=1e-12)
    overlapping = PulseSpec(omega_drive=0.2, amplitude=0.3, width=1.0, center=1.0)
    with pytest.raises(QStateError, match="overlap"):
        propagate_basis(static, [Drive(first, 0.4), Drive(overlapping, 0.2)],
                        -3.0, 5.0, 1e-10)
    # a static term that changes the excitation number has no carrier frame
    leaky = static.matrix.copy()
    leaky[0, 1] = leaky[1, 0] = 0.1
    with pytest.raises(QStateError, match="conserves N"):
        propagate_basis(Operator(static.space, leaky, hermitian=True),
                        [Drive(first, 0.4)], -3.0, 3.0, 1e-10)


def _dop853(static, drives, t0, t1, tol, columns=None):
    """Adaptive DOP853 in the interaction picture of H0 = Q E Q', as an
    independent oracle: the picture change cancels every static phase and
    the right-hand side is just the drives' coefficients on s+ and s-."""
    dim = static.space.dim
    cols = np.eye(dim, dtype=complex) if columns is None else \
        np.asarray(columns, dtype=complex).reshape(dim, -1)
    n_cols = cols.shape[1]
    evals, q = np.linalg.eigh(static.matrix)
    raise_e = q.conj().T @ _atom_raise(static.space) @ q
    m_e, m_h = -1j * raise_e, -1j * raise_e.conj().T
    y0 = np.exp(1j * evals * t0)[:, None] * (q.conj().T @ cols)

    def rhs(t, y):
        ph = np.exp(1j * evals * t)[:, None]
        z = sum(d.coefficient(t) for d in drives)
        h = z * m_e + np.conj(z) * m_h
        return (ph * (h @ (ph.conj() * y.reshape(dim, n_cols)))).ravel()

    solver = DOP853(rhs, float(t0), y0.ravel(), float(t1), rtol=tol, atol=tol * 1e-2)
    while solver.status == "running":
        solver.step()
    assert solver.status == "finished"
    return q @ (np.exp(-1j * evals * t1)[:, None] * solver.y.reshape(dim, n_cols))


RWA = PhysicalGateConfig(rwa=True)
FULL = PhysicalGateConfig(rwa=False)


def _slow_bare_full_drive():
    # a slow pi/2 pulse on a bare atom, counter-rotating term kept
    space = CompositeSpace([FactorLabel("atom", 2)])
    static = Operator(space, np.diag([0.0, 60.0]), hermitian=True)
    pulse = calibrate_pulse_area(PulseSpec(omega_drive=60.0, amplitude=1.0,
                                           width=8.0), math.pi / 2)
    return pulses.propagate_basis(static, [Drive(pulse, 60.0, 60.0)], *pulse.window,
                                  1e-10)


RWA_ENGINES = {
    "cnot-x0.1": lambda: gates._cnot_engine.__wrapped__(desk_params(1.0, x=0.1), RWA),
    "cnot-x0.02": lambda: gates._cnot_engine.__wrapped__(desk_params(1.0, x=0.02), RWA),
    "swap-cyclic": lambda: gates._swap_engine.__wrapped__(SOURCE_POINT_CYCLIC, RWA),
    "dressed-hadamard-x1e-3": lambda: gates._dressed_sector_pulse_engine.__wrapped__(
        GateKind.HADAMARD_ATOM, desk_params(1.0, x=1e-3), RWA),
    "sequential-not": lambda: gates._dressed_sector_pulse_engine.__wrapped__(
        GateKind.NOT_ATOM, desk_params(1.0, x=0.1), RWA),
    **{f"bare-{kind.value}-dim{dim}":
       (lambda kind=kind, dim=dim: gates._bare_atom_pulse_engine.__wrapped__(
           kind, 1.0, dim, 1e-10))
       for kind in (GateKind.HADAMARD_ATOM, GateKind.NOT_ATOM) for dim in (2, 3)},
    "two-photon-angular": lambda: two_photon_tdse_oracle(SOURCE_POINT_ANGULAR),
    "two-photon-cyclic": lambda: two_photon_tdse_oracle(SOURCE_POINT_CYCLIC),
}
FULL_ENGINES = {
    "cnot-x0.1": lambda: gates._cnot_engine.__wrapped__(desk_params(1.0, x=0.1), FULL),
    "cnot-x0.05": lambda: gates._cnot_engine.__wrapped__(desk_params(1.0, x=0.05), FULL),
    "sequential-not": lambda: gates._dressed_sector_pulse_engine.__wrapped__(
        GateKind.NOT_ATOM, desk_params(1.0, x=0.1), FULL),
    "bare-slow": _slow_bare_full_drive,
}


# the step counts each engine ends at, pinned: the rotating-wave counts are
# those of the 3-point Gauss step that the panel moments replaced, and the
# full-drive CNOT needs half or a quarter of its former 32768 and 131072
ENGINE_STEPS = {
    "rwa": {"cnot-x0.1": 1024, "cnot-x0.02": 4096, "swap-cyclic": 2048,
            "dressed-hadamard-x1e-3": 1024, "sequential-not": 2048,
            **{name: 128 for name in RWA_ENGINES if name.startswith("bare-")},
            "two-photon-angular": 256, "two-photon-cyclic": 2048},
    "full": {"cnot-x0.1": 16384, "cnot-x0.05": 32768, "sequential-not": 32768,
             "bare-slow": 4096},
}


def _check_against_dop853(monkeypatch, build):
    calls = []

    def spy(static, drives, t0, t1, tol, columns=None):
        out, info = propagate_basis(static, drives, t0, t1, tol, columns=columns)
        calls.append((static, drives, t0, t1, tol, columns, out, info))
        return out, info

    for module in (gates, perturb, pulses):
        monkeypatch.setattr(module, "propagate_basis", spy)
    build()
    assert len(calls) == 1
    static, drives, t0, t1, tol, columns, out, info = calls[0]
    assert info["method"] == "magnus6"
    assert info["error_estimate"] < tol
    oracle = _dop853(static, drives, t0, t1, tol, columns)
    assert np.max(np.abs(out.reshape(oracle.shape) - oracle)) <= tol
    return drives, info["steps"]


@pytest.mark.parametrize("name", RWA_ENGINES)
def test_rotating_wave_engines_match_dop853(monkeypatch, name):
    _drives, steps = _check_against_dop853(monkeypatch, RWA_ENGINES[name])
    assert steps == ENGINE_STEPS["rwa"][name]


@pytest.mark.parametrize("name", FULL_ENGINES)
def test_full_drive_engines_match_dop853(monkeypatch, name):
    drives, steps = _check_against_dop853(monkeypatch, FULL_ENGINES[name])
    assert all(drive.counter is not None for drive in drives)
    assert steps == ENGINE_STEPS["full"][name]


def test_under_resolved_drive_raises_stiffness(monkeypatch):
    # the CNOT pulse needs about a thousand steps; refuse past 128
    monkeypatch.setattr(pulses, "MAGNUS_MAX_STEPS", 128)
    with pytest.raises(StiffnessError, match="passed 128"):
        gates._cnot_engine.__wrapped__(desk_params(1.0, x=0.1), RWA)


def test_tolerance_below_the_rounding_floor_raises_stiffness():
    # at 1e-16 the RWA CNOT's estimates fall to a few 1e-15 and then rise
    # with rounding; the doubling stops there instead of running to the cap
    tight = PhysicalGateConfig(rwa=True, tol=1e-16)
    start = time.perf_counter()
    with pytest.raises(StiffnessError, match="rounding floor"):
        gates._cnot_engine.__wrapped__(desk_params(1.0, x=0.1), tight)
    assert time.perf_counter() - start < 30.0
    # at the default tol the rule cannot act: the x = 0.02 pulse keeps its
    # step count
    meta = gates._cnot_engine.__wrapped__(desk_params(1.0, x=0.02), RWA)[3]
    assert meta["steps"] == 4096
    assert meta["error_estimate"] < RWA.tol


def test_rising_estimate_above_the_rounding_onset_keeps_doubling(monkeypatch):
    # a strong pulse is under-resolved at first, and its estimate rises
    # from the first doubling to the second; that is not rounding
    passes = []
    steps = pulses._magnus_steps

    def spy(*args):
        passes.append(steps(*args))
        return passes[-1]

    monkeypatch.setattr(pulses, "_magnus_steps", spy)
    static = jc_rotating(desk_params(1.0, x=0.1), 2)
    strong = PulseSpec(omega_drive=0.4, amplitude=1600.0, width=1.0)
    _u, info = propagate_basis(static, [Drive(strong, 0.4)], -3.0, 3.0, 1e-10)
    estimates = [np.max(np.abs(b - a)) / 63.0 for a, b in zip(passes, passes[1:])]
    assert pulses.MAGNUS_ROUNDING_ONSET < estimates[0] < estimates[1]
    assert info["error_estimate"] == estimates[-1] < 1e-10
