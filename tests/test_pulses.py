import cmath
import math
import sys
import threading
import time
import tracemalloc

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
from cavitylink.pulses import (GAUSSIAN_SUPPORT, Drive, PulseSpec,
                               StiffnessError, _atom_raise,
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


def _coefficient(drive, t):
    """z(t) on s+ as Drive documents it, (p(t)/2)(exp(-i carrier t) +
    exp(+i counter t)), the second term only with a counter frequency.

    p is written out here, the amplitude times exp(-((t - center)/width)^2)
    and zero past GAUSSIAN_SUPPORT widths, so the DOP853 oracle shares no
    envelope code with the Magnus path it checks.
    """
    pulse = drive.pulse
    reach = GAUSSIAN_SUPPORT * pulse.width
    if not pulse.center - reach <= t <= pulse.center + reach:
        return 0.0
    arg = (t - pulse.center) / pulse.width
    half = 0.5 * pulse.amplitude * math.exp(-arg * arg)
    z = half * cmath.exp(-1j * (drive.carrier * t))
    if drive.counter is not None:
        z += half * cmath.exp(1j * (drive.counter * t))
    return z


def test_drive_hamiltonian_is_hermitian():
    pulse = PulseSpec(omega_drive=3.0, amplitude=0.5, width=1.0)
    raise_op = _atom_raise(CompositeSpace([FactorLabel("atom", 2)]))
    np.testing.assert_array_equal(raise_op, [[0.0, 0.0], [1.0, 0.0]])
    for rwa in (False, True):
        drive = Drive(pulse, 3.0, None if rwa else 3.0)
        for t in np.linspace(-3, 3, 17):
            # H(t) = z(t) s+ + h.c., as the generator is documented; the
            # element checks hold the oracle's gaussian to PulseSpec.envelope
            h = _coefficient(drive, t) * raise_op
            h = h + h.conj().T
            np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
            env = float(pulse.envelope(t))
            want = (0.5 * env * np.exp(-1j * 3.0 * t) if rwa
                    else env * math.cos(3.0 * t))
            np.testing.assert_allclose(h[1, 0], want, atol=1e-15)


def test_cavity_frame_drive_coefficient():
    # rotating at the cavity frequency omega turns a lab carrier omega + c
    # into a slow term at -c plus a counter-rotating term at 2 omega + c:
    # the s+ coefficient of the lab drive picks up exp(i omega t)
    p = desk_params(1.0, x=0.1)
    carrier = 0.37
    pulse = PulseSpec(omega_drive=p.omega + carrier, amplitude=0.8, width=2.0,
                      center=0.5)
    lab = Drive(pulse, pulse.omega_drive, pulse.omega_drive)
    full = Drive(pulse, carrier, 2.0 * p.omega + carrier)
    rwa = Drive(pulse, carrier)
    for t in np.linspace(-6.0, 7.0, 23):
        half = 0.5 * float(pulse.envelope(t))
        slow = half * np.exp(-1j * carrier * t)
        fast = half * np.exp(1j * (2.0 * p.omega + carrier) * t)
        np.testing.assert_allclose(_coefficient(rwa, t), slow, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(_coefficient(full, t), slow + fast, rtol=1e-13,
                                   atol=1e-15)
        np.testing.assert_allclose(_coefficient(lab, t) * np.exp(1j * p.omega * t),
                                   _coefficient(full, t), rtol=1e-12, atol=1e-15)
    assert _coefficient(full, 7.0) == 0.0   # outside the envelope window


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


def _frame_of(static, drive):
    """pulses._frame for one drive on the static node."""
    return pulses._frame(static.matrix, pulses._excitations(static.space),
                         _atom_raise(static.space), drive)


def _frame_generator(carrier, counter, static=None, pulse=None):
    """The kernel's frame for the static node (default the cutoff-2 CNOT
    node) under the pulse (default a pi-area gaussian of width 4) at the
    carrier, counter None being the rotating wave; and the pulse window."""
    if static is None:
        static = jc_rotating(desk_params(1.0, x=0.1), 2)
    if pulse is None:
        pulse = calibrate_pulse_area(PulseSpec(omega_drive=carrier, amplitude=1.0,
                                               width=4.0), math.pi)
    return _frame_of(static, Drive(pulse, carrier, counter))[0], pulse.window


def _entry_window(gate, *args):
    """The frame of the table entry gate(*args)'s first drive, and the
    record of that drive's window from the entry's propagate_basis call."""
    entry = gate(*args)
    _u, info = propagate_basis(entry.static, entry.drives, *entry.span, entry.tol)
    return _frame_of(entry.static, entry.drives[0])[0], info["windows"][0]


def _check_sixth_order(counter, coarsest, finest_error=1e-10):
    frame, (t0, t1) = _frame_generator(0.7, counter)
    ref = pulses._magnus_steps(frame, t0, t1, 64 * coarsest)
    counts = [coarsest * 2 ** k for k in range(4)]
    errors = [np.max(np.abs(pulses._magnus_steps(frame, t0, t1, n) - ref))
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


def test_full_drive_bloch_siegert_term_at_fixed_steps():
    # the cutoff-5 CNOT at x = 0.1 under the full drive: at 8192 steps a step
    # spans 1.36 rad of the counter-rotating term.  Without the
    # Bloch-Siegert term the moments are 6.1e-8 off the 16x reference (and
    # three Gauss samples a step 3.1e-8); with it, 9.6e-10
    frame, window = _entry_window(gates._cnot_gate, desk_params(1.0, x=0.1), FULL)
    # the window [t0, t1] is time-symmetric, so its passes integrate its
    # half [t_c, t1]: at 8192 window steps a step is (t1 - t_c) / 4096
    assert window.symmetric
    middle, t1, _n = window.passes[0]
    t0 = 2.0 * middle - t1
    assert 1.3 < frame[2] * (t1 - middle) / 4096 < 1.4
    coarse = pulses._magnus_steps(frame, t0, t1, 8192)
    fine = pulses._magnus_steps(frame, t0, t1, 16 * 8192)
    assert np.max(np.abs(coarse - fine)) < 2e-9


def test_taylor_exponential_matches_eigh():
    rng = make_rng(5)
    h = rng.normal(size=(7, 12, 12)) + 1j * rng.normal(size=(7, 12, 12))
    h = (h + h.conj().transpose(0, 2, 1)) * np.logspace(-3, 1.5, 7)[:, None, None]
    w, v = np.linalg.eigh(h)
    exact = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    for one, want in zip(h, exact):
        # one matrix at a time, so each is scaled by its own norm
        got = pulses._expm_stack(-1j * one[None], *pulses._workspace(1, 12))[0]
        assert np.max(np.abs(got - want)) < 1e-13 * max(1.0, np.max(np.abs(one)))


# The block loop as it stood before it wrote into a reused workspace: every
# operation allocates its result.  The workspace kernel must equal it bit for
# bit, since it keeps the arithmetic and its order.
def _reference_time_ordered_product(mats):
    while len(mats) > 1:
        even = len(mats) - len(mats) % 2
        mats = np.concatenate((mats[1:even:2] @ mats[0:even:2], mats[even:]))
    return mats[0]


def _reference_expm_stack(a):
    norm = float(np.max(np.sum(np.abs(a), axis=-2)))
    s = max(0, math.ceil((13.0 * math.log2(norm) - pulses._TAYLOR_LOG2_BUDGET) / 12.0)) \
        if norm > 0 else 0
    dim = a.shape[-1]
    powers = np.empty((3,) + a.shape, dtype=complex)
    np.multiply(a, 0.5 ** s, out=powers[0])
    np.matmul(powers[0], powers[0], out=powers[1])
    np.matmul(powers[1], powers[0], out=powers[2])
    a4 = powers[1] @ powers[1]
    b = (pulses._TAYLOR_BLOCKS[:, 1:] @ powers.reshape(3, -1)).reshape(powers.shape)
    b.reshape(3, -1, dim * dim)[1:, :, ::dim + 1] += pulses._TAYLOR_BLOCKS[1:, :1, None]
    f = b[0] + a4 @ (b[1] + a4 @ (b[2] + pulses._TAYLOR_LAST * a4))
    for _ in range(s):
        f = 2.0 * f + f @ f
    f.reshape(len(f), -1)[:, ::dim + 1] += 1.0
    return f


def _reference_magnus_steps(frame, t0, t1, n):
    def commutator(a, b):
        return a @ b - b @ a

    basis, coefficient, w = frame
    h = (t1 - t0) / n
    dim = math.isqrt(basis.shape[1])
    rule = pulses._step_rule(pulses._panels(w, h))
    u = np.eye(dim, dtype=complex)
    for first in range(0, n, pulses.MAGNUS_BLOCK):
        m = min(pulses.MAGNUS_BLOCK, n - first)
        z = np.asarray(coefficient(t0 + h * (np.arange(first, first + m)[:, None]
                                             + rule[0])))
        x1, x2, x3, bloch_siegert = pulses._step_scalars(z, h, rule)
        coef = np.zeros((5, m, 6), dtype=complex)
        coef[:, :, 0] = np.array([[h], [0.0], [0.0], [-20.0 * h], [h]])
        coef[:, :, 1] = (x1, x2, 2.0 * x3, -20.0 * x1 - x3, x1 + x3 / 12.0)
        coef[:, :, 2] = coef[:, :, 1].conj()
        coef[2:4, :, 3] = h * x2
        coef[2:4, :, 4] = h * x2.conj()
        coef[2:4, :, 5] = x1 * x2.conj() - x1.conj() * x2
        coef[4, :, 5] = bloch_siegert
        a1, a2, d, l, low = (coef.reshape(5 * m, 6) @ basis).reshape(5, m, dim, dim)
        r = a2 - commutator(a1, d) / 60.0
        omega = low + commutator(l, r) / 240.0
        u = _reference_time_ordered_product(_reference_expm_stack(omega)) @ u
    return u


def _node(dim):
    """A bare atom of dim 2 or 3, or the x = 0.1 node at cutoff dim / 2 - 1."""
    if dim in (2, 3):
        space = CompositeSpace([FactorLabel("atom", dim)])
        return Operator(space, np.diag(0.9 * np.arange(dim)), hermitian=True)
    return jc_rotating(desk_params(1.0, x=0.1), dim // 2 - 1)


@pytest.mark.parametrize("counter", [None, 5.3])
@pytest.mark.parametrize("dim", [2, 3, 10, 12])
def test_workspace_kernel_is_bit_identical_to_the_allocating_one(dim, counter):
    # 64, 100 and 128 steps are one partial block, 256 one full block, 320 a
    # full and a partial one and 1024 four; 100 halves to the odd stacks 25,
    # 13 and 7, whose last matrix the product carries over.  The full
    # drive's steps span 3 to 1 panels of its 6 rad/s term
    frame, (t0, t1) = _frame_generator(0.7, counter, _node(dim))
    for n in (64, 100, 128, 256, 320, 1024):
        want = _reference_magnus_steps(frame, t0, t1, n)
        got = pulses._magnus_steps(frame, t0, t1, n)
        assert np.array_equal(got, want), (dim, counter, n)


@pytest.mark.parametrize("counter", [None, 5.3])
def test_a_spectator_factor_adds_no_excitations(counter):
    # a factor neither the atom nor "cavity" is a spectator: the drive on
    # (atom, cavity, spectator) is the node's propagator times the identity
    node = _node(6)
    wide = Operator(CompositeSpace(list(node.space.factors)
                                   + [FactorLabel("spectator", 2)]),
                    np.kron(node.matrix, np.eye(2)), hermitian=True)
    pulse = calibrate_pulse_area(PulseSpec(omega_drive=0.7, amplitude=1.0,
                                           width=4.0), math.pi)
    drive = Drive(pulse, 0.7, counter)
    want, _ = propagate_basis(node, [drive], *pulse.window, 1e-10)
    got, _ = propagate_basis(wide, [drive], *pulse.window, 1e-10)
    np.testing.assert_allclose(got, np.kron(want, np.eye(2)), rtol=0, atol=1e-12)


def test_magnus_blocks_reuse_their_workspace():
    # the cutoff-5 rotating-wave CNOT window, accepted at 1024 steps of dim
    # 12, integrated as its time-symmetric half in 512: a block that
    # allocated its matrix stacks would trace about 10 MB
    frame, window = _entry_window(gates._cnot_gate, desk_params(1.0, x=0.1), RWA)
    bounds = window.passes[-1]
    assert bounds[-1] == 512 and frame[0].shape == (6, 144)
    tracemalloc.start()
    try:
        pulses._magnus_steps(frame, *bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_concurrent_windows_keep_their_own_workspace():
    # two windows of different dims integrated at once on two threads: one
    # shared workspace would mix their blocks
    windows = [_frame_generator(0.7, None, _node(12)),
               _frame_generator(0.7, 5.3, _node(10))]
    args = [(frame, t0, t1, 1024) for frame, (t0, t1) in windows]
    serial = [pulses._magnus_steps(*a) for a in args]
    start = threading.Barrier(len(args), timeout=60)
    results = [[] for _ in args]

    def run(k):
        start.wait()
        for _ in range(3):
            results[k].append(pulses._magnus_steps(*args[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(args))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, got in zip(serial, results):
        assert len(got) == 3
        assert all(np.array_equal(u, want) for u in got)


def test_concurrent_calls_count_their_own_evaluations(monkeypatch):
    # a call whose window integrates while another thread's call runs from
    # start to end reports only its own evaluations: the first window is
    # held, after integrating, until the second call has returned, so one
    # counter shared by the threads would give the first call both counts
    node = _node(6)
    first, second = [Drive(calibrate_pulse_area(PulseSpec(omega_drive=0.4, amplitude=1.0,
                                                           width=width), math.pi), 0.4)
                     for width in (0.8, 1.2)]

    def nfev(drive):
        return propagate_basis(node, [drive], *drive.pulse.window, 1e-10)[1]["nfev"]

    pulses._magnus_window.cache_clear()
    serial = {"first": nfev(first), "second": nfev(second)}
    pulses._magnus_window.cache_clear()
    window, inside, returned = pulses._magnus_window, threading.Event(), threading.Event()

    def held(*args):
        out = window(*args)
        if args[2] == first:
            inside.set()
            returned.wait(timeout=60)
        return out

    monkeypatch.setattr(pulses, "_magnus_window", held)
    counts = {}
    thread = threading.Thread(target=lambda: counts.update(first=nfev(first)))
    thread.start()
    try:
        assert inside.wait(timeout=60)
        counts["second"] = nfev(second)
    finally:
        returned.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert all(count > 0 for count in serial.values())
    assert counts == serial
    # each window is cached now: a call that only reads it made nothing
    assert nfev(first) == nfev(second) == 0


def test_magnus_info_and_frame_checks():
    pulses._magnus_window.cache_clear()
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
        # ten nodes per panel of every step made, over every doubling: one
        # panel a step for the rotating wave, two at 128 full-drive steps
        # (1.9 rad).  The window [-3, 3] is time-symmetric, so a pass of n
        # steps makes the n / 2 on [0, 3]
        passes = [start << k for k in range((info["steps"] // start).bit_length())]
        w = 0.0 if counter is None else 40.4
        assert info["nfev"] == sum(10 * (n // 2) * pulses._panels(w, 6.0 / n)
                                   for n in passes)
        if counter is None:
            assert info["nfev"] == 10 * (info["steps"] - start // 2)
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


def test_info_sums_the_window_records_and_a_warm_call_reads_them_cached():
    # the sequential NOT's two pulses are two windows of one call
    entry = gates._dressed_atom_gate(GateKind.NOT_ATOM, desk_params(1.0, x=0.1), RWA)
    call = (entry.static, entry.drives, *entry.span, entry.tol)
    pulses._magnus_window.cache_clear()
    cold, warm = propagate_basis(*call)[1], propagate_basis(*call)[1]
    for info in (cold, warm):
        first, second = info["windows"]
        assert info["steps"] == first.steps + second.steps
        assert info["nfev"] == first.nfev + second.nfev
        assert info["error_estimate"] == first.error_estimate + second.error_estimate
    assert cold["nfev"] > 0 and not any(w.cached for w in cold["windows"])
    assert warm["nfev"] == 0 and all(w.cached and w.nfev == 0 for w in warm["windows"])
    for made, read in zip(cold["windows"], warm["windows"]):
        assert not read.u.flags.writeable and read.u.tobytes() == made.u.tobytes()
        assert (read.passes, read.steps, read.error_estimate) == \
            (made.passes, made.steps, made.error_estimate)
    assert propagate_basis(entry.static, [], *entry.span, entry.tol)[1]["windows"] == ()


@pytest.mark.parametrize("case", ["cnot-rwa", "cnot-full", "bare-3-level"])
def test_time_symmetric_window_is_its_half_times_its_transpose(case):
    # W W^T from n / 2 steps on [t_c, t1] against the whole window in n
    # steps of the same length, at each window's accepted count: the
    # cutoff-5 CNOT at x = 0.1 (rotating wave, and the full drive at
    # t_c = 0) and a bare three-level atom's pi pulse centred at t_c = 1.5
    if case == "bare-3-level":
        static = _node(3)
        pulse = calibrate_pulse_area(PulseSpec(omega_drive=0.9, amplitude=1.0,
                                               width=0.5, center=1.5), math.pi)
        carrier, counter, n = 0.9, None, 128
    else:
        params = desk_params(1.0, x=0.1)
        static = jc_rotating(params, 5)
        drive = gates._cnot_gate(params, RWA).drives[0]
        pulse, carrier = drive.pulse, drive.carrier
        counter, n = ((None, 1024) if case == "cnot-rwa"
                      else (2.0 * params.omega + carrier, 16384))
    frame, (t0, t1) = _frame_generator(carrier, counter, static, pulse)
    middle = 0.5 * (t0 + t1)
    whole = pulses._magnus_steps(frame, t0, t1, n)
    half = pulses._magnus_steps(frame, middle, t1, n // 2)
    assert np.max(np.abs(half @ half.T - whole)) < 1e-14


def _complex_exchange_node():
    # the cutoff-2 node with its |e,0> <-> |g,1> coupling given a phase: it
    # still conserves N, but h_frame is no longer real
    static = jc_rotating(desk_params(1.0, x=0.1), 2)
    h = static.matrix.copy()
    i = static.space.index({"atom": 1, "cavity": 0})
    j = static.space.index({"atom": 0, "cavity": 1})
    h[i, j] *= np.exp(0.3j)
    h[j, i] = np.conj(h[i, j])
    assert h[i, j].imag != 0
    return Operator(static.space, h, hermitian=True)


def test_planted_asymmetric_windows_take_the_full_path():
    node = jc_rotating(desk_params(1.0, x=0.1), 2)
    centred = PulseSpec(omega_drive=0.4, amplitude=0.3, width=1.0)
    off_centre = PulseSpec(omega_drive=0.4, amplitude=0.3, width=1.0, center=1.0)
    planted = {
        # propagate_basis on [-3, 2] clips the window there, so the centre
        # is off its midpoint
        "clipped": (node, Drive(centred, 0.4), -3.0, 2.0),
        # the full drive's exp(i W t) is even about t_c = 0 only
        "full-drive-off-zero": (node, Drive(off_centre, 0.4, 40.0), -2.0, 4.0),
        "complex-h-frame": (_complex_exchange_node(), Drive(centred, 0.4), -3.0, 3.0),
    }
    # each window is integrated here, so that its record counts evaluations
    pulses._magnus_window.cache_clear()
    for name, (static, drive, t0, t1) in planted.items():
        (window,) = propagate_basis(static, [drive], t0, t1, 1e-10)[1]["windows"]
        passes = window.passes
        assert not window.symmetric, name
        assert [bounds[:2] for bounds in passes] == [(t0, t1)] * len(passes), name
        assert passes[-1][2] == window.steps, name
        w = 0.0 if drive.counter is None else drive.carrier + drive.counter
        assert window.nfev == sum(10 * k * pulses._panels(w, (t1 - t0) / k)
                                  for _t0, _t1, k in passes), name
        # the accepted full pass taken back to the lab frame, as before the
        # symmetric branch: U = exp(-i (c N t1 + shift T)) U' exp(i c N t0)
        frame, shift, _h_frame = _frame_of(static, drive)
        c, n_exc = drive.carrier, pulses._excitations(static.space)
        post = np.exp(-1j * (c * n_exc * t1 + shift * (t1 - t0)))
        full = (post[:, None] * pulses._magnus_steps(frame, *passes[-1])
                * np.exp(1j * c * n_exc * t0))
        assert np.array_equal(window.u, full), name
    # the same drives unclipped and centred at 0 on the real node: every
    # pass integrates [0, 3] in half the window's steps
    for drive in (Drive(centred, 0.4), Drive(centred, 0.4, 40.0)):
        (window,) = propagate_basis(node, [drive], -3.0, 3.0, 1e-10)[1]["windows"]
        assert window.symmetric
        assert [bounds[:2] for bounds in window.passes] == [(0.0, 3.0)] * len(window.passes)
        assert 2 * window.passes[-1][2] == window.steps


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
        z = sum(_coefficient(d, t) for d in drives)
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


def _run_entry(gate, *args):
    """One table entry through the gate engine, past its action cache."""
    return gates._action.__wrapped__(gate, *args)


RWA_ENGINES = {
    "cnot-x0.1": lambda: _run_entry(gates._cnot_gate, desk_params(1.0, x=0.1), RWA),
    "cnot-x0.02": lambda: _run_entry(gates._cnot_gate, desk_params(1.0, x=0.02), RWA),
    "swap-cyclic": lambda: _run_entry(gates._swap_gate, SOURCE_POINT_CYCLIC, RWA),
    "dressed-hadamard-x1e-3": lambda: _run_entry(
        gates._dressed_atom_gate, GateKind.HADAMARD_ATOM, desk_params(1.0, x=1e-3), RWA),
    "sequential-not": lambda: _run_entry(
        gates._dressed_atom_gate, GateKind.NOT_ATOM, desk_params(1.0, x=0.1), RWA),
    **{f"bare-{kind.value}-dim{dim}":
       (lambda kind=kind, dim=dim: _run_entry(gates._bare_atom_gate, kind, 1.0, dim, 1e-10))
       for kind in (GateKind.HADAMARD_ATOM, GateKind.NOT_ATOM) for dim in (2, 3)},
    "two-photon-angular": lambda: two_photon_tdse_oracle(SOURCE_POINT_ANGULAR),
    "two-photon-cyclic": lambda: two_photon_tdse_oracle(SOURCE_POINT_CYCLIC),
}
FULL_ENGINES = {
    "cnot-x0.1": lambda: _run_entry(gates._cnot_gate, desk_params(1.0, x=0.1), FULL),
    "cnot-x0.05": lambda: _run_entry(gates._cnot_gate, desk_params(1.0, x=0.05), FULL),
    "sequential-not": lambda: _run_entry(
        gates._dressed_atom_gate, GateKind.NOT_ATOM, desk_params(1.0, x=0.1), FULL),
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
    pulses._magnus_window.cache_clear()
    with pytest.raises(StiffnessError, match="passed 128"):
        _run_entry(gates._cnot_gate, desk_params(1.0, x=0.1), RWA)


def test_a_non_finite_error_estimate_raises_stiffness_at_once(monkeypatch):
    # a NaN propagator's estimate neither meets tol nor rises past the
    # rounding floor: the doubling stops at its first comparison, two
    # passes, instead of running to MAGNUS_MAX_STEPS
    passes = []

    def nan_steps(frame, t0, t1, n):
        passes.append(n)
        return np.full((2, 2), np.nan, dtype=complex)

    monkeypatch.setattr(pulses, "_magnus_steps", nan_steps)
    space = CompositeSpace([FactorLabel("atom", 2)])
    static = Operator(space, np.zeros((2, 2)), hermitian=True)
    pulse = PulseSpec(omega_drive=0.0, amplitude=0.8, width=0.41, center=1.5)
    with pytest.raises(StiffnessError, match="error estimate nan"):
        propagate_basis(static, [Drive(pulse, 0.0)], 0.0, 3.0, 1e-10)
    assert len(passes) == 2


def test_tolerance_below_the_rounding_floor_raises_stiffness():
    # at 1e-16 the RWA CNOT's estimates fall to a few 1e-15 and then rise
    # with rounding; the doubling stops there instead of running to the cap
    tight = PhysicalGateConfig(rwa=True, tol=1e-16)
    pulses._magnus_window.cache_clear()
    start = time.perf_counter()
    with pytest.raises(StiffnessError, match="rounding floor"):
        _run_entry(gates._cnot_gate, desk_params(1.0, x=0.1), tight)
    assert time.perf_counter() - start < 30.0
    # at the default tol the rule cannot act: the x = 0.02 pulse keeps its
    # step count
    meta = _run_entry(gates._cnot_gate, desk_params(1.0, x=0.02), RWA)[3]
    assert meta["steps"] == 4096
    assert meta["error_estimate"] < RWA.tol


def test_rising_estimate_above_the_rounding_onset_keeps_doubling():
    # a strong pulse is under-resolved at first, and its estimate rises
    # from the first doubling to the second; that is not rounding.  The
    # window is time-symmetric, so each pass is the half W and the
    # doubling compares the assembled W W^T
    static = jc_rotating(desk_params(1.0, x=0.1), 2)
    drive = Drive(PulseSpec(omega_drive=0.4, amplitude=1600.0, width=1.0), 0.4)
    _u, info = propagate_basis(static, [drive], -3.0, 3.0, 1e-10)
    (window,) = info["windows"]
    assert window.symmetric
    frame = _frame_of(static, drive)[0]
    assembled = [p @ p.T for p in (pulses._magnus_steps(frame, *bounds)
                                   for bounds in window.passes)]
    estimates = [np.max(np.abs(b - a)) / 63.0 for a, b in zip(assembled, assembled[1:])]
    assert pulses.MAGNUS_ROUNDING_ONSET < estimates[0] < estimates[1]
    assert info["error_estimate"] == estimates[-1] < 1e-10
