"""Tests for ideal gate oracles and the pulsed physical gates."""

import math

import numpy as np
import pytest

from cavitylink import (
    GateKind,
    JCParams,
    PhysicalGateConfig,
    QStateError,
    StateVector,
    ThreeLevelParams,
    TwoPhotonParams,
    averaged_step5_fidelity,
    desk_params,
    fidelity_closed_form,
    ideal_gate,
    jc_space,
    physical_cnot_atom_to_cavity,
    physical_cnot_cavity_to_atom,
    physical_cqpg_local,
    physical_hadamard_atom,
    physical_not_atom,
    physical_swap_two_photon,
    state_fidelity,
)
from cavitylink.gates import HADAMATOM, GateResult, _comp_rows, _phase_fixed, ideal_block
from cavitylink.jcmodel import bare_to_dressed_map, dressed_pair
from cavitylink.perturb import (SOURCE_POINT_ANGULAR, SOURCE_POINT_CYCLIC,
                                _sigma0_free_total, two_photon_probability)
from cavitylink.qstate import CompositeSpace, FactorLabel, make_rng


def _node_state(amps, atom_dim=2, n_ph=6, atom="atom", cavity="cavity"):
    space = CompositeSpace([FactorLabel(atom, atom_dim), FactorLabel(cavity, n_ph)])
    vec = np.zeros(space.dim, dtype=complex)
    for (a, n), c in amps.items():
        vec[a * n_ph + n] = c
    return StateVector(space, vec / np.linalg.norm(vec))


# ---------------------------------------------------------------------------
# closed-form fidelity curve


def test_closed_form_endpoints():
    assert fidelity_closed_form(0.0) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(fidelity_closed_form(0.1), 0.999752449479,
                               rtol=0, atol=1e-11)


def test_closed_form_rejects_negative():
    with pytest.raises(QStateError, match="x must be >= 0"):
        fidelity_closed_form(-0.01)


def test_closed_form_small_x_overshoot_is_tiny():
    # the additive quadratic term pushes F slightly above 1 near x = 0
    vals = [fidelity_closed_form(x) for x in np.linspace(0.0, 0.05, 21)]
    assert max(vals) <= 1.0 + 2e-6
    # large-x tail decreases once past the overshoot
    xs = np.linspace(0.05, 0.3, 26)
    fs = [fidelity_closed_form(x) for x in xs]
    assert all(f2 < f1 + 2e-6 for f1, f2 in zip(fs, fs[1:]))


# ---------------------------------------------------------------------------
# ideal oracles


def _basis(space, a, n, n_ph):
    vec = np.zeros(space.dim, dtype=complex)
    vec[a * n_ph + n] = 1.0
    return StateVector(space, vec)


def test_ideal_cnot_cavity_to_atom_truth_table():
    n_ph = 4
    space = CompositeSpace([FactorLabel("atom", 2), FactorLabel("cavity", n_ph)])
    op = ideal_gate(GateKind.CNOT_CAVITY_TO_ATOM, space, "atom", "cavity")
    u = op.matrix

    def idx(a, n):
        return a * n_ph + n

    # photon 1 flips the atom, photon 0 does nothing
    assert u[idx(1, 1), idx(0, 1)] == 1.0
    assert u[idx(0, 1), idx(1, 1)] == 1.0
    assert u[idx(0, 0), idx(0, 0)] == 1.0
    assert u[idx(1, 0), idx(1, 0)] == 1.0
    # identity off the truth table (photon 2 untouched)
    assert u[idx(0, 2), idx(0, 2)] == 1.0
    np.testing.assert_allclose(u @ u.conj().T, np.eye(space.dim), atol=1e-14)


def test_ideal_cnot_atom_to_cavity_truth_table():
    n_ph = 3
    space = CompositeSpace([FactorLabel("atom", 2), FactorLabel("cavity", n_ph)])
    u = ideal_gate(GateKind.CNOT_ATOM_TO_CAVITY, space, "atom", "cavity").matrix

    def idx(a, n):
        return a * n_ph + n

    # atom g (logical 1) flips photon 0 <-> 1; atom e leaves the field alone
    assert u[idx(0, 1), idx(0, 0)] == 1.0
    assert u[idx(0, 0), idx(0, 1)] == 1.0
    assert u[idx(1, 0), idx(1, 0)] == 1.0
    assert u[idx(1, 1), idx(1, 1)] == 1.0


def test_ideal_swap_and_cqpg():
    n_ph = 3
    space = CompositeSpace([FactorLabel("atom", 2), FactorLabel("cavity", n_ph)])
    u = ideal_gate(GateKind.SWAP_ATOM_CAVITY, space, "atom", "cavity").matrix

    def idx(a, n):
        return a * n_ph + n

    assert u[idx(1, 1), idx(0, 0)] == 1.0
    assert u[idx(0, 0), idx(1, 1)] == 1.0
    assert u[idx(0, 1), idx(0, 1)] == 1.0  # |g,1> is a fixed point
    assert u[idx(1, 0), idx(1, 0)] == 1.0  # |e,0> is a fixed point

    v = ideal_gate(GateKind.CQPG_LOCAL, space, "atom", "cavity").matrix
    assert v[idx(1, 1), idx(1, 1)] == pytest.approx(-1.0)
    assert v[idx(0, 0), idx(0, 0)] == 1.0


@pytest.mark.parametrize("n_ph", [2, 6])
@pytest.mark.parametrize("atom_dim", [2, 3])
def test_ideal_pair_block_is_built_once_and_read_only(atom_dim, n_ph):
    # the (atom, photon) labels each kind exchanges; CQPG puts -1 on |e,1>
    moves = {GateKind.CNOT_CAVITY_TO_ATOM: ((0, 1), (1, 1)),
             GateKind.CNOT_ATOM_TO_CAVITY: ((0, 0), (0, 1)),
             GateKind.SWAP_ATOM_CAVITY: ((0, 0), (1, 1)),
             GateKind.CQPG_LOCAL: None}
    space = CompositeSpace([FactorLabel("atom", atom_dim), FactorLabel("cavity", n_ph)])
    for kind, pair in moves.items():
        fresh = np.eye(atom_dim * n_ph, dtype=complex)
        if pair is None:
            fresh[n_ph + 1, n_ph + 1] = -1.0
        else:
            i, j = (a * n_ph + n for a, n in pair)
            fresh[[i, j]] = fresh[[j, i]]
        block, factors = ideal_block(kind, space, "atom", "cavity")
        assert factors == ("atom", "cavity")
        np.testing.assert_allclose(block, fresh, rtol=0, atol=1e-15)
        assert not block.flags.writeable
        assert ideal_block(kind, space, "atom", "cavity")[0] is block


def test_ideal_single_atom_gates():
    space = CompositeSpace([FactorLabel("atom", 2), FactorLabel("cavity", 3)])
    h = ideal_gate(GateKind.HADAMARD_ATOM, space, "atom").matrix
    # block structure: HADAMATOM on the atom, identity on the field
    sub = h[np.ix_([0, 3], [0, 3])]   # rows (g,0), (e,0)
    np.testing.assert_allclose(sub, HADAMATOM, atol=1e-15)

    x = ideal_gate(GateKind.NOT_ATOM, space, "atom").matrix
    assert x[3, 0] == 1.0 and x[0, 3] == 1.0

    z_atom = ideal_gate(GateKind.SIGMA_Z, space, atom="atom").matrix
    assert z_atom[0, 0] == -1.0       # |g> carries logical 1
    assert z_atom[3, 3] == 1.0
    z_cav = ideal_gate(GateKind.SIGMA_Z, space, cavity="cavity").matrix
    assert z_cav[1, 1] == -1.0        # one photon
    assert z_cav[0, 0] == 1.0 and z_cav[2, 2] == 1.0


def test_ideal_gate_label_errors():
    space = CompositeSpace([FactorLabel("atom", 2), FactorLabel("cavity", 3)])
    with pytest.raises(QStateError, match="needs both atom and cavity labels"):
        ideal_gate(GateKind.CNOT_CAVITY_TO_ATOM, space, atom="atom")
    with pytest.raises(QStateError, match="needs an atom label"):
        ideal_gate(GateKind.HADAMARD_ATOM, space)
    with pytest.raises(QStateError, match="exactly one of atom or cavity"):
        ideal_gate(GateKind.SIGMA_Z, space, atom="atom", cavity="cavity")
    with pytest.raises(QStateError, match="exactly one of atom or cavity"):
        ideal_gate(GateKind.SIGMA_Z, space)
    bad = CompositeSpace([FactorLabel("atom", 4), FactorLabel("cavity", 3)])
    with pytest.raises(QStateError, match="must have dim 2 or 3"):
        ideal_gate(GateKind.CNOT_CAVITY_TO_ATOM, bad, "atom", "cavity")


# ---------------------------------------------------------------------------
# config and result containers


def test_config_and_params_validation():
    with pytest.raises(QStateError, match="fock_cutoff must be >= 2"):
        PhysicalGateConfig(fock_cutoff=1)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(QStateError, match="tol must be > 0"):
            PhysicalGateConfig(tol=bad)
    with pytest.raises(QStateError, match="rabi_coupling must be > 0"):
        ThreeLevelParams(rabi_coupling=0.0)
    with pytest.raises(QStateError, match="use None to suppress"):
        ThreeLevelParams(rabi_coupling=1.0, delta_ge=0.0)


def test_gate_result_fidelity_clamp():
    st = _node_state({(0, 0): 1.0})
    exact = dict(pulse_log=(), duration=0.0, target=st, norm_drift=0.0,
                 correction=None, exchange_probability_tdse=None,
                 error_estimate=0.0, steps=0)
    res = GateResult(output=st, fidelity_vs_ideal=1.0 + 5e-10, **exact)
    assert res.fidelity_vs_ideal == 1.0
    with pytest.raises(QStateError, match="outside"):
        GateResult(output=st, fidelity_vs_ideal=1.1, **exact)


# ---------------------------------------------------------------------------
# pulsed cavity-controls-atom CNOT


RWA_CFG = PhysicalGateConfig(rwa=True)


def _plus_register(n_ph=6):
    # (|0> + |1>)/sqrt(2) photon register with the atom in g
    return _node_state({(0, 0): 1.0, (0, 1): 1.0}, n_ph=n_ph)


def test_cnot_fidelity_at_operating_point():
    params = desk_params(1.0, 0.1)
    res = physical_cnot_cavity_to_atom(_plus_register(), params, RWA_CFG)
    np.testing.assert_allclose(res.fidelity_vs_ideal, 0.999746095045,
                               rtol=0, atol=1e-9)
    assert abs(res.fidelity_vs_ideal - fidelity_closed_form(0.1)) < 0.01
    assert res.norm_drift < 1e-9
    assert set(res.correction) == {"theta", "ramp"}
    assert len(res.correction["theta"]) == 4
    assert len(res.pulse_log) == 1
    assert res.duration > 0


def test_cnot_matches_reference_curve_over_sweep():
    expected = {0.02: 0.999997979186, 0.06: 0.999963696333, 0.1: 0.999746095045}
    worst = 0.0
    for x, f_expect in expected.items():
        res = physical_cnot_cavity_to_atom(_plus_register(),
                                           desk_params(1.0, x), RWA_CFG)
        np.testing.assert_allclose(res.fidelity_vs_ideal, f_expect,
                                   rtol=0, atol=1e-9)
        worst = max(worst, abs(res.fidelity_vs_ideal - fidelity_closed_form(x)))
    assert worst < 0.01   # reference curve tracks the simulation


def test_cnot_rwa_off_agrees_with_rwa_on():
    params = desk_params(1.0, 0.1)
    f_rwa = physical_cnot_cavity_to_atom(
        _plus_register(), params, RWA_CFG).fidelity_vs_ideal
    f_full = physical_cnot_cavity_to_atom(
        _plus_register(), params, PhysicalGateConfig()).fidelity_vs_ideal
    assert abs(f_rwa - f_full) < 1e-5


def test_cnot_leaves_empty_cavity_alone():
    params = desk_params(1.0, 0.1)
    res = physical_cnot_cavity_to_atom(_node_state({(0, 0): 1.0}), params,
                                       RWA_CFG)
    # anchor: zero-photon survival of the selective pulse
    p_g0 = abs(res.output.amplitudes[0]) ** 2
    assert p_g0 > 0.999996


def test_cnot_truncation_converged():
    params = desk_params(1.0, 0.1)
    st5 = _plus_register(n_ph=6)
    st7 = _plus_register(n_ph=8)
    f5 = physical_cnot_cavity_to_atom(st5, params, RWA_CFG).fidelity_vs_ideal
    f7 = physical_cnot_cavity_to_atom(
        st7, params, PhysicalGateConfig(fock_cutoff=7, rwa=True)).fidelity_vs_ideal
    assert abs(f5 - f7) < 1e-8


def test_cnot_parameter_guards():
    st = _plus_register()
    with pytest.raises(QStateError, match="needs delta > 0"):
        physical_cnot_cavity_to_atom(st, JCParams(1.0, 1.0, 0.5), RWA_CFG)
    with pytest.raises(QStateError, match="outside dispersive regime"):
        physical_cnot_cavity_to_atom(st, desk_params(1.0, 0.5), RWA_CFG)
    small = _node_state({(0, 0): 1.0}, n_ph=3)
    with pytest.raises(QStateError, match="fock_cutoff"):
        physical_cnot_cavity_to_atom(small, desk_params(1.0, 0.1), RWA_CFG)


# ---------------------------------------------------------------------------
# two-photon swap and the composite atom-controls-cavity CNOT


def test_swap_zero_drive_is_exact_identity_on_labels():
    p = TwoPhotonParams(rabi_coupling=SOURCE_POINT_CYCLIC.rabi_coupling,
                        delta=SOURCE_POINT_CYCLIC.delta,
                        tau=SOURCE_POINT_CYCLIC.tau, sigma0=0.0)
    st = _node_state({(0, 0): 1.0})
    res = physical_swap_two_photon(st, p)
    # no drive, no exchange: the corrected propagator is the identity and
    # the fidelity against the ideal swap is the |g,0> -> |e,1> miss
    assert res.exchange_probability_tdse == 0.0
    np.testing.assert_allclose(res.fidelity_vs_ideal, 0.0, atol=1e-12)
    st_fixed = _node_state({(0, 1): 1.0})
    res2 = physical_swap_two_photon(st_fixed, p)
    np.testing.assert_allclose(res2.fidelity_vs_ideal, 1.0, atol=1e-10)


def test_swap_source_point_exchange_probability():
    st = _node_state({(0, 0): 1.0})
    res = physical_swap_two_photon(st, SOURCE_POINT_CYCLIC)
    np.testing.assert_allclose(res.exchange_probability_tdse, 6.378623e-04,
                               rtol=1e-4)
    assert set(res.correction) == {"theta"}
    assert res.norm_drift < 1e-9


@pytest.mark.parametrize("point, expected", [
    (SOURCE_POINT_CYCLIC, 0.3604548107200223),
    (SOURCE_POINT_ANGULAR, 0.009308045876454429)], ids=["cyclic", "angular"])
def test_swap_perturbative_estimate_is_the_two_photon_probability(point, expected):
    # full-precision frozen values of the swap's perturbative exchange, read
    # with the sigma0-free integral's cache cold and then warm; the pulsed
    # swap itself never fills that cache
    st = _node_state({(0, 0): 1.0})
    _sigma0_free_total.cache_clear()
    physical_swap_two_photon(st, point)
    assert _sigma0_free_total.cache_info().currsize == 0
    cold = two_photon_probability(point)
    warm = two_photon_probability(point)
    info = _sigma0_free_total.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert cold == warm == expected


def test_swap_needs_deep_ladder():
    # the rule sits in the swap engine, so the composite CNOT that runs the
    # same swap refuses too
    for cutoff in (2, 3):
        st = _node_state({(0, 0): 1.0}, n_ph=cutoff + 1)
        config = PhysicalGateConfig(fock_cutoff=cutoff)
        for gate in (physical_swap_two_photon, physical_cnot_atom_to_cavity):
            with pytest.raises(QStateError, match="fock_cutoff must be >= 4"):
                gate(st, SOURCE_POINT_CYCLIC, config)


def test_averaged_step5_fidelity_frozen():
    mean, per = averaged_step5_fidelity(SOURCE_POINT_CYCLIC, RWA_CFG)
    np.testing.assert_allclose(mean, 0.250449, rtol=0, atol=5e-6)
    assert set(per) == {"0g", "0e", "1g", "1e"}
    # only the 0e label (fixed point of the ideal map) survives the weak swap
    assert per["0e"] > 0.999
    assert per["0g"] < 1e-2 and per["1g"] < 1e-2 and per["1e"] < 1e-2


def test_composite_cnot_reports_swap_bottleneck():
    st = _node_state({(0, 0): 1.0})
    res = physical_cnot_atom_to_cavity(st, SOURCE_POINT_CYCLIC, RWA_CFG)
    np.testing.assert_allclose(res.exchange_probability_tdse, 6.378623e-04,
                               rtol=1e-4)
    assert len(res.pulse_log) == 3   # swap, flip, swap
    assert res.fidelity_vs_ideal < 0.01   # g-control barely moves the photon


# ---------------------------------------------------------------------------
# Hadamard-type and NOT pulses


def test_hadamard_decoupled_is_nearly_exact():
    params = JCParams(omega0=1.0, omega=1.0, rabi_coupling=0.7)
    st = _node_state({(0, 0): 1.0})
    res = physical_hadamard_atom(st, params)
    assert res.fidelity_vs_ideal > 1.0 - 1e-9
    assert res.correction["mode"] == "decoupled"
    assert set(res.correction) == {"theta", "eta", "mode"}


def test_hadamard_dressed_small_x():
    params = desk_params(1.0, 1e-3)
    st = _plus_register()
    res = physical_hadamard_atom(st, params, RWA_CFG, cavity="cavity")
    np.testing.assert_allclose(res.fidelity_vs_ideal, 0.999701486,
                               rtol=0, atol=1e-6)
    assert res.correction["mode"] == "dressed-broadband"


def test_hadamard_twice_is_not():
    params = desk_params(1.0, 1e-3)
    st = _plus_register()
    once = physical_hadamard_atom(st, params, RWA_CFG, cavity="cavity")
    twice = physical_hadamard_atom(once.output, params, RWA_CFG,
                                   cavity="cavity")
    ideal_not = ideal_gate(GateKind.NOT_ATOM, st.space, "atom").apply(st)
    f = state_fidelity(twice.output, ideal_not)
    np.testing.assert_allclose(f, 0.999204127, rtol=0, atol=1e-6)


def test_hadamard_rejects_fast_atom():
    params = desk_params(1.0, 0.1)
    st = _node_state({(0, 0): 1.0})
    with pytest.raises(QStateError, match="too large for the broadband pulse"):
        physical_hadamard_atom(st, params, cavity="cavity")


def test_not_pulse_decoupled_and_dressed():
    params = JCParams(omega0=1.0, omega=1.0, rabi_coupling=0.7)
    st = _node_state({(0, 0): 1.0})
    res = physical_not_atom(st, params)
    assert res.fidelity_vs_ideal > 1.0 - 1e-9
    assert res.correction["mode"] == "decoupled"

    dressed = desk_params(1.0, 0.1)
    sup = _node_state({(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5})
    res2 = physical_not_atom(sup, dressed, RWA_CFG, cavity="cavity")
    np.testing.assert_allclose(res2.fidelity_vs_ideal, 0.9998518,
                               rtol=0, atol=1e-6)
    assert res2.correction["mode"] == "dressed-sequential"
    res3 = physical_not_atom(res2.output, dressed, RWA_CFG, cavity="cavity")
    f_round = state_fidelity(res3.output, sup)
    np.testing.assert_allclose(f_round, 0.9999536, rtol=0, atol=1e-6)


# ---------------------------------------------------------------------------
# local controlled phase through the third level


def test_cqpg_suppressed_gives_exact_minus_one():
    tp = ThreeLevelParams(rabi_coupling=1.0)
    st = _node_state({(1, 1): 1.0}, atom_dim=3)
    res = physical_cqpg_local(st, tp)
    amp = res.output.amplitudes[1 * 6 + 1]
    np.testing.assert_allclose(amp, -1.0, atol=1e-12)
    assert res.fidelity_vs_ideal > 1.0 - 1e-12
    # the defining sign comes from the dynamics, not the phase fix:
    # theta solves only the g rows and e0, and forces th[3] consistent
    th = res.correction["theta"]
    np.testing.assert_allclose(th[3], th[2] + th[1] - th[0], atol=1e-12)
    assert res.correction["mode"] == "resonant e-i cycle"


def test_cqpg_leaves_other_labels_invariant():
    tp = ThreeLevelParams(rabi_coupling=1.0)
    for label in ((0, 0), (0, 1), (1, 0)):
        st = _node_state({label: 1.0}, atom_dim=3)
        res = physical_cqpg_local(st, tp)
        amp = res.output.amplitudes[label[0] * 6 + label[1]]
        np.testing.assert_allclose(amp, 1.0, atol=1e-10)


def test_cqpg_residual_coupling_error_scales_inversely_with_detuning():
    st_e1 = _node_state({(1, 1): 1.0}, atom_dim=3)
    tp100 = ThreeLevelParams(rabi_coupling=1.0, delta_ge=100.0)
    res = physical_cqpg_local(st_e1, tp100)
    amp = res.output.amplitudes[1 * 6 + 1]
    # phase error of the defining sign: leading term pi * coupling / delta_ge
    phase_err = abs(abs(np.angle(amp)) - math.pi)
    np.testing.assert_allclose(phase_err, math.pi / 100.0, rtol=0.25)
    # leakage out of |e,1> is second order and much smaller
    assert 1.0 - abs(amp) ** 2 < 1e-2

    st_g1 = _node_state({(0, 1): 1.0}, atom_dim=3)
    res_g1 = physical_cqpg_local(st_g1, tp100)
    amp_g1 = res_g1.output.amplitudes[0 * 6 + 1]
    assert abs(amp_g1 - 1.0) < 1e-6  # g sector stays put

    tp_far = ThreeLevelParams(rabi_coupling=1.0, delta_ge=1e7)
    res_far = physical_cqpg_local(st_e1, tp_far)
    amp_far = res_far.output.amplitudes[1 * 6 + 1]
    assert abs(amp_far + 1.0) < 1e-6  # sign survives a far-detuned residual


def test_cqpg_requires_three_level_atom():
    tp = ThreeLevelParams(rabi_coupling=1.0)
    st = _node_state({(1, 1): 1.0}, atom_dim=2)
    with pytest.raises(QStateError, match="must be a three-level atom"):
        physical_cqpg_local(st, tp)


# ---------------------------------------------------------------------------
# cross checks against the spectrum module


def test_cnot_on_full_space_matches_span_restricted_path():
    # a state with support outside {0,1} photons forces the full propagator
    params = desk_params(1.0, 0.1)
    st_narrow = _plus_register()
    st_wide = _node_state({(0, 0): 1.0, (0, 1): 1.0, (0, 2): 1e-8})
    f_narrow = physical_cnot_cavity_to_atom(st_narrow, params,
                                            RWA_CFG).fidelity_vs_ideal
    f_wide = physical_cnot_cavity_to_atom(st_wide, params,
                                          RWA_CFG).fidelity_vs_ideal
    assert abs(f_narrow - f_wide) < 1e-6


def test_jc_space_shapes_match_gate_expectations():
    space = jc_space(5)
    assert space.factor("atom").dim == 2
    assert space.factor("cavity").dim == 6


# ---------------------------------------------------------------------------
# integration error on every gate


@pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "full"])
def test_every_physical_gate_reports_an_estimate_below_tol(rwa):
    config = PhysicalGateConfig(rwa=rwa)
    dispersive = desk_params(1.0, 0.1)
    plus = _plus_register()
    results = {
        "cnot": physical_cnot_cavity_to_atom(plus, dispersive, config),
        "swap": physical_swap_two_photon(plus, SOURCE_POINT_CYCLIC, config),
        "composite-cnot": physical_cnot_atom_to_cavity(plus, SOURCE_POINT_CYCLIC,
                                                       config),
        "bare-hadamard": physical_hadamard_atom(plus, dispersive, config),
        "bare-not": physical_not_atom(plus, dispersive, config),
        "dressed-not": physical_not_atom(plus, dispersive, config, cavity="cavity"),
        "cqpg": physical_cqpg_local(_node_state({(1, 1): 1.0}, atom_dim=3),
                                    ThreeLevelParams(rabi_coupling=1.0), config),
    }
    if rwa:
        # with the full drive this pulse needs 262,144 steps (seconds); the
        # full drive's path is already covered by the CNOT and the NOT
        results["dressed-hadamard"] = physical_hadamard_atom(
            plus, desk_params(1.0, 1e-3), config, cavity="cavity")
    for name, res in results.items():
        assert 0.0 <= res.error_estimate < config.tol, (name, res.error_estimate)
        # the controlled phase is free evolution, exact without steps
        assert (res.steps == 0) == (name == "cqpg"), (name, res.steps)


def test_phase_fix_on_bare_labels_matches_the_dressed_frame_formula():
    # the phase fix once made in the dressed frame, written out: exp(i
    # theta) on the logical components of each output column of u, then
    # exp(i eta) on the logical inputs, decoded through the ramp map W
    params, cutoff = desk_params(1.0, x=0.1), 5
    rng = make_rng(15)
    z = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    theta, eta = rng.uniform(-math.pi, math.pi, size=(2, 4))
    pair0, pair1 = dressed_pair(params, 0, cutoff), dressed_pair(params, 1, cutoff)
    logical = np.zeros((12, 4), dtype=complex)
    logical[0, 0] = 1.0   # |g,0>
    logical[:, 1], logical[:, 2], logical[:, 3] = (pair0.v_plus, pair0.v_minus,
                                                   pair1.v_plus)
    post = u + logical @ ((np.exp(1j * theta) - 1.0)[:, None]
                          * (logical.conj().T @ u))
    both = post + ((post @ logical) * (np.exp(1j * eta) - 1.0)[None, :]) \
        @ logical.conj().T
    w = bare_to_dressed_map(params, cutoff).matrix
    rows = _comp_rows(cutoff + 1)
    np.testing.assert_allclose(w[:, rows], logical, rtol=0, atol=1e-15)
    a = w.conj().T @ u @ w
    for eta_in, corrected in ((None, post), (eta, both)):
        action, correction = _phase_fixed(a, rows, theta, eta_in, mode="test")
        np.testing.assert_allclose(action, w.conj().T @ corrected @ w,
                                   rtol=0, atol=1e-14)
        assert not action.flags.writeable
        with pytest.raises(ValueError):
            action[0, 0] = 0.0
        keys = ["theta", "mode"] if eta_in is None else ["theta", "eta", "mode"]
        assert list(correction) == keys
        assert correction["theta"] == tuple(theta)
