"""Tests for the two-node protocol engine, ebit sources and bookkeeping."""

import math
import sys

import numpy as np
import pytest

from cavitylink import (
    GateKind,
    JCParams,
    PhotonGunModel,
    ProtocolError,
    QStateError,
    StateVector,
    TRUE_HADAMARD,
    beam_splitter_mix,
    enumerate_ebit_branches,
    ideal_gate,
    jc_space,
    locality_violations,
    make_rng,
    monte_carlo_gun_fidelity,
    prepare_ebit,
    prepare_register,
    resonant_rabi_evolve,
    run_nonlocal_cnot,
    run_nonlocal_cqpg,
)
from cavitylink import gates, qstate
from cavitylink.gates import HADAMATOM
from cavitylink.protocol import ClassicalChannel
from cavitylink.qstate import CompositeSpace, FactorLabel


def _random_pairs(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    a, b = v[0], v[1]
    c, d = v[2], v[3]
    n1 = math.hypot(abs(a), abs(b))
    n2 = math.hypot(abs(c), abs(d))
    return a / n1, b / n1, c / n2, d / n2


# ---------------------------------------------------------------------------
# ideal level


def test_ideal_cnot_all_branches_exact():
    rng = make_rng(3)
    for _ in range(10):
        a, b, c, d = _random_pairs(rng)
        tr = run_nonlocal_cnot(a, b, c, d, level="ideal")
        labels = sorted(br.label for br in tr.branches)
        assert labels == ["ee", "eg", "ge", "gg"]
        for br in tr.branches:
            np.testing.assert_allclose(br.probability, 0.25, atol=1e-10)
            assert br.fidelity_vs_ideal >= 1.0 - 1e-10
        np.testing.assert_allclose(tr.total_probability(), 1.0, atol=1e-12)


def test_ideal_cqpg_all_branches_exact():
    rng = make_rng(4)
    for _ in range(10):
        a, b, c, d = _random_pairs(rng)
        tr = run_nonlocal_cqpg(a, b, c, d, level="ideal")
        for br in tr.branches:
            np.testing.assert_allclose(br.probability, 0.25, atol=1e-10)
            assert br.fidelity_vs_ideal >= 1.0 - 1e-10


def test_ideal_run_uses_two_classical_bits_per_branch():
    tr = run_nonlocal_cnot(0.6, 0.8, 1.0, 0.0, level="ideal")
    for br in tr.branches:
        assert len(br.bits) == 2
        for sender, recipient, bit, _step in br.bits:
            assert bit in (0, 1)
            assert {sender, recipient} == {"Alice", "Bob"}


def test_ideal_records_stay_local():
    tr = run_nonlocal_cnot(0.6, 0.8, 0.6, 0.8, level="ideal")
    assert locality_violations(tr.records) == []
    tr2 = run_nonlocal_cqpg(level="ideal")
    assert locality_violations(tr2.records) == []


def test_ancilla_entangled_input():
    # cavity A entangled with an external ancilla the protocol never touches
    dim_c = 6
    sp = CompositeSpace([FactorLabel("A", dim_c), FactorLabel("B", dim_c),
                         FactorLabel("anc", 2)])
    v = np.zeros(sp.dim, dtype=complex)
    v[sp.index({"A": 1, "B": 0, "anc": 0})] = 1 / math.sqrt(2)
    v[sp.index({"A": 0, "B": 1, "anc": 1})] = 1 / math.sqrt(2)
    tr = run_nonlocal_cnot(input_state=StateVector(sp, v), level="ideal")
    assert min(br.fidelity_vs_ideal for br in tr.branches) >= 1.0 - 1e-10


def test_sampled_branch_is_deterministic():
    tr1 = run_nonlocal_cnot(0.6, 0.8, 0.6, 0.8, level="ideal",
                            branch_mode="sample", seed=42)
    tr2 = run_nonlocal_cnot(0.6, 0.8, 0.6, 0.8, level="ideal",
                            branch_mode="sample", seed=42)
    assert len(tr1.branches) == 1
    assert tr1.branches[0].label == tr2.branches[0].label
    with pytest.raises(QStateError, match="sample needs a seed"):
        run_nonlocal_cnot(0.6, 0.8, 0.6, 0.8, level="ideal",
                          branch_mode="sample")


# ---------------------------------------------------------------------------
# register preparation and the entangled pair


def test_prepare_register_physical_matches_ideal():
    amps = (0.6, 0.8j, 1 / math.sqrt(2), -1 / math.sqrt(2))
    reg_i = prepare_register(*amps, mode="ideal")
    reg_p = prepare_register(*amps, mode="physical")
    ov = abs(np.vdot(reg_i.amplitudes, reg_p.amplitudes)) ** 2
    np.testing.assert_allclose(ov, 1.0, atol=1e-9)


def test_prepare_register_enforces_pair_norms():
    with pytest.raises(QStateError, match="expected 1"):
        prepare_register(1.0, 1.0, 1.0, 0.0, mode="ideal")


def test_ideal_ebit_is_shared_bell_pair():
    st, flagged = prepare_ebit("ideal")
    assert flagged is False
    np.testing.assert_allclose(st.amplitude({"alpha": 0, "beta": 1}),
                               1 / math.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(st.amplitude({"alpha": 1, "beta": 0}),
                               1 / math.sqrt(2), atol=1e-12)


def test_beam_splitter_balances_a_single_photon():
    sp = CompositeSpace([FactorLabel("p", 3), FactorLabel("q", 3)])
    v = np.zeros(9, dtype=complex)
    v[1 * 3 + 0] = 1.0
    out = beam_splitter_mix(StateVector(sp, v), "p", "q")
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(out.amplitudes[1 * 3 + 0], s, atol=1e-12)
    np.testing.assert_allclose(out.amplitudes[0 * 3 + 1], s, atol=1e-12)


def test_gun_branch_catalog():
    model = PhotonGunModel(p_empty=0.1, p_double=0.05, p_single=0.85)
    branches = {br.label: br for br in enumerate_ebit_branches(model)}
    total = sum(br.probability for br in branches.values())
    np.testing.assert_allclose(total, 1.0, atol=1e-9)

    np.testing.assert_allclose(branches["empty:00"].probability, 0.1,
                               atol=1e-12)
    assert branches["empty:00"].flagged is False

    np.testing.assert_allclose(branches["single:00"].probability, 0.85,
                               atol=1e-12)
    assert branches["single:00"].flagged is False

    # both photons through the same arm: silent failure, atoms end in |e,e>
    dbl = branches["double:00"]
    np.testing.assert_allclose(dbl.probability, 0.025, atol=1e-12)
    assert dbl.flagged is False
    np.testing.assert_allclose(
        abs(dbl.atoms_state.amplitude({"alpha": 1, "beta": 1})), 1.0,
        atol=1e-10)

    # any photon left in a port heralds the failure
    for label in ("double:01", "double:10"):
        np.testing.assert_allclose(branches[label].probability, 0.007914096,
                                   atol=1e-9)
        assert branches[label].flagged is True
    for label in ("double:02", "double:20"):
        np.testing.assert_allclose(branches[label].probability, 0.004585904,
                                   atol=1e-9)
        assert branches[label].flagged is True


def test_gun_model_validation():
    with pytest.raises(QStateError, match="must be in"):
        PhotonGunModel(p_empty=-0.1, p_double=0.0, p_single=1.0)
    with pytest.raises(QStateError, match="sum to"):
        PhotonGunModel(p_empty=0.8, p_double=0.8, p_single=0.8)
    with pytest.raises(QStateError, match="at least one emission"):
        PhotonGunModel(p_empty=0.0, p_double=0.0, p_single=0.0)


def test_monte_carlo_gun_means_decrease_with_imperfection():
    means = []
    for eps in (0.0, 0.05, 0.1, 0.2):
        model = PhotonGunModel(p_empty=eps, p_double=eps / 2,
                               p_single=1 - 1.5 * eps)
        out = monte_carlo_gun_fidelity(model, n_runs=4000, seed=11)
        means.append(out["mean_fidelity"])
        assert out["n_runs"] == 4000
    np.testing.assert_allclose(means[0], 1.0, atol=1e-12)
    np.testing.assert_allclose(means[1], 0.960812, atol=1e-6)
    assert all(m1 >= m2 - 1e-12 for m1, m2 in zip(means, means[1:]))


def test_monte_carlo_is_seed_deterministic():
    model = PhotonGunModel(p_empty=0.1, p_double=0.05, p_single=0.85)
    a = monte_carlo_gun_fidelity(model, n_runs=500, seed=7)
    b = monte_carlo_gun_fidelity(model, n_runs=500, seed=7)
    assert a["mean_fidelity"] == b["mean_fidelity"]
    assert a["counts"] == b["counts"]


# ---------------------------------------------------------------------------
# classical channel


def test_channel_rejects_non_bits():
    ch = ClassicalChannel()
    ch.send("Alice", "Bob", 1, step=4)
    with pytest.raises(ProtocolError, match="single bits"):
        ch.send("Alice", "Bob", 2, step=4)
    assert ch.bits_used == 1


# ---------------------------------------------------------------------------
# algebraic identities behind the protocol


def test_pulse_hadamard_plus_frame_phases_gives_true_hadamard():
    d = np.diag([1j, 1.0])
    np.testing.assert_allclose(d @ HADAMATOM @ d, TRUE_HADAMARD, atol=1e-15)


def test_hadamard_sandwich_turns_cqpg_into_cnot():
    # H_beta CQPG H_beta equals (sigma_z on the cavity) CNOT_cavity_to_atom
    space = jc_space(3)
    h = TRUE_HADAMARD
    full_h = np.kron(h, np.eye(4))
    cq = ideal_gate(GateKind.CQPG_LOCAL, space, "atom", "cavity").matrix
    cn = ideal_gate(GateKind.CNOT_CAVITY_TO_ATOM, space, "atom", "cavity").matrix
    z_cav = ideal_gate(GateKind.SIGMA_Z, space, cavity="cavity").matrix
    np.testing.assert_allclose(full_h @ cq @ full_h, z_cav @ cn, atol=1e-12)


def test_two_pi_rabi_cycle_is_photon_conditioned_sign():
    # the sigma_z primitive: a resonant 2 pi cycle flips only the g1 sign
    params = JCParams(omega0=2.0, omega=2.0, rabi_coupling=1.0)
    space = jc_space(5)
    v = np.zeros(space.dim, dtype=complex)
    v[space.index({"atom": 0, "cavity": 0})] = 0.6
    v[space.index({"atom": 0, "cavity": 1})] = 0.8
    out = resonant_rabi_evolve(params, StateVector(space, v), math.pi)
    np.testing.assert_allclose(out.amplitude({"atom": 0, "cavity": 0}), 0.6,
                               atol=1e-12)
    np.testing.assert_allclose(out.amplitude({"atom": 0, "cavity": 1}), -0.8,
                               atol=1e-12)


# ---------------------------------------------------------------------------
# physical level


def test_physical_cqpg_protocol_beats_098():
    tr = run_nonlocal_cqpg(level="physical")
    assert len(tr.branches) == 4
    np.testing.assert_allclose(tr.total_probability(), 1.0, atol=1e-10)
    mean = tr.mean_fidelity()
    assert mean >= 0.98
    np.testing.assert_allclose(mean, 0.999746095, atol=1e-6)
    assert locality_violations(tr.records) == []


def test_physical_cnot_protocol_reflects_weak_swap():
    tr = run_nonlocal_cnot(level="physical")
    np.testing.assert_allclose(tr.total_probability(), 1.0, atol=1e-10)
    mean = tr.mean_fidelity()
    np.testing.assert_allclose(mean, 0.438856682, atol=1e-6)
    assert locality_violations(tr.records) == []
    for br in tr.branches:
        assert len(br.bits) == 2


def test_physical_trace_reports_stark_switches():
    tr = run_nonlocal_cqpg(level="physical")
    lines = tr.trace_lines()
    assert any("stark" in ln for ln in lines)
    assert all(ln.startswith("[") for ln in lines)


def test_cold_physical_cnot_integrates_the_cnot_pulse_once():
    # step 4 and the step-5 composite share one full-node CNOT propagator
    gates._cnot_engine.cache_clear()
    gates._cnot_atom_to_cavity_engine.cache_clear()
    run_nonlocal_cnot(level="physical")
    info = gates._cnot_engine.cache_info()
    assert info.misses == 1
    assert info.hits >= 1


def _count_embed_calls(monkeypatch) -> list:
    calls = []
    real = qstate.embed

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "cavitylink" or name.startswith("cavitylink.")) and \
                getattr(module, "embed", None) is real:
            monkeypatch.setattr(module, "embed", counting)
    return calls


def test_warm_physical_and_ideal_ancilla_runs_build_no_dense_operators(monkeypatch):
    run_nonlocal_cnot(0.6, 0.8, 1.0, 0.0, level="physical")   # warm the engines
    calls = _count_embed_calls(monkeypatch)
    tr = run_nonlocal_cnot(0.6, 0.8j, 0.28, 0.96, level="physical")
    assert len(tr.branches) == 4
    sp = CompositeSpace([FactorLabel("A", 6), FactorLabel("anc", 2),
                         FactorLabel("B", 6)])
    v = np.zeros(sp.dim, dtype=complex)
    v[sp.index({"A": 1, "anc": 0, "B": 0})] = 1 / math.sqrt(2)
    v[sp.index({"A": 0, "anc": 1, "B": 1})] = 1 / math.sqrt(2)
    tr = run_nonlocal_cqpg(input_state=StateVector(sp, v), level="ideal")
    assert min(br.fidelity_vs_ideal for br in tr.branches) >= 1.0 - 1e-10
    assert calls == []


# ---------------------------------------------------------------------------
# error paths


def test_run_protocol_argument_errors():
    with pytest.raises(QStateError, match="unknown level"):
        run_nonlocal_cnot(level="perfect")
    with pytest.raises(QStateError, match="unknown branch_mode"):
        run_nonlocal_cnot(branch_mode="all")
    with pytest.raises(ProtocolError, match="supported at the ideal level"):
        sp = CompositeSpace([FactorLabel("A", 6), FactorLabel("B", 6)])
        v = np.zeros(36, dtype=complex)
        v[0] = 1.0
        run_nonlocal_cnot(input_state=StateVector(sp, v), level="physical")
    with pytest.raises(QStateError, match="needs a seed"):
        run_nonlocal_cnot(ebit_mode="photon_gun",
                          gun_model=PhotonGunModel(p_single=1.0))
    with pytest.raises(ProtocolError, match="wired for the cnot protocol"):
        run_nonlocal_cqpg(ebit_mode="photon_gun", seed=1,
                          gun_model=PhotonGunModel(p_single=1.0))


def test_input_state_factor_checks():
    sp = CompositeSpace([FactorLabel("A", 6), FactorLabel("C", 6)])
    v = np.zeros(36, dtype=complex)
    v[0] = 1.0
    with pytest.raises(QStateError, match="must contain factor"):
        run_nonlocal_cnot(input_state=StateVector(sp, v), level="ideal")
    sp2 = CompositeSpace([FactorLabel("A", 6), FactorLabel("B", 3)])
    v2 = np.zeros(18, dtype=complex)
    v2[0] = 1.0
    with pytest.raises(QStateError, match="must have dim"):
        run_nonlocal_cnot(input_state=StateVector(sp2, v2), level="ideal")
