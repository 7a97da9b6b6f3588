"""Tests for the two-node protocol engine, ebit sources and bookkeeping."""

import dataclasses
import math
import os
import subprocess
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
    prepare_register,
    resonant_rabi_evolve,
    run_nonlocal_cnot,
    run_nonlocal_cqpg,
)
import cavitylink
from cavitylink import gates, perturb, qstate
from cavitylink.gates import HADAMATOM
from cavitylink import protocol
from cavitylink.protocol import ClassicalChannel, TraceRecord
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


def test_locality_rule_flags_and_refuses_cross_node_operations(monkeypatch):
    def record(node, support):
        return TraceRecord("*", "hand-built", node, "op", "-", "-", support)

    bad = [record("Alice", ("alpha", "B")), record("Bob", ("beta", "p1")),
           record("Source", ("alpha",))]
    good = [record("Alice", ("A", "anc")), record("Source", ("p1", "p2"))]
    assert locality_violations(good + bad) == bad
    # the runner applies the same rule to every step as it runs
    leaky = dataclasses.replace(protocol._STEP4, support=("alpha", "B"))
    monkeypatch.setattr(protocol, "_STEP4", leaky)
    with pytest.raises(ProtocolError, match="exceeds node Alice"):
        run_nonlocal_cnot(level="ideal")


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


# ---------------------------------------------------------------------------
# register preparation and the entangled pair


def test_prepare_register_physical_matches_ideal():
    amps = (0.6, 0.8j, 1 / math.sqrt(2), -1 / math.sqrt(2))
    a, b, c, d = amps
    reg_i = qstate.tensor([protocol._cavity_qubit("A", 6, a, b),
                           protocol._atom_level("alpha", 2, 0),
                           protocol._cavity_qubit("B", 6, c, d),
                           protocol._atom_level("beta", 2, 0)])
    reg_p = prepare_register(*amps)
    assert reg_p.space == reg_i.space
    ov = abs(np.vdot(reg_i.amplitudes, reg_p.amplitudes)) ** 2
    np.testing.assert_allclose(ov, 1.0, atol=1e-9)


def test_prepare_register_enforces_pair_norms():
    with pytest.raises(QStateError, match="expected 1"):
        prepare_register(1.0, 1.0, 1.0, 0.0)


def test_ideal_ebit_is_shared_bell_pair():
    st = protocol._bell_atoms()
    np.testing.assert_allclose(st.amplitude({"alpha": 0, "beta": 1}),
                               1 / math.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(st.amplitude({"alpha": 1, "beta": 0}),
                               1 / math.sqrt(2), atol=1e-12)
    # it is the pair the runner distributes: injecting it changes no branch
    own = run_nonlocal_cnot(0.6, 0.8, 0.6, 0.8)
    injected = run_nonlocal_cnot(0.6, 0.8, 0.6, 0.8, ebit_state=st)
    assert [r.operation for r in own.records if r.step == "ebit"] == \
        ["distribute-bell-pair", "handoff"]
    assert [br.label for br in own.branches] == [br.label for br in injected.branches]
    for mine, theirs in zip(own.branches, injected.branches):
        np.testing.assert_array_equal(mine.final_state.amplitudes,
                                      theirs.final_state.amplitudes)


@pytest.mark.parametrize("runner", [run_nonlocal_cnot, run_nonlocal_cqpg],
                         ids=["cnot", "cqpg"])
def test_ebit_in_either_factor_order_gives_the_same_branches(runner):
    bell = protocol._bell_atoms()
    swapped_space = CompositeSpace([FactorLabel("beta", 2), FactorLabel("alpha", 2)])
    swapped = StateVector(swapped_space, bell.tensor_view().T.reshape(-1))
    assert swapped.amplitude({"alpha": 0, "beta": 1}) == bell.amplitude(
        {"alpha": 0, "beta": 1})
    own = runner(0.6, 0.8, 0.6, 0.8)
    injected = runner(0.6, 0.8, 0.6, 0.8, ebit_state=swapped)
    assert [br.label for br in injected.branches] == [br.label for br in own.branches]
    for mine, theirs in zip(own.branches, injected.branches):
        assert theirs.probability == mine.probability
        assert theirs.fidelity_vs_ideal == mine.fidelity_vs_ideal == 1.0
        assert theirs.final_state.space == mine.final_state.space
        np.testing.assert_array_equal(theirs.final_state.amplitudes,
                                      mine.final_state.amplitudes)


def test_ebit_on_other_factors_or_dims_is_refused():
    three = CompositeSpace([FactorLabel("alpha", 2), FactorLabel("beta", 3)])
    v = np.zeros(6, dtype=complex)
    v[three.index({"alpha": 1, "beta": 0})] = v[three.index({"alpha": 0, "beta": 1})] \
        = 1 / math.sqrt(2)
    no_alpha = CompositeSpace([FactorLabel("atom", 2), FactorLabel("beta", 2)])
    wide_alpha = CompositeSpace([FactorLabel("alpha", 3), FactorLabel("beta", 2)])
    bell = protocol._bell_atoms().amplitudes
    with pytest.raises(QStateError, match=r"beta \(dim <= 2\), got .*beta:3"):
        run_nonlocal_cnot(0.6, 0.8, 0.6, 0.8, ebit_state=StateVector(three, v))
    with pytest.raises(QStateError, match="an ebit needs factors alpha"):
        run_nonlocal_cnot(ebit_state=StateVector(no_alpha, bell))
    with pytest.raises(QStateError, match="alpha:3"):
        run_nonlocal_cqpg(ebit_state=StateVector(wide_alpha, v))
    # a 3-level beta is the controlled-phase gate's own
    trace = run_nonlocal_cqpg(0.6, 0.8, 0.6, 0.8, ebit_state=StateVector(three, v))
    assert min(br.fidelity_vs_ideal for br in trace.branches) == 1.0


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


def test_gun_pairs_enter_the_runner_as_ebit_states():
    # every unflagged photon-gun outcome runs through the one ebit entry,
    # and the outcome-weighted means are the Monte Carlo's per-outcome scores
    model = PhotonGunModel(p_empty=0.1, p_double=0.05, p_single=0.85)
    weights = model.weights
    score = {outcome: 0.0 for outcome in weights}
    for br in enumerate_ebit_branches(model):
        if br.flagged:
            continue
        tr = run_nonlocal_cnot(0.6, 0.8, 0.6, 0.8, ebit_state=br.atoms_state)
        assert [r.operation for r in tr.records if r.step == "ebit"] == ["inject-ebit"]
        np.testing.assert_allclose(tr.total_probability(), 1.0, atol=1e-12)
        assert all(len(b.bits) == 2 for b in tr.branches)
        if br.label == "single:00":
            np.testing.assert_allclose(tr.mean_fidelity(), 1.0, atol=1e-12)
        outcome = br.label.split(":")[0]
        score[outcome] += br.probability / weights[outcome] * tr.mean_fidelity()
    expected = monte_carlo_gun_fidelity(model, n_runs=10, a=0.6, b=0.8, c=0.6,
                                        d=0.8)["per_outcome_score"]
    for outcome in weights:
        np.testing.assert_allclose(score[outcome], expected[outcome], rtol=1e-12)
    np.testing.assert_allclose([score["single"], score["empty"], score["double"]],
                               [1.0, 0.49692672, 0.24846336], atol=1e-8)


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


# (branch, step, node, operation, support) of every physical record: the
# Stark switch before the Hadamard only for a two-level beta, the alpha
# reset only on corrected e branches
PHYSICAL_SKELETON = {
    "cnot": [
        ('*', 'encoding', 'Source', 'logical-encoding', ()),
        ('*', 'register', 'Alice', 'prepare-cavity', ('A', 'alpha')),
        ('*', 'register', 'Bob', 'prepare-cavity', ('B', 'beta')),
        ('*', 'ebit', 'Source', 'distribute-bell-pair', ()),
        ('*', 'ebit', 'Source', 'handoff', ()),
        ('*', 'step4', 'Alice', 'cnot-cavity-to-atom', ('alpha', 'A')),
        ('g?', 'measure-alpha', 'Alice', 'projective-measurement', ('alpha',)),
        ('g?', 'classical', 'Alice', 'send-bit', ()),
        ('g?', 'step5', 'Bob', 'cnot-atom-to-cavity', ('beta', 'B')),
        ('g?', 'step6', 'Bob', 'stark-switch', ('beta', 'B')),
        ('g?', 'step6', 'Bob', 'hadamard', ('beta', 'B')),
        ('gg', 'measure-beta', 'Bob', 'projective-measurement', ('beta',)),
        ('gg', 'classical', 'Bob', 'send-bit', ()),
        ('gg', 'correction', 'Alice', 'stark-switch', ('alpha', 'A')),
        ('gg', 'correction', 'Alice', 'resonant-2pi-cycle', ('alpha', 'A')),
        ('ge', 'measure-beta', 'Bob', 'projective-measurement', ('beta',)),
        ('ge', 'classical', 'Bob', 'send-bit', ()),
        ('e?', 'measure-alpha', 'Alice', 'projective-measurement', ('alpha',)),
        ('e?', 'classical', 'Alice', 'send-bit', ()),
        ('e?', 'conditional-not', 'Bob', 'not-atom', ('beta', 'B')),
        ('e?', 'step5', 'Bob', 'cnot-atom-to-cavity', ('beta', 'B')),
        ('e?', 'step6', 'Bob', 'stark-switch', ('beta', 'B')),
        ('e?', 'step6', 'Bob', 'hadamard', ('beta', 'B')),
        ('eg', 'measure-beta', 'Bob', 'projective-measurement', ('beta',)),
        ('eg', 'classical', 'Bob', 'send-bit', ()),
        ('eg', 'correction', 'Alice', 'not-atom', ('alpha',)),
        ('eg', 'correction', 'Alice', 'stark-switch', ('alpha', 'A')),
        ('eg', 'correction', 'Alice', 'resonant-2pi-cycle', ('alpha', 'A')),
        ('ee', 'measure-beta', 'Bob', 'projective-measurement', ('beta',)),
        ('ee', 'classical', 'Bob', 'send-bit', ()),
    ],
    "cqpg": [
        ('*', 'encoding', 'Source', 'logical-encoding', ()),
        ('*', 'register', 'Alice', 'prepare-cavity', ('A', 'alpha')),
        ('*', 'register', 'Bob', 'prepare-cavity', ('B', 'beta')),
        ('*', 'ebit', 'Source', 'distribute-bell-pair', ()),
        ('*', 'ebit', 'Source', 'handoff', ()),
        ('*', 'step4', 'Alice', 'cnot-cavity-to-atom', ('alpha', 'A')),
        ('g?', 'measure-alpha', 'Alice', 'projective-measurement', ('alpha',)),
        ('g?', 'classical', 'Alice', 'send-bit', ()),
        ('g?', 'step5', 'Bob', 'cqpg-local', ('beta', 'B')),
        ('g?', 'step6', 'Bob', 'hadamard', ('beta',)),
        ('gg', 'measure-beta', 'Bob', 'projective-measurement', ('beta',)),
        ('gg', 'classical', 'Bob', 'send-bit', ()),
        ('ge', 'measure-beta', 'Bob', 'projective-measurement', ('beta',)),
        ('ge', 'classical', 'Bob', 'send-bit', ()),
        ('ge', 'correction', 'Alice', 'stark-switch', ('alpha', 'A')),
        ('ge', 'correction', 'Alice', 'resonant-2pi-cycle', ('alpha', 'A')),
        ('e?', 'measure-alpha', 'Alice', 'projective-measurement', ('alpha',)),
        ('e?', 'classical', 'Alice', 'send-bit', ()),
        ('e?', 'conditional-not', 'Bob', 'not-atom', ('beta',)),
        ('e?', 'step5', 'Bob', 'cqpg-local', ('beta', 'B')),
        ('e?', 'step6', 'Bob', 'hadamard', ('beta',)),
        ('eg', 'measure-beta', 'Bob', 'projective-measurement', ('beta',)),
        ('eg', 'classical', 'Bob', 'send-bit', ()),
        ('ee', 'measure-beta', 'Bob', 'projective-measurement', ('beta',)),
        ('ee', 'classical', 'Bob', 'send-bit', ()),
        ('ee', 'correction', 'Alice', 'not-atom', ('alpha',)),
        ('ee', 'correction', 'Alice', 'stark-switch', ('alpha', 'A')),
        ('ee', 'correction', 'Alice', 'resonant-2pi-cycle', ('alpha', 'A')),
    ],
}


def test_physical_trace_skeleton():
    for gate, runner in (("cnot", run_nonlocal_cnot), ("cqpg", run_nonlocal_cqpg)):
        tr = runner(level="physical")
        got = [(r.branch, r.step, r.node, r.operation, r.support)
               for r in tr.records]
        assert got == PHYSICAL_SKELETON[gate], gate


def test_physical_trace_reports_stark_switches():
    tr = run_nonlocal_cqpg(level="physical")
    lines = tr.trace_lines()
    assert any("stark" in ln for ln in lines)
    assert all(ln.startswith("[") for ln in lines)


def test_cold_physical_cnot_integrates_the_cnot_pulse_once():
    # step 4 and the step-5 composite share one full-node CNOT propagator
    gates._cnot_engine.cache_clear()
    gates._cnot_atom_to_cavity_engine.cache_clear()
    perturb._sigma0_free_total.cache_clear()
    run_nonlocal_cnot(level="physical")
    info = gates._cnot_engine.cache_info()
    assert info.misses == 1
    assert info.hits >= 1
    # and the perturbative swap estimate computes its ordered integral once
    assert perturb._sigma0_free_total.cache_info().misses == 1


def test_import_and_physical_protocol_load_no_ode_integrator():
    # every drive takes the Magnus path, so a fresh interpreter never loads
    # scipy's ODE integrators; scipy itself stays (protocol uses scipy.linalg)
    code = ("import sys, cavitylink\n"
            "from cavitylink.protocol import run_nonlocal_cqpg\n"
            "run_nonlocal_cqpg(level='physical')\n"
            "assert 'scipy' in sys.modules\n"
            "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate loaded'\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(cavitylink.__file__)),
         os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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
    with pytest.raises(ProtocolError, match="supported at the ideal level"):
        sp = CompositeSpace([FactorLabel("A", 6), FactorLabel("B", 6)])
        v = np.zeros(36, dtype=complex)
        v[0] = 1.0
        run_nonlocal_cnot(input_state=StateVector(sp, v), level="physical")


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
