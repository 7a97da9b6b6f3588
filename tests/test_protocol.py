"""Tests for the two-node protocol engine, ebit sources and bookkeeping."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from cavitylink import (
    BranchResult,
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
    state_fidelity,
)
import cavitylink
from cavitylink import cli, gates, perturb, pulses, qstate
from cavitylink.gates import HADAMATOM, checked_fidelity
from cavitylink import protocol
from cavitylink.protocol import TraceRecord
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
    # (the branch maps are cached per gate, so the patched step must rebuild)
    leaky = dataclasses.replace(protocol._STEP4, support=("alpha", "B"))
    monkeypatch.setattr(protocol, "_STEP4", leaky)
    protocol._branch_maps.cache_clear()
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
# both levels as per-branch maps, against the step loop run on the input


def _step_loop(gate, cav_state, ref_cav, ebit_state=None, level="ideal",
               config=None):
    """The step table run on the loaded input itself, its targets taken on
    ref_cav: (records, branches, scores), records each (record, slot)."""
    spec = protocol._GATES[gate]
    supplied = ebit_state is not None
    atoms = protocol._ebit_pair(ebit_state if supplied else protocol._bell_atoms(),
                                spec.beta_dim)
    records, leaves, scores = protocol._run_steps(
        spec, protocol._LEVELS[level], config or protocol.ProtocolConfig(), cav_state,
        ref_cav, atoms, supplied)
    branches = [BranchResult(leaf.alpha, leaf.beta, leaf.p_alpha * leaf.p_beta,
                             0.0 if leaf.target is None
                             else state_fidelity(leaf.target, leaf.state),
                             leaf.state, leaf.bits) for leaf in leaves]
    return records, branches, scores


def _cavity(label, one, zero, dim=6):
    """(one |1> + zero |0>) on one cavity factor of dimension dim."""
    v = np.zeros(dim, dtype=complex)
    v[0], v[1] = zero, one
    return StateVector(CompositeSpace([FactorLabel(label, dim)]), v)


def _atom(label):
    """One two-level atom factor in g."""
    return CompositeSpace([FactorLabel(label, 2)]).basis_state({label: 0})


def _register(a, b, c, d, dim=6):
    return qstate.tensor([_cavity("A", a, b, dim), _cavity("B", c, d, dim)])


def _random_input(rng, names, levels, dims=None):
    """A random normalized state with cavities A and B (dim 6) at most at
    the given levels; other factors, of dims[name] (default 2), are free."""
    dims = {"A": 6, "B": 6, **(dims or {})}
    space = CompositeSpace([FactorLabel(n, dims.get(n, 2)) for n in names])
    amps = np.zeros(space.dims, dtype=complex)
    occupied = tuple(slice(0, levels[n] + 1) if n in levels else slice(None)
                     for n in names)
    shape = amps[occupied].shape
    amps[occupied] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return StateVector(space, amps.reshape(-1) / np.linalg.norm(amps))


def _gun_ebits():
    """Every unflagged photon-gun pair, in both factor orders."""
    model = PhotonGunModel(p_empty=0.1, p_double=0.05, p_single=0.85)
    ebits = []
    for br in enumerate_ebit_branches(model):
        if br.flagged:
            continue
        pair = br.atoms_state
        swapped = StateVector(CompositeSpace([FactorLabel("beta", 2),
                                              FactorLabel("alpha", 2)]),
                              pair.tensor_view().T.reshape(-1))
        ebits += [pair, swapped]
    return ebits


def _near_floor_ebit(eps):
    """sqrt(1 - eps^2) |eg> + eps |ge>: on an input with A empty, alpha's
    outcome g has probability eps^2 and each branch under it eps^2 / 2."""
    return StateVector(CompositeSpace([FactorLabel("alpha", 2), FactorLabel("beta", 2)]),
                       np.array([0.0, eps, math.sqrt(1 - eps * eps), 0.0]))


# ebits whose smallest branch lies about four decades below and above
# qstate.BRANCH_FLOOR on the input _NEAR_FLOOR_AMPS
_NEAR_FLOOR_EPS = (1.4e-17, 1.4e-13)
_NEAR_FLOOR_AMPS = (0.0, 1.0, 0.6, 0.8j)


def _oracle_cases():
    rng = make_rng(18)
    cases = [(_random_pairs(rng), None, None) for _ in range(3)]
    for names in (("anc", "A", "B"), ("A", "anc", "B"), ("A", "B", "anc")):
        cases.append((None, _random_input(rng, names, {"A": 1, "B": 1}), None))
    for m in range(2, 6):
        cases.append((None, _random_input(rng, ("A", "B"), {"A": m, "B": 1}), None))
        cases.append((None, _random_input(rng, ("B", "anc", "A"), {"A": 1, "B": m},
                                          {"anc": 3}), None))
    for ebit in _gun_ebits():
        # a photon-number input: an unentangled pair leaves branches at p = 0
        for amps in (_random_pairs(rng), (1.0, 0.0, 0.6, 0.8j), (0.0, 1.0, 1.0, 0.0)):
            cases.append((amps, None, ebit))
        cases.append((None, _random_input(rng, ("A", "anc", "B"),
                                          {"A": 1, "B": 1}), ebit))
    for eps in _NEAR_FLOOR_EPS:
        cases.append((_NEAR_FLOOR_AMPS, None, _near_floor_ebit(eps)))
    return cases


@pytest.mark.parametrize("runner", [run_nonlocal_cnot, run_nonlocal_cqpg],
                         ids=["cnot", "cqpg"])
def test_near_floor_cases_straddle_the_drop_threshold(runner):
    below, above = (runner(*_NEAR_FLOOR_AMPS, ebit_state=_near_floor_ebit(eps))
                    for eps in _NEAR_FLOOR_EPS)
    assert [br.label for br in below.branches] == ["eg", "ee"]
    assert not any(line.startswith("[g") for line in below.trace_lines())
    assert [br.label for br in above.branches] == ["gg", "ge", "eg", "ee"]
    smallest = min(br.probability for br in above.branches)
    assert 1e-27 < smallest < 1e-25


@pytest.mark.parametrize("gate", ["cnot", "cqpg"])
def test_branch_maps_match_the_step_loop_run_on_the_input(gate):
    runner = {"cnot": run_nonlocal_cnot, "cqpg": run_nonlocal_cqpg}[gate]
    cases = _oracle_cases()
    if gate == "cqpg":
        # a pair with weight on beta's level i: its i branches score 0
        leaky = StateVector(CompositeSpace([FactorLabel("alpha", 2), FactorLabel("beta", 3)]),
                            np.array([0.0, 0.6, 0.0, 0.6, 0.0, 0.52915026221291811]))
        cases += [((0.6, 0.8, 0.28, 0.96j), None, leaky),
                  (None, _random_input(make_rng(5), ("A", "anc", "B"), {"A": 2, "B": 1}),
                   leaky)]
    dropped = 0
    for amps, state, ebit in cases:
        if state is None:
            trace = runner(*amps, level="ideal", ebit_state=ebit)
            state = _register(*amps)
        else:
            trace = runner(input_state=state, level="ideal", ebit_state=ebit)
        records, want, _ = _step_loop(gate, state, state, ebit)
        assert trace.trace_lines() == [r.line() for r, _ in records]
        _assert_same_branches(trace.branches, want)
        dropped += sum(br.beta != "i" for br in want) < 4
    assert dropped > 0   # the cases include branches dropped at zero probability


def _assert_same_branches(branches, want):
    assert [br.label for br in branches] == [br.label for br in want]
    for got, ref in zip(branches, want):
        np.testing.assert_allclose(got.probability, ref.probability, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(got.fidelity_vs_ideal, ref.fidelity_vs_ideal,
                                   rtol=0, atol=1e-12)
        assert got.bits == ref.bits
        assert len(got.bits) == (1 if got.beta == "i" else 2)
        assert got.final_state.space == ref.final_state.space
        np.testing.assert_allclose(got.final_state.amplitudes,
                                   ref.final_state.amplitudes, rtol=0, atol=1e-12)


def _loaded(gate, amps, config):
    """The register on (A, B) as the physical nodes load it."""
    dim = config.fock_cutoff + 1
    reg = prepare_register(*amps, fock_cutoff=config.fock_cutoff,
                           params=protocol._GATES[gate].node_params)
    return protocol._reorder_sub(reg, CompositeSpace([FactorLabel("A", dim),
                                                      FactorLabel("B", dim)]))


def _gate_records(records):
    """(record, k) of each gate record k of a list of (record, slot)."""
    return [(r, slot[1]) for r, slot in records if slot and slot[0] == "gate"]


@pytest.mark.parametrize("gate", ["cnot", "cqpg"])
@pytest.mark.parametrize("cutoff", [4, 5, 6])
@pytest.mark.parametrize("tol", [1e-10, 1e-6])
def test_physical_branch_maps_match_the_step_loop_run_on_the_loaded_input(
        gate, cutoff, tol):
    runner = {"cnot": run_nonlocal_cnot, "cqpg": run_nonlocal_cqpg}[gate]
    spec = protocol._GATES[gate]
    config = protocol.ProtocolConfig(fock_cutoff=cutoff, tol=tol)
    rng = make_rng(20)
    tiny = (1e-7, math.sqrt(1 - 1e-14), math.sqrt(1 - 1e-12), 1e-6)
    inputs = [_random_pairs(rng) for _ in range(2)] + [(1, 0, 1, 0), (0, 1, 0, 1),
                                                       (1, 0, 0, 1), tiny]
    for a, b, c, d in inputs:
        v = np.outer([b, a], [d, c]).reshape(-1)   # the input on levels <= 1
        for ebit in [None] + _gun_ebits():
            trace = runner(a, b, c, d, level="physical", ebit_state=ebit, config=config)
            records, want, scores = _step_loop(
                gate, _loaded(gate, (a, b, c, d), config),
                _register(a, b, c, d, cutoff + 1), ebit, "physical", config)
            # the same records, every p= and fidelity= as printed
            assert trace.trace_lines() == [r.line() for r, _ in records]
            _assert_same_branches(trace.branches, want)
            # and each gate record's fidelity before it is rounded
            supplied = ebit is not None
            atoms = protocol._ebit_pair(ebit if supplied else protocol._bell_atoms(),
                                        spec.beta_dim)
            maps = protocol._branch_maps(gate, "physical", config, 1,
                                         atoms.amplitudes.tobytes(), supplied)
            fids = protocol._gate_fidelities(maps.scored, v)
            scored = {(r.branch, r.step, r.operation): fids[k]
                      for r, k in _gate_records(maps.records)}
            assert scores
            for r, k in _gate_records(records):
                np.testing.assert_allclose(
                    checked_fidelity(scored[r.branch, r.step, r.operation]),
                    scores[k].result.fidelity_vs_ideal, rtol=0, atol=1e-12)


def _unitary(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]


def test_gate_fidelities_keep_the_step_loops_precision_on_a_rare_branch():
    # a gate met with probability 1e-14: its pre-state columns S are O(1), and
    # S v has norm 1e-7 only through cancellation.  The loop scores the
    # normalized state, which errs by about 1e-16 / 1e-7; a ratio of 4 x 4
    # quadratic forms errs by about 1e-16 / 1e-14 and misses this by 1e-3.
    # The kept R of the columns' QR rounds as the state does
    rng = make_rng(22)
    q = _unitary(rng, 12)[:, :4]
    w = _unitary(rng, 4)
    s = q @ np.diag([1.0, 1.0, 1.0, 1e-7]) @ w.conj().T
    ideal = _unitary(rng, 12)
    h = rng.normal(size=(12, 12))
    energies, basis = np.linalg.eigh(h + h.T)
    action = ideal @ basis @ np.diag(np.exp(0.3j * energies)) @ basis.conj().T
    pre = q[:, 3]   # S w_3 / |S w_3|, free of the cancellation
    want = abs(np.vdot(ideal @ pre, action @ pre)) ** 2
    scored = protocol._gate_columns(s, ideal @ s, action @ s)
    got = protocol._gate_fidelities(scored[None], w[:, 3])
    np.testing.assert_allclose(got, [want], rtol=0, atol=1e-8)


@pytest.mark.parametrize("gate", ["cnot", "cqpg"])
@pytest.mark.parametrize("dim", [3, 5, 6, 8])
def test_load_map_is_the_stripped_register_of_each_basis_product(gate, dim):
    # the reference: prepare_register's four full registers, atoms stripped,
    # which one node's Kronecker square must equal bit for bit
    params = protocol._GATES[gate].node_params
    columns = []
    for i, j in np.ndindex(2, 2):
        reg = prepare_register(i, 1 - i, j, 1 - j, fock_cutoff=dim - 1, params=params)
        stripped = protocol._reorder_sub(reg, CompositeSpace([FactorLabel("A", dim),
                                                              FactorLabel("B", dim)]))
        columns.append(stripped.tensor_view()[:2, :2].reshape(-1))
    want = np.array(columns).T
    assert protocol._load_map(params, dim).tobytes() == want.tobytes()


@pytest.mark.parametrize("gate", ["cnot", "cqpg"])
def test_load_map_is_prepare_register_on_the_product_amplitudes(gate):
    load = protocol._load_map(protocol._GATES[gate].node_params, 6)
    rng = make_rng(21)
    for _ in range(50):
        a, b, c, d = _random_pairs(rng)
        got = np.zeros((6, 6), dtype=complex)
        got[:2, :2] = (load @ np.outer([b, a], [d, c]).reshape(-1)).reshape(2, 2)
        want = _loaded(gate, (a, b, c, d), protocol.ProtocolConfig())
        np.testing.assert_allclose(got.reshape(-1), want.amplitudes, rtol=0, atol=1e-12)


def _losing_beta_outcomes(monkeypatch):
    # a build that loses beta's last outcome loses branches: sum K^dag K != 1
    real = protocol._measure

    def losing(state, factor):
        outcomes = real(state, factor)
        return outcomes[:-1] if factor == "beta" else outcomes

    monkeypatch.setattr(protocol, "_measure", losing)
    protocol._branch_maps.cache_clear()


def test_an_incomplete_set_of_branch_maps_is_refused(monkeypatch):
    _losing_beta_outcomes(monkeypatch)
    with pytest.raises(ProtocolError, match="incomplete on cavity levels <= 1"):
        run_nonlocal_cnot(level="ideal")
    assert protocol._branch_maps.cache_info().currsize == 0


def test_a_physical_build_that_loses_a_branch_is_refused(monkeypatch):
    _losing_beta_outcomes(monkeypatch)
    with pytest.raises(ProtocolError, match="branch maps are incomplete on cavity "
                                            "levels <= 1"):
        run_nonlocal_cqpg(level="physical")
    assert protocol._branch_maps.cache_info().currsize == 0


def test_a_map_fidelity_outside_its_range_is_refused(monkeypatch):
    # outputs doubled: every gate record scores about 4, refused as GateResult
    # refuses it
    real = protocol._branch_maps

    def inflated(*key):
        maps = real(*key)
        doubled = maps.scored * np.array([1.0, 1.0, 2.0])[:, None, None]
        return dataclasses.replace(maps, scored=doubled)

    monkeypatch.setattr(protocol, "_branch_maps", inflated)
    with pytest.raises(QStateError, match=r"fidelity .* outside \[0, 1\]"):
        run_nonlocal_cqpg(level="physical")


@pytest.mark.parametrize("gate", ["cnot", "cqpg"])
def test_cli_random_inputs_build_the_maps_once(gate, monkeypatch, tmp_path):
    real = protocol.enumerate_branches
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(protocol, "enumerate_branches", counting)
    measured = {}
    for runs in (20, 200):
        protocol._branch_maps.cache_clear()
        calls.clear()
        rc = cli.main(["protocol", "--gate", gate, "--random", str(runs), "--seed", "3",
                       "--level", "ideal", "--out", str(tmp_path / f"{runs}.csv")])
        assert rc == 0
        info = protocol._branch_maps.cache_info()
        assert (info.misses, info.hits) == (1, runs - 1)
        measured[runs] = len(calls)
    assert measured[200] == measured[20] > 0


PHYSICAL_GATES = {
    "cnot": ("physical_cnot_cavity_to_atom", "physical_not_atom",
             "physical_cnot_atom_to_cavity", "physical_hadamard_atom"),
    "cqpg": ("physical_cnot_cavity_to_atom", "physical_not_atom",
             "physical_cqpg_local", "physical_hadamard_atom"),
}


@pytest.mark.parametrize("gate", ["cnot", "cqpg"])
def test_cli_random_physical_inputs_build_the_maps_once(gate, monkeypatch, tmp_path):
    calls = {}
    for name in {name for names in PHYSICAL_GATES.values() for name in names}:
        def counting(*args, _real=getattr(protocol, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(protocol, name, counting)
    measured = {}
    for runs in (1, 200):
        protocol._branch_maps.cache_clear()
        calls.clear()
        rc = cli.main(["protocol", "--gate", gate, "--random", str(runs), "--seed", "3",
                       "--level", "physical", "--out", str(tmp_path / f"{runs}.csv")])
        assert rc == 0
        info = protocol._branch_maps.cache_info()
        assert (info.misses, info.hits) == (1, runs - 1)
        measured[runs] = dict(calls)
    # every gate call belongs to the one build
    assert measured[200] == measured[1]
    assert sorted(measured[1]) == sorted(PHYSICAL_GATES[gate])


def _returned(trace):
    """What a trace returns: its lines, and each branch with its final state
    as bytes."""
    return trace.trace_lines(), [
        (br.label, br.probability, br.fidelity_vs_ideal, br.bits,
         br.final_state.space, br.final_state.amplitudes.tobytes())
        for br in trace.branches]


@pytest.mark.parametrize("gate", ["cnot", "cqpg"])
def test_warm_calls_return_what_cold_calls_return(gate):
    # the maps and the input-space layouts are cached; a call that builds
    # them and a call that reads them answer alike
    runner = {"cnot": run_nonlocal_cnot, "cqpg": run_nonlocal_cqpg}[gate]
    rng = make_rng(34)
    cases = [(_random_pairs(rng), {"level": "ideal"})]
    for names, levels in ((("A", "B", "anc"), {"A": 1, "B": 1}),
                          (("B", "anc", "A"), {"A": 2, "B": 1}),
                          (("anc", "A", "B"), {"A": 1, "B": 3})):
        cases.append(((), {"input_state": _random_input(rng, names, levels)}))
    cases.append((_random_pairs(rng), {"level": "physical"}))
    for amps, kwargs in cases:
        protocol._branch_maps.cache_clear()
        protocol._layout.cache_clear()
        cold = runner(*amps, **kwargs)
        warm = runner(*amps, **kwargs)
        for cache in (protocol._branch_maps, protocol._layout):
            assert cache.cache_info()[:2] == (1, 1)   # (hits, misses)
        assert _returned(warm) == _returned(cold)
    # a refused input space is refused again: the layout caches no refusal
    clash = _random_input(rng, ("A", "alpha", "B"), {"A": 1, "B": 1})
    for _ in range(2):
        with pytest.raises(QStateError, match=r"label collision on \['alpha'\]"):
            runner(input_state=clash)


def _maps_key(gate, level, ebit, m, supplied):
    beta_dim = protocol._GATES[gate].beta_dim
    return gate, level, protocol.ProtocolConfig(), m, \
        protocol._ebit_pair(ebit, beta_dim).amplitudes.tobytes(), supplied


@strategies.composite
def _protocol_inputs(draw):
    gate = draw(strategies.sampled_from(["cnot", "cqpg"]))
    seed = draw(strategies.integers(0, 2 ** 32 - 1))
    ancilla = draw(strategies.sampled_from([None, 0, 1, 2]))
    m = draw(strategies.integers(1, 5)) if ancilla is not None else 1
    return gate, seed, ancilla, m, draw(strategies.booleans())


# the physical level takes product registers only
_physical_inputs = strategies.tuples(strategies.sampled_from(["cnot", "cqpg"]),
                                     strategies.integers(0, 2 ** 32 - 1),
                                     strategies.just(None), strategies.just(1),
                                     strategies.booleans())


# derandomized, few examples and no example database: the same cases on
# every run, in about a second per level
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(_protocol_inputs())
def test_branch_maps_keep_the_protocol_invariants(case):
    _check_invariants(case, "ideal")


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(_physical_inputs)
def test_physical_branch_maps_keep_the_protocol_invariants(case):
    _check_invariants(case, "physical")


def _check_invariants(case, level):
    """Probabilities sum to 1, two bits per branch, no record leaves its node,
    and a warm, a cleared and a rewarmed cache give identical runs."""
    gate, seed, ancilla, m, own_pair = case
    runner = {"cnot": run_nonlocal_cnot, "cqpg": run_nonlocal_cqpg}[gate]
    rng = make_rng(seed)
    if own_pair:
        pair = rng.normal(size=4) + 1j * rng.normal(size=4)
        ebit = StateVector(CompositeSpace([FactorLabel("alpha", 2),
                                           FactorLabel("beta", 2)]),
                           pair / np.linalg.norm(pair))
    else:
        ebit = None
    if ancilla is None:
        args, kwargs = _random_pairs(rng), {}
    else:
        names = ["A", "B"]
        names.insert(ancilla, "anc")
        levels = {"A": m, "B": int(rng.integers(0, m + 1))}
        args, kwargs = (), {"input_state": _random_input(rng, names, levels)}

    first = runner(*args, level=level, ebit_state=ebit, **kwargs)
    protocol._branch_maps.cache_clear()
    cold = runner(*args, level=level, ebit_state=ebit, **kwargs)
    warm = runner(*args, level=level, ebit_state=ebit, **kwargs)
    np.testing.assert_allclose(cold.total_probability(), 1.0, rtol=0, atol=1e-10)
    assert all(len(br.bits) == 2 for br in cold.branches)
    assert locality_violations(cold.records) == []
    for other in (first, warm):
        assert other.records == cold.records
        assert [br.label for br in other.branches] == [br.label for br in cold.branches]
        for a, b in zip(other.branches, cold.branches):
            assert (a.probability, a.fidelity_vs_ideal, a.bits) == \
                (b.probability, b.fidelity_vs_ideal, b.bits)
            np.testing.assert_array_equal(a.final_state.amplitudes,
                                          b.final_state.amplitudes)
    # the maps of this input's levels are complete; a cache hit, so the key
    # above is the one the run used
    hits = protocol._branch_maps.cache_info().hits
    maps = protocol._branch_maps(*_maps_key(gate, level, ebit or protocol._bell_atoms(),
                                            m, ebit is not None))
    assert protocol._branch_maps.cache_info().hits == hits + 1
    stacked = maps.kraus.reshape(-1, (m + 1) ** 2)
    np.testing.assert_allclose(stacked.conj().T @ stacked, np.eye((m + 1) ** 2),
                               rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# register preparation and the entangled pair


def test_prepare_register_physical_matches_ideal():
    amps = (0.6, 0.8j, 1 / math.sqrt(2), -1 / math.sqrt(2))
    a, b, c, d = amps
    reg_i = qstate.tensor([_cavity("A", a, b), _atom("alpha"), _cavity("B", c, d),
                           _atom("beta")])
    reg_p = prepare_register(*amps)
    assert reg_p.space == reg_i.space
    ov = abs(np.vdot(reg_i.amplitudes, reg_p.amplitudes)) ** 2
    np.testing.assert_allclose(ov, 1.0, atol=1e-9)


def test_prepare_register_enforces_pair_norms():
    with pytest.raises(QStateError, match="expected 1"):
        prepare_register(1.0, 1.0, 1.0, 0.0)
    # a NaN norm is refused too, by the runners as well
    with pytest.raises(QStateError, match="expected 1"):
        prepare_register(math.nan, 0.8, 0.6, 0.8)
    with pytest.raises(QStateError, match="expected 1"):
        run_nonlocal_cnot(math.nan, 0.8, 0.6, 0.8)


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
    # and the outcome-weighted means on the default register are the Monte
    # Carlo's per-outcome scores
    model = PhotonGunModel(p_empty=0.1, p_double=0.05, p_single=0.85)
    weights = model.weights

    def scores(*register):
        score = {outcome: 0.0 for outcome in weights}
        for br in enumerate_ebit_branches(model):
            if br.flagged:
                continue
            tr = run_nonlocal_cnot(*register, ebit_state=br.atoms_state)
            assert [r.operation for r in tr.records if r.step == "ebit"] == \
                ["inject-ebit"]
            np.testing.assert_allclose(tr.total_probability(), 1.0, atol=1e-12)
            assert all(len(b.bits) == 2 for b in tr.branches)
            if br.label == "single:00":
                np.testing.assert_allclose(tr.mean_fidelity(), 1.0, atol=1e-12)
            outcome = br.label.split(":")[0]
            score[outcome] += br.probability / weights[outcome] * tr.mean_fidelity()
        return score

    default = scores()
    expected = monte_carlo_gun_fidelity(model, n_runs=10)["per_outcome_score"]
    for outcome in weights:
        np.testing.assert_allclose(default[outcome], expected[outcome], rtol=1e-12)
    score = scores(0.6, 0.8, 0.6, 0.8)
    np.testing.assert_allclose([score["single"], score["empty"], score["double"]],
                               [1.0, 0.49692672, 0.24846336], atol=1e-8)


def test_monte_carlo_is_seed_deterministic():
    model = PhotonGunModel(p_empty=0.1, p_double=0.05, p_single=0.85)
    a = monte_carlo_gun_fidelity(model, n_runs=500, seed=7)
    b = monte_carlo_gun_fidelity(model, n_runs=500, seed=7)
    assert a["mean_fidelity"] == b["mean_fidelity"]
    assert a["counts"] == b["counts"]


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


def _clear_every_cache():
    for cache in (gates._action, pulses._magnus_window, perturb._sigma0_free_total,
                  protocol._branch_maps):
        cache.cache_clear()


def test_cold_physical_cnot_integrates_the_cnot_pulse_once(monkeypatch):
    # step 4 and the step-5 composite share one full-node CNOT propagator:
    # the CNOT entry is built once, and the action cache answers the rest
    builds = []
    cnot_gate = gates._cnot_gate

    def counted(*args):
        builds.append(args)
        return cnot_gate(*args)

    monkeypatch.setattr(gates, "_cnot_gate", counted)
    _clear_every_cache()
    run_nonlocal_cnot(level="physical")
    assert len(builds) == 1
    assert gates._action.cache_info().hits >= 1
    # and no gate computes the perturbative two-photon integral
    assert perturb._sigma0_free_total.cache_info().misses == 0


def test_cold_physical_cnot_integrates_each_distinct_window_once():
    # the sequential NOT's first pulse is the step-4 CNOT pulse on the same
    # node: of six windows one recurs, so five are integrated
    _clear_every_cache()
    run_nonlocal_cnot(level="physical")
    window_cache = pulses._magnus_window.cache_info
    assert (window_cache().misses, window_cache().hits) == (5, 1)
    params, config = protocol.SWAP_PARAMS.jc_params(), protocol.ProtocolConfig().gate_config()
    cnot = gates._cnot_gate(params, config)
    sequential = gates._dressed_atom_gate(GateKind.NOT_ATOM, params, config)
    assert sequential.drives[0] == cnot.drives[0]
    # both read the recurring window from the cache: the same record
    step4, repeat = [pulses.propagate_basis(entry.static, entry.drives, *entry.span,
                                            entry.tol)[1]["windows"][0]
                     for entry in (cnot, sequential)]
    assert step4.cached and repeat.cached and window_cache().misses == 5
    assert step4.passes == repeat.passes and step4.u.tobytes() == repeat.u.tobytes()
    # a window that differs only in tol, or only in its clipped bounds, is
    # integrated again; a wider span clips to the same window
    static, drive, (t0, t1), tol = cnot.static, cnot.drives[0], cnot.span, cnot.tol
    _u, info = pulses.propagate_basis(static, [drive], t0 - 1.0, t1 + 1.0, tol)
    assert window_cache().misses == 5 and info["nfev"] == 0
    for span, tol_again in (((t0, t1), tol / 10.0), ((t0, 0.5 * t1), tol)):
        _u, info = pulses.propagate_basis(static, [drive], *span, tol_again)
        (window,) = info["windows"]
        assert info["nfev"] > 0 and not window.cached
        assert window.passes[-1][1] == span[1]
    assert window_cache().misses == 7


def test_import_and_physical_protocol_load_no_ode_integrator():
    # every drive takes the Magnus path, so a fresh interpreter never loads
    # scipy's ODE integrators; scipy itself is imported, and the beam
    # splitter loads scipy.linalg on its first use
    code = ("import math, sys, cavitylink\n"
            "from cavitylink.protocol import (PhotonGunModel, enumerate_ebit_branches,\n"
            "                                 run_nonlocal_cqpg)\n"
            "run_nonlocal_cqpg(level='physical')\n"
            "assert 'scipy' in sys.modules\n"
            "for name in ('scipy.integrate', 'scipy.linalg', 'numpy.testing'):\n"
            "    assert name not in sys.modules, name + ' loaded'\n"
            "model = PhotonGunModel(p_empty=0.1, p_double=0.05, p_single=0.85)\n"
            "total = math.fsum(b.probability for b in enumerate_ebit_branches(model))\n"
            "assert 'scipy.linalg' in sys.modules, 'beam splitter ran without scipy.linalg'\n"
            "assert abs(total - 1.0) <= 1e-12, total\n")
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
