import numpy as np
import pytest
from hypothesis import given, settings, strategies

from cavitylink.qstate import (
    TOLERANCES, CompositeSpace, FactorLabel, Operator, QStateError,
    StateVector, apply_local, embed, enumerate_branches, make_rng,
    state_fidelity, tensor)


def two_qubits():
    return CompositeSpace([FactorLabel("a", 2), FactorLabel("b", 2)])


def test_factor_label_validation():
    with pytest.raises(QStateError, match="dim >= 2"):
        FactorLabel("x", 1)
    with pytest.raises(QStateError, match="non-empty"):
        FactorLabel("", 2)


def test_space_rejects_duplicates_and_empty():
    with pytest.raises(QStateError, match="duplicate"):
        CompositeSpace([FactorLabel("a", 2), FactorLabel("a", 3)])
    with pytest.raises(QStateError, match="at least one"):
        CompositeSpace([])


def test_index_row_major_layout():
    space = CompositeSpace([FactorLabel("a", 2), FactorLabel("b", 3)])
    assert space.index({"a": 0, "b": 0}) == 0
    assert space.index({"a": 0, "b": 2}) == 2
    assert space.index({"a": 1, "b": 0}) == 3
    assert space.index({"a": 1, "b": 2}) == 5
    with pytest.raises(QStateError, match="out of range"):
        space.index({"a": 0, "b": 3})
    with pytest.raises(QStateError, match="assignment keys"):
        space.index({"a": 0})


def test_state_norm_enforced():
    space = two_qubits()
    with pytest.raises(QStateError, match="norm"):
        StateVector(space, np.array([1.0, 1.0, 0.0, 0.0]))
    st = StateVector(space, np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2))
    assert abs(st.norm() - 1.0) < TOLERANCES.norm


def test_amplitudes_read_only():
    st = two_qubits().basis_state({"a": 0, "b": 1})
    with pytest.raises(ValueError):
        st.amplitudes[0] = 1.0


def test_tensor_product_and_amplitude_lookup():
    a = CompositeSpace([FactorLabel("a", 2)]).basis_state({"a": 1})
    b = StateVector(CompositeSpace([FactorLabel("b", 2)]),
                    np.array([1.0, 1.0j]) / np.sqrt(2))
    st = tensor([a, b])
    assert st.space.names == ("a", "b")
    np.testing.assert_allclose(st.amplitude({"a": 1, "b": 1}), 1.0j / np.sqrt(2))
    np.testing.assert_allclose(st.amplitude({"a": 0, "b": 0}), 0.0)


def test_tensor_rejects_duplicate_factor_names():
    a = CompositeSpace([FactorLabel("a", 2)]).basis_state({"a": 0})
    with pytest.raises(QStateError, match="collision"):
        tensor([a, a])


def test_operator_intent_flags():
    space = CompositeSpace([FactorLabel("a", 2)])
    with pytest.raises(QStateError, match="unitary intent"):
        Operator(space, np.array([[1.0, 1.0], [0.0, 1.0]]), unitary=True)
    with pytest.raises(QStateError, match="hermitian intent"):
        Operator(space, np.array([[0.0, 1.0j], [1.0j, 0.0]]), hermitian=True)
    Operator(space, np.array([[0.0, 1.0], [1.0, 0.0]]), hermitian=True, unitary=True)


def test_embed_acts_on_named_factor_only():
    space = CompositeSpace([FactorLabel("a", 2), FactorLabel("b", 2),
                            FactorLabel("c", 3)])
    x = Operator(CompositeSpace([FactorLabel("b", 2)]),
                 np.array([[0.0, 1.0], [1.0, 0.0]]), unitary=True)
    big = embed(x, space)
    st = space.basis_state({"a": 1, "b": 0, "c": 2})
    out = big.apply(st)
    np.testing.assert_allclose(out.amplitude({"a": 1, "b": 1, "c": 2}), 1.0)


def test_embed_multi_factor_block_matches_kron():
    # embedding a two-factor operator must respect the space's axis order
    sub = CompositeSpace([FactorLabel("b", 2), FactorLabel("a", 2)])
    rng = make_rng(3)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = np.linalg.qr(h)[0]
    op = Operator(sub, u, unitary=True)
    space = CompositeSpace([FactorLabel("a", 2), FactorLabel("b", 2)])
    big = embed(op, space)
    # |a=1, b=0> in sub order is |b=0, a=1>
    st = space.basis_state({"a": 1, "b": 0})
    out = big.apply(st)
    expect = np.zeros(4, dtype=complex)
    for bb in range(2):
        for aa in range(2):
            expect[space.index({"a": aa, "b": bb})] = u[bb * 2 + aa, 0 * 2 + 1]
    np.testing.assert_allclose(out.amplitudes, expect, atol=1e-12)


def _random_state(space, seed):
    rng = make_rng(seed)
    v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return StateVector(space, v / np.linalg.norm(v))


def _random_unitary(dim, seed):
    rng = make_rng(seed)
    return np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]


@pytest.mark.parametrize("factors", [("beta", "B"), ("B", "beta"), ("alpha",),
                                     ("beta", "A", "anc")])
def test_apply_local_matches_dense_embed(factors):
    # non-adjacent and reordered factors, a three-level atom, an outside ancilla
    space = CompositeSpace([FactorLabel("A", 4), FactorLabel("alpha", 2),
                            FactorLabel("B", 4), FactorLabel("beta", 3),
                            FactorLabel("anc", 2)])
    sub = CompositeSpace([space.factor(name) for name in factors])
    u = _random_unitary(sub.dim, seed=sub.dim)
    st = _random_state(space, seed=11)
    dense = embed(Operator(sub, u, unitary=True), space).apply(st)
    local = apply_local(st, u, factors)
    assert local.space == space
    np.testing.assert_allclose(local.amplitudes, dense.amplitudes, atol=1e-13)


@strategies.composite
def _factors_and_subset(draw):
    """Factor dims of a random space and an ordered subset of its axes."""
    dims = draw(strategies.lists(strategies.integers(2, 4), min_size=2, max_size=4))
    order = draw(strategies.permutations(range(len(dims))))
    picked = tuple(order[:draw(strategies.integers(1, len(dims)))])
    return dims, picked, draw(strategies.integers(0, 2 ** 32 - 1))


# derandomized, few examples and no example database: the same cases on
# every run, in well under a second
_PROPERTY = settings(max_examples=25, derandomize=True, database=None,
                     deadline=None)


def _numbered_space(dims):
    return CompositeSpace([FactorLabel(f"f{k}", d) for k, d in enumerate(dims)])


@_PROPERTY
@given(_factors_and_subset())
def test_apply_local_matches_dense_embed_on_random_spaces(case):
    dims, picked, seed = case
    space = _numbered_space(dims)
    names = tuple(f"f{k}" for k in picked)
    sub = CompositeSpace([space.factor(name) for name in names])
    u = _random_unitary(sub.dim, seed)
    st = _random_state(space, seed)
    dense = embed(Operator(sub, u, unitary=True), space).apply(st)
    np.testing.assert_allclose(apply_local(st, u, names).amplitudes,
                               dense.amplitudes, rtol=0, atol=1e-13)


@_PROPERTY
@given(_factors_and_subset())
def test_enumerate_branches_matches_dense_projectors(case):
    # every axis, in its level basis
    dims, _picked, seed = case
    space = _numbered_space(dims)
    st = _random_state(space, seed)
    for f in space.factors:
        for j, (label, collapsed, prob) in enumerate(enumerate_branches(st, f.name)):
            proj = np.zeros((f.dim, f.dim))
            proj[j, j] = 1.0
            dense = embed(Operator(CompositeSpace([f]), proj), space)
            amps = dense.matrix @ st.amplitudes
            p_ref = float(np.vdot(amps, amps).real)
            assert label == str(j)
            np.testing.assert_allclose(prob, p_ref, rtol=0, atol=1e-14)
            np.testing.assert_allclose(collapsed.amplitudes,
                                       amps / np.sqrt(p_ref), rtol=0, atol=1e-13)


def test_apply_local_rejects_bad_labels_and_shapes():
    space = CompositeSpace([FactorLabel("a", 2), FactorLabel("b", 3)])
    st = space.basis_state({"a": 0, "b": 0})
    with pytest.raises(QStateError, match="unknown factor"):
        apply_local(st, np.eye(2), ("c",))
    with pytest.raises(QStateError, match="matrix shape"):
        apply_local(st, np.eye(2), ("b",))
    with pytest.raises(QStateError, match="matrix shape"):
        apply_local(st, np.eye(4), ("a", "b"))
    with pytest.raises(QStateError, match="repeated factor"):
        apply_local(st, np.eye(4), ("a", "a"))
    with pytest.raises(QStateError, match="norm"):
        apply_local(st, 2.0 * np.eye(2), ("a",))


def test_enumerate_branches_completeness():
    rng = make_rng(11)
    space = CompositeSpace([FactorLabel("a", 2), FactorLabel("b", 3)])
    for _ in range(20):
        v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        st = StateVector(space, v / np.linalg.norm(v))
        branches = enumerate_branches(st, "b")
        assert [label for label, _, _ in branches] == ["0", "1", "2"]
        total = sum(p for _, _, p in branches)
        np.testing.assert_allclose(total, 1.0, atol=1e-10)
        for _, collapsed, p in branches:
            if collapsed is not None:
                assert abs(collapsed.norm() - 1.0) < 1e-9


def test_measurement_statistics_match_born_rule():
    space = CompositeSpace([FactorLabel("a", 2)])
    st = StateVector(space, np.array([0.6, 0.8]))
    (l0, c0, p0), (l1, c1, p1) = enumerate_branches(st, "a")
    assert (l0, l1) == ("0", "1")
    np.testing.assert_allclose([p0, p1], [0.36, 0.64], rtol=1e-14)
    np.testing.assert_allclose(c0.amplitudes, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(c1.amplitudes, [0.0, 1.0], atol=1e-15)


def test_state_fidelity_and_global_phase():
    space = two_qubits()
    rng = make_rng(9)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    st = StateVector(space, v)
    rotated = StateVector(space, np.exp(0.7j) * v)
    np.testing.assert_allclose(state_fidelity(st, rotated), 1.0, atol=1e-12)


def test_make_rng_determinism():
    a = make_rng(123).normal(size=5)
    b = make_rng(123).normal(size=5)
    np.testing.assert_allclose(a, b)
