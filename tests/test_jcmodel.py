import math

import numpy as np
import pytest

from cavitylink.qstate import QStateError, StateVector, make_rng
from cavitylink.jcmodel import (
    JCParams, bare_to_dressed_map, desk_params, dressed_energies,
    dressed_pair, jc_hamiltonian, jc_rotating, jc_space, manifold_splitting,
    mixing_angle, resonant_rabi_evolve, resonant_rabi_unitary,
    set_stark_detuning)


def test_params_validation():
    with pytest.raises(QStateError, match="rabi_coupling"):
        JCParams(omega0=1.0, omega=1.0, rabi_coupling=0.0)
    with pytest.raises(QStateError, match="omega must be"):
        JCParams(omega0=1.0, omega=-1.0, rabi_coupling=1.0)
    with pytest.raises(QStateError, match="finite"):
        JCParams(omega0=float("nan"), omega=1.0, rabi_coupling=1.0)
    p = JCParams(omega0=21.0, omega=20.0, rabi_coupling=1.0)
    assert p.delta == 1.0


def test_desk_params_ratios():
    p = desk_params(1.0, x=0.1)
    np.testing.assert_allclose(p.delta, 10.0)
    np.testing.assert_allclose(p.omega, 20.0)
    np.testing.assert_allclose(p.rabi_coupling, 1.0)
    res = desk_params(2.0, x=0.0)
    assert res.delta == 0.0 and res.omega == 4.0
    with pytest.raises(QStateError, match="x must be"):
        desk_params(1.0, x=-0.1)


def test_set_stark_detuning_roundtrip():
    p = desk_params(1.0, 0.1)
    assert set_stark_detuning(p, p.omega0) == p
    q = set_stark_detuning(p, p.omega)
    assert q.delta == 0.0 and q.rabi_coupling == p.rabi_coupling


def test_jc_space_cutoff_floor():
    with pytest.raises(QStateError, match="fock_cutoff"):
        jc_space(1)
    sp = jc_space(4)
    assert sp.names == ("atom", "cavity") and sp.dims == (2, 5)


def test_mixing_angle_resonance_and_limits():
    res = desk_params(1.0, x=0.0)
    np.testing.assert_allclose(mixing_angle(res, 0), math.pi / 4)
    np.testing.assert_allclose(mixing_angle(res, 7), math.pi / 4)
    # deep dispersive regime: angle collapses onto the bare states
    disp = desk_params(1.0, x=1e-6)
    assert mixing_angle(disp, 0) < 2e-6
    with pytest.raises(QStateError, match="manifold"):
        mixing_angle(res, -1)


def test_dressed_energy_closed_form_values():
    # expected values recomputed from omega (n+1) +/- sqrt((delta/2)^2 + g^2 (n+1))
    p = desk_params(1.0, x=0.1)  # delta = 10, omega = 20, g = 1
    e_plus0, e_minus0 = dressed_energies(p, 0)
    np.testing.assert_allclose(float(e_plus0), 20.0 + math.sqrt(26.0), rtol=1e-15)
    np.testing.assert_allclose(float(e_minus0), 20.0 - math.sqrt(26.0), rtol=1e-15)
    e_plus2, _ = dressed_energies(p, 2)
    np.testing.assert_allclose(float(e_plus2), 60.0 + math.sqrt(28.0), rtol=1e-15)
    np.testing.assert_allclose(manifold_splitting(p, [0, 2]),
                               [math.sqrt(26.0), math.sqrt(28.0)], rtol=1e-15)


def test_lab_hamiltonian_spectrum_matches_closed_form():
    p = desk_params(1.3, x=0.07)
    cutoff = 5
    h = jc_hamiltonian(p, cutoff)
    evals = np.sort(np.linalg.eigvalsh(h.matrix))
    expected = [-p.delta / 2.0]                       # unpaired |g,0>
    expected.append(p.omega0 / 2.0 + p.omega * (cutoff + 0.5))  # unpaired top |e,N>
    for n in range(cutoff):
        r = math.hypot(p.delta / 2.0, p.rabi_coupling * math.sqrt(n + 1))
        expected.extend([p.omega * (n + 1) + r, p.omega * (n + 1) - r])
    np.testing.assert_allclose(evals, np.sort(expected), rtol=1e-12, atol=1e-12)


def test_rotating_frame_spectrum():
    p = desk_params(1.0, x=0.1)
    h = jc_rotating(p, 3)
    evals = np.sort(np.linalg.eigvalsh(h.matrix))
    expected = [-p.delta / 2.0, p.delta / 2.0]        # |g,0> and top |e,3>
    for n in range(3):
        r = manifold_splitting(p, n)
        expected.extend([r, -r])
    np.testing.assert_allclose(evals, np.sort(expected), atol=1e-12)


def test_dressed_pair_eigenvectors():
    p = desk_params(1.0, x=0.25)
    cutoff = 4
    h = jc_rotating(p, cutoff).matrix
    for n in range(cutoff):
        pair = dressed_pair(p, n, cutoff)
        r = float(manifold_splitting(p, n))
        np.testing.assert_allclose(h @ pair.v_plus, r * pair.v_plus, atol=1e-12)
        np.testing.assert_allclose(h @ pair.v_minus, -r * pair.v_minus, atol=1e-12)
        np.testing.assert_allclose(np.vdot(pair.v_plus, pair.v_minus), 0.0, atol=1e-14)
    with pytest.raises(QStateError, match="cutoff"):
        dressed_pair(p, cutoff, cutoff)


def test_bare_to_dressed_map_is_unitary_ramp():
    p = desk_params(1.0, x=0.1)
    cutoff = 3
    w = bare_to_dressed_map(p, cutoff)
    np.testing.assert_allclose(w.matrix.conj().T @ w.matrix,
                               np.eye(w.space.dim), atol=1e-12)
    # column |e,0> carries |V+,0>
    pair = dressed_pair(p, 0, cutoff)
    col = w.matrix[:, w.space.index({"atom": 1, "cavity": 0})]
    np.testing.assert_allclose(col, pair.v_plus, atol=1e-14)


def test_resonant_rabi_exchange_probability():
    p = desk_params(1.0, x=0.0)
    space = jc_space(3)
    g1 = space.basis_state({"atom": 0, "cavity": 1})
    for t in np.linspace(0.1, 7.0, 9):
        out = resonant_rabi_evolve(p, g1, float(t))
        p_e0 = abs(out.amplitude({"atom": 1, "cavity": 0})) ** 2
        np.testing.assert_allclose(p_e0, math.sin(t) ** 2, atol=1e-12)


def test_resonant_rabi_pi_pulse_transfer_phase():
    # quarter cycle: |e,0> -> -i |g,1>
    p = desk_params(2.0, x=0.0)
    space = jc_space(2)
    e0 = space.basis_state({"atom": 1, "cavity": 0})
    out = resonant_rabi_evolve(p, e0, math.pi / (2 * p.rabi_coupling))
    np.testing.assert_allclose(out.amplitude({"atom": 0, "cavity": 1}), -1.0j,
                               atol=1e-12)


def test_resonant_rabi_rejects_detuned_params():
    p = desk_params(1.0, x=0.1)
    space = jc_space(2)
    with pytest.raises(QStateError, match="delta == 0"):
        resonant_rabi_evolve(p, space.basis_state({"atom": 0, "cavity": 0}), 1.0)


def test_resonant_unitary_consistent_with_matrix_exp():
    p = desk_params(1.7, x=0.0)
    cutoff = 4
    h = jc_rotating(p, cutoff).matrix
    for t in (0.3, 1.1):
        u = resonant_rabi_unitary(p, cutoff, t)
        evals, q = np.linalg.eigh(h)
        u_exp = q @ np.diag(np.exp(-1j * evals * t)) @ q.conj().T
        np.testing.assert_allclose(u, u_exp, atol=1e-12)


def test_embedded_evolution_leaves_spectators_alone():
    p = desk_params(1.0, x=0.0)
    rng = make_rng(4)
    import cavitylink.qstate as qs
    big = qs.CompositeSpace([qs.FactorLabel("alpha", 2), qs.FactorLabel("A", 3),
                             qs.FactorLabel("spec", 2)])
    v = rng.normal(size=big.dim) + 1j * rng.normal(size=big.dim)
    st = StateVector(big, v / np.linalg.norm(v))
    out = resonant_rabi_evolve(p, st, 2.0, atom="alpha", cavity="A")
    assert abs(out.norm() - 1.0) < 1e-12
    # spectator marginal unchanged
    before = np.sum(np.abs(st.tensor_view()) ** 2, axis=(0, 1))
    after = np.sum(np.abs(out.tensor_view()) ** 2, axis=(0, 1))
    np.testing.assert_allclose(after, before, atol=1e-12)
