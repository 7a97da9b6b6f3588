"""Acceptance gate: one test per published criterion, at stated tolerance.

Each test asserts the criterion exactly as stated and prints one tagged
line when it passes; a failing criterion shows the measured numbers in the
assertion message.  Criteria 3 and 4 assert external reference numbers
that the faithful implementation does not reproduce; they are expected to
fail and the analysis lives in the repository notes.
"""

import math
import time

import numpy as np

from cavitylink import (
    GateKind,
    JCParams,
    PhotonGunModel,
    PhysicalGateConfig,
    StateVector,
    ThreeLevelParams,
    TRUE_HADAMARD,
    averaged_step5_fidelity,
    desk_params,
    dressed_energies,
    evolve_tdse,
    fidelity_closed_form,
    ideal_gate,
    jc_hamiltonian,
    jc_rotating,
    jc_space,
    locality_violations,
    make_rng,
    monte_carlo_gun_fidelity,
    physical_cnot_cavity_to_atom,
    physical_cqpg_local,
    physical_hadamard_atom,
    physical_not_atom,
    physical_swap_two_photon,
    resonant_rabi_evolve,
    run_nonlocal_cnot,
    run_nonlocal_cqpg,
    two_photon_probability,
    two_photon_tdse_oracle,
)
from cavitylink.cli import main as cli_main
from cavitylink.perturb import SOURCE_POINT_CYCLIC
from cavitylink.pulses import propagate_basis
from cavitylink.qstate import CompositeSpace, FactorLabel

FULL_CFG = PhysicalGateConfig()          # counter-rotating term kept
RWA_CFG = PhysicalGateConfig(rwa=True)   # used where the full term is inert


def _random_pairs(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    n1 = math.hypot(abs(v[0]), abs(v[1]))
    n2 = math.hypot(abs(v[2]), abs(v[3]))
    return v[0] / n1, v[1] / n1, v[2] / n2, v[3] / n2


def _random_ancilla_state(rng, dim_c=6):
    space = CompositeSpace([FactorLabel("A", dim_c), FactorLabel("B", dim_c),
                            FactorLabel("anc", 2)])
    vec = np.zeros(space.dim, dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                vec[space.index({"A": i, "B": j, "anc": k})] = (
                    rng.normal() + 1j * rng.normal())
    return StateVector(space, vec / np.linalg.norm(vec))


def test_criterion_1_ideal_protocol_exactness():
    t0 = time.perf_counter()
    rng = make_rng(1)
    worst = 1.0
    for runner in (run_nonlocal_cnot, run_nonlocal_cqpg):
        for _ in range(150):
            a, b, c, d = _random_pairs(rng)
            tr = runner(a, b, c, d, level="ideal")
            assert len(tr.branches) == 4
            worst = min(worst, min(br.fidelity_vs_ideal for br in tr.branches))
        for _ in range(50):
            tr = runner(input_state=_random_ancilla_state(rng), level="ideal")
            assert len(tr.branches) == 4
            worst = min(worst, min(br.fidelity_vs_ideal for br in tr.branches))
    elapsed = time.perf_counter() - t0
    assert worst >= 1.0 - 1e-10, f"worst branch fidelity {worst}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f} s exceeds 10 s"
    print(f"criterion 1 PASS: worst branch fidelity {worst:.3e} from 1, "
          f"400 runs in {elapsed:.2f} s")


def test_criterion_2_fidelity_curve():
    t0 = time.perf_counter()
    space = jc_space(5)
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index({"atom": 0, "cavity": 0})] = 1 / math.sqrt(2)
    vec[space.index({"atom": 0, "cavity": 1})] = 1 / math.sqrt(2)
    st = StateVector(space, vec)

    f_ref = fidelity_closed_form(0.1)
    res = physical_cnot_cavity_to_atom(st, desk_params(1.0, 0.1), FULL_CFG)
    assert res.fidelity_vs_ideal >= 0.995, res.fidelity_vs_ideal
    assert abs(res.fidelity_vs_ideal - f_ref) < 0.01
    assert abs(f_ref - 0.99975) < 5e-6

    worst = 0.0
    for x in (0.02, 0.05, 0.1):
        r = physical_cnot_cavity_to_atom(st, desk_params(1.0, x), FULL_CFG)
        worst = max(worst, abs(r.fidelity_vs_ideal - fidelity_closed_form(x)))
    elapsed = time.perf_counter() - t0
    assert worst < 0.01, f"curve deviation {worst}"
    assert elapsed < 120.0, f"runtime {elapsed:.1f} s exceeds 2 min"
    print(f"criterion 2 PASS: F(0.1)={res.fidelity_vs_ideal:.6f}, "
          f"max curve deviation {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_two_photon_probability():
    t0 = time.perf_counter()
    p_pert = two_photon_probability(SOURCE_POINT_CYCLIC)
    p_tdse = two_photon_tdse_oracle(SOURCE_POINT_CYCLIC)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s exceeds 1 min"
    assert abs(p_pert - 0.47) <= 0.02, (
        f"two-photon probability {p_pert:.6f} not within 0.47 +/- 0.02")
    assert abs(p_pert - p_tdse) <= 0.05, (
        f"perturbative {p_pert:.6f} vs oracle {p_tdse:.6f} differ by "
        f"{abs(p_pert - p_tdse):.3f} > 0.05")
    print(f"criterion 3 PASS: probability {p_pert:.4f}, oracle {p_tdse:.6f}, "
          f"{elapsed:.1f} s")


def test_criterion_4_step5_average():
    t0 = time.perf_counter()
    mean, per = averaged_step5_fidelity(SOURCE_POINT_CYCLIC, RWA_CFG)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f} s exceeds 5 min"
    labels = ", ".join(f"{name}: {value:.6f}" for name, value in per.items())
    assert abs(mean - 0.54) <= 0.05, (
        f"step-5 average {mean:.6f} not within 0.54 +/- 0.05; "
        f"per-label {labels}")
    print(f"criterion 4 PASS: step-5 average {mean:.4f}, {elapsed:.1f} s")


def test_criterion_5_analytic_oracles():
    # resonant exchange vs the integrated propagator
    params = JCParams(omega0=2.0, omega=2.0, rabi_coupling=1.0)
    space = jc_space(5)
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index({"atom": 1, "cavity": 0})] = 0.6
    vec[space.index({"atom": 0, "cavity": 1})] = 0.8j
    st = StateVector(space, vec)
    t_end = 1.3
    exact = resonant_rabi_evolve(params, st, t_end)
    numeric = evolve_tdse(st, jc_rotating(params, 5), [], 0.0, t_end, 1e-10)
    err = np.max(np.abs(exact.amplitudes - numeric.amplitudes))
    assert err < 1e-8, f"oracle mismatch {err:.2e}"
    _u, info = propagate_basis(jc_rotating(params, 5), [], 0.0, t_end, 1e-10)
    assert info["norm_drift"] < 1e-9

    # closed-form spectrum vs dense diagonalization
    p = desk_params(1.0, 0.1)
    cutoff = 5
    h = jc_hamiltonian(p, cutoff).matrix
    evals = np.sort(np.linalg.eigvalsh(h))
    closed = [-p.delta / 2.0]                               # unpaired |g,0>
    for n in range(cutoff):
        e_plus, e_minus = dressed_energies(p, n)
        closed.extend([float(e_plus), float(e_minus)])
    closed.append(p.omega0 / 2.0 + p.omega * (cutoff + 0.5))  # unpaired top
    closed = np.sort(np.array(closed))
    rel = np.max(np.abs(evals - closed) / np.maximum(np.abs(closed), 1e-30))
    assert rel < 1e-12, f"spectrum relative error {rel:.2e}"

    # norm drift on every evolution exercised here
    space6 = jc_space(5)
    v = np.zeros(space6.dim, dtype=complex)
    v[0] = v[1] = 1 / math.sqrt(2)
    plus = StateVector(space6, v)
    drifts = {}
    for x in (0.02, 0.05, 0.1):
        r = physical_cnot_cavity_to_atom(plus, desk_params(1.0, x), FULL_CFG)
        drifts[f"cnot x={x}"] = r.norm_drift
    drifts["swap"] = physical_swap_two_photon(
        plus, SOURCE_POINT_CYCLIC).norm_drift
    drifts["hadamard"] = physical_hadamard_atom(
        plus, desk_params(1.0, 1e-3), RWA_CFG, cavity="cavity").norm_drift
    drifts["not"] = physical_not_atom(
        plus, desk_params(1.0, 0.1), RWA_CFG, cavity="cavity").norm_drift
    sp3 = CompositeSpace([FactorLabel("atom", 3), FactorLabel("cavity", 6)])
    v3 = np.zeros(sp3.dim, dtype=complex)
    v3[1 * 6 + 1] = 1.0
    drifts["cqpg"] = physical_cqpg_local(
        StateVector(sp3, v3), ThreeLevelParams(rabi_coupling=1.0)).norm_drift
    worst = max(drifts.values())
    assert worst < 1e-9, f"norm drift {drifts}"
    print(f"criterion 5 PASS: oracle error {err:.1e}, spectrum {rel:.1e}, "
          f"worst drift {worst:.1e}")


def test_criterion_6_local_cqpg_physics():
    def _basis3(a, n):
        sp = CompositeSpace([FactorLabel("atom", 3), FactorLabel("cavity", 6)])
        v = np.zeros(sp.dim, dtype=complex)
        v[a * 6 + n] = 1.0
        return StateVector(sp, v)

    # the defining sign, with the exchange coupling fully out of band and
    # with a real residual coupling far above the 100 Omega floor
    for tp in (ThreeLevelParams(rabi_coupling=1.0),
               ThreeLevelParams(rabi_coupling=1.0, delta_ge=1e7)):
        out = physical_cqpg_local(_basis3(1, 1), tp).output
        amp = out.amplitudes[1 * 6 + 1]
        assert abs(amp + 1.0) < 1e-6, f"<e1|U|e1> = {amp} (delta {tp.delta_ge})"

    # invariance of the other labels at the 100 Omega boundary
    tp100 = ThreeLevelParams(rabi_coupling=1.0, delta_ge=100.0)
    for a, n in ((0, 0), (0, 1), (1, 0)):
        out = physical_cqpg_local(_basis3(a, n), tp100).output
        amp = out.amplitudes[a * 6 + n]
        assert abs(amp - 1.0) < 1e-6, f"label ({a},{n}) moved: {amp}"
    print("criterion 6 PASS: sign -1 and spectator invariance hold")


def test_criterion_7_property_suite():
    # locality and classical budget on full protocol runs
    tr_i = run_nonlocal_cnot(0.6, 0.8, 0.6, 0.8, level="ideal")
    tr_p = run_nonlocal_cqpg(level="physical")
    for tr in (tr_i, tr_p):
        assert locality_violations(tr.records) == []
        for br in tr.branches:
            assert len(br.bits) == 2, f"branch {br.label} used {len(br.bits)}"
        assert abs(tr.total_probability() - 1.0) < 1e-10

    # swap-conjugation identity between the two controlled-flip directions
    space = jc_space(5)
    sw = ideal_gate(GateKind.SWAP_ATOM_CAVITY, space, "atom", "cavity").matrix
    c2a = ideal_gate(GateKind.CNOT_CAVITY_TO_ATOM, space, "atom", "cavity").matrix
    a2c = ideal_gate(GateKind.CNOT_ATOM_TO_CAVITY, space, "atom", "cavity").matrix
    assert np.max(np.abs(sw @ c2a @ sw - a2c)) < 1e-12

    # Hadamard sandwich turns the phase gate into the controlled flip,
    # up to the local photon-parity phase
    h_full = np.kron(TRUE_HADAMARD, np.eye(6))
    cq = ideal_gate(GateKind.CQPG_LOCAL, space, "atom", "cavity").matrix
    z_cav = ideal_gate(GateKind.SIGMA_Z, space, cavity="cavity").matrix
    assert np.max(np.abs(h_full @ cq @ h_full - z_cav @ c2a)) < 1e-12

    # photon-gun degradation is monotone
    means = []
    for eps in (0.0, 0.04, 0.08, 0.16):
        model = PhotonGunModel(p_empty=eps, p_double=eps / 2,
                               p_single=1 - 1.5 * eps)
        means.append(monte_carlo_gun_fidelity(model, n_runs=10000,
                                              seed=13)["mean_fidelity"])
    assert all(m1 >= m2 - 1e-12 for m1, m2 in zip(means, means[1:])), means
    print(f"criterion 7 PASS: identities at 1e-12, gun means {means}")


def test_criterion_8_byte_identical_runs(tmp_path, capsys):
    pairs = []
    for tag in ("a", "b"):
        f1 = tmp_path / f"proto_{tag}.csv"
        rc = cli_main(["protocol", "--gate", "cnot", "--level", "ideal",
                       "--random", "4", "--seed", "21", "--out", str(f1)])
        assert rc == 0
        f2 = tmp_path / f"noise_{tag}.csv"
        rc = cli_main(["ebit-noise", "--p-empty", "0.07", "--p-double",
                       "0.03", "--runs", "2000", "--seed", "5",
                       "--out", str(f2)])
        assert rc == 0
        pairs.append((f1.read_bytes(), f2.read_bytes()))
    capsys.readouterr()
    assert pairs[0][0] == pairs[1][0]
    assert pairs[0][1] == pairs[1][1]
    print("criterion 8 PASS: repeated runs byte-identical")
