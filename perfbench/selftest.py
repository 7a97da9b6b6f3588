"""Tests of the benchmark itself, kept out of the project's test suite.

Run from the root of the repository:

    python3 -m pytest -q perfbench/selftest.py

Each correctness check must reject a wrong output, traced runs must count
the same work every time, and BENCHMARK.json must name what run.py prints.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from cavitylink import (PhysicalGateConfig, StateVector, desk_params,  # noqa: E402
                        physical_cnot_cavity_to_atom, protocol, run_nonlocal_cnot)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

AMPS = (0.6, 0.8, 0.28, 0.96)
# CNOT with the roles swapped: B controls, A is flipped
CNOT_BA = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
                   dtype=complex)


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def ideal_trace():
    return run_nonlocal_cnot(*AMPS, level="ideal")


def _with_register(state, alpha, beta, register):
    """The state with its register at (alpha, beta) replaced."""
    names = list(state.space.names)
    axes = [names.index(n) for n in ("A", "B", "alpha", "beta")]
    psi = np.transpose(state.amplitudes.reshape(state.space.dims), axes).copy()
    at = (slice(0, 2), slice(0, 2), checks.ATOM_LEVEL[alpha], checks.ATOM_LEVEL[beta])
    psi[at] = register.reshape(2, 2)
    return StateVector(state.space, np.transpose(psi, np.argsort(axes)).reshape(-1))


def test_register_check_accepts_the_program_and_rejects_a_swapped_cnot(ideal_trace):
    register = checks.product_register(*AMPS)
    for br in ideal_trace.branches:
        assert checks.check_register("cnot", br.label, br.final_state, br.alpha,
                                     br.beta, register) == []
        wrong = _with_register(br.final_state, br.alpha, br.beta, CNOT_BA @ register)
        assert checks.check_register("cnot", br.label, wrong, br.alpha, br.beta,
                                     register)


def test_register_check_is_blind_to_global_phase_only(ideal_trace):
    register = checks.product_register(*AMPS)
    br = ideal_trace.branches[0]
    phased = StateVector(br.final_state.space, 1j * br.final_state.amplitudes)
    assert checks.check_register("cnot", br.label, phased, br.alpha, br.beta,
                                 register) == []
    assert checks.check_register("cqpg", br.label, br.final_state, br.alpha,
                                 br.beta, register)


def test_trace_check_rejects_probabilities_summing_to_09(ideal_trace):
    branches, records = ideal_trace.branches, ideal_trace.records
    assert checks.check_protocol_trace("cnot", branches, records) == []
    short = [dataclasses.replace(br, probability=0.9 * br.probability)
             for br in branches]
    assert checks.check_protocol_trace("cnot", short, records)


def test_trace_check_rejects_a_third_bit_and_a_nonlocal_record(ideal_trace):
    branches, records = list(ideal_trace.branches), list(ideal_trace.records)
    extra_bit = [dataclasses.replace(branches[0], bits=branches[0].bits * 2)]
    assert checks.check_protocol_trace("cnot", extra_bit + branches[1:], records)
    alice = next(r for r in records if r.node == "Alice" and r.support)
    reach = dataclasses.replace(alice, support=alice.support + ("B",))
    assert checks.check_protocol_trace("cnot", branches, records + [reach])


def test_sweep_check_rejects_a_curve_shifted_by_002():
    x = 0.1
    state = workloads._node_state(np.random.default_rng(0))
    result = physical_cnot_cavity_to_atom(state, desk_params(1.0, x=x),
                                          PhysicalGateConfig(rwa=True))
    f, drift = result.fidelity_vs_ideal, result.norm_drift
    assert checks.check_sweep_point(x, f, drift) == []
    assert checks.check_sweep_point(x, f - 0.02, drift)
    assert checks.check_sweep_point(x, f, 1e-8)
    assert checks.check_drives_agree(x, f, f - 2e-6)


def test_two_photon_check_rejects_broken_scaling():
    assert checks.check_two_photon("cyclic", 0.36, 0.36e-4, 0.36e-4) == []
    assert checks.check_two_photon("cyclic", 0.36, 0.36e-3, 0.36e-3)   # sigma0^3
    assert checks.check_two_photon("cyclic", 0.36, 0.36e-4, 0.34e-4)   # 5% apart
    assert checks.check_sigma0_scaling("angular", 0.0093, 0.0093 * 0.5 ** 4, 0.5) == []
    assert checks.check_sigma0_scaling("angular", 0.0093, 0.0093 * 0.5 ** 2, 0.5)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_runs_count_the_same_work(workload):
    counted = [name for name, unit in tracing.PER_LAYER if unit in ("count", "bytes")]
    first = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    second = _bench("--workload", workload, "--seed", "6", "--seconds", "1", "--trace", "1")
    assert first["correct"] and second["correct"]
    for name in counted:
        assert first["metrics"][name] == second["metrics"][name], name


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracing.PER_LAYER]
    result = _bench("--workload", "protocol-ideal", "--seed", "1", "--seconds", "1")
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("gate", ["cnot", "cqpg"])
def test_a_call_that_raises_is_counted_and_the_result_still_printed(
        gate, monkeypatch, capsys, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(protocol, f"run_nonlocal_{gate}", broken)
    results = []
    for index, mode in enumerate(("run", "probe")):
        argv = ["protocol-ideal", "1", mode, "0.2", str(index),
                str(tmp_path / "spans.json")]
        assert worker.main(argv) == 0
        results.append(json.loads(capsys.readouterr().out.strip().splitlines()[-1]))
    lines, result = run.summarize("protocol-ideal", results, trace=False)
    # every call of the broken gate fails, the other gate's calls still count
    assert result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert any(line.startswith("protocol-ideal ideal_inputs_per_s = ")
               for line in lines)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "protocol-ideal", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
