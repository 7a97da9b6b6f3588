"""Tests for the command line interface: formats, exit codes, determinism."""

import math
import time
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from cavitylink import perturb, pulses
from cavitylink.cli import _fmt_at_tol, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_no_arguments_fails(capsys):
    rc, _out, _err = run_cli(capsys)
    assert rc == 1


def test_unknown_command_fails(capsys):
    rc, _out, _err = run_cli(capsys, "spectra")
    assert rc == 1


# ---------------------------------------------------------------------------
# dressed


def test_dressed_header_and_values(capsys):
    rc, out, _ = run_cli(capsys, "dressed", "--x", "0.1", "--n-max", "2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,phi_n,E_plus,E_minus,bare_overlap"
    assert lines[1] == "0,0.0986977799249,25.0990195136,14.9009804864,0.995133326668"
    assert len(lines) == 4


def test_dressed_resonance_row_is_maximally_mixed(capsys):
    rc, out, _ = run_cli(capsys, "dressed", "--x", "0", "--n-max", "0")
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    np.testing.assert_allclose(float(row[1]), math.pi / 4, atol=1e-12)
    np.testing.assert_allclose(float(row[4]), 1 / math.sqrt(2), atol=1e-12)


def test_dressed_rejects_negative_x(capsys):
    rc, _out, err = run_cli(capsys, "dressed", "--x", "-0.1")
    assert rc == 1
    assert "must be >= 0" in err


# ---------------------------------------------------------------------------
# rabi


def test_rabi_exchange_table(capsys):
    rc, out, _ = run_cli(capsys, "rabi", "--points", "5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,p_analytic,p_tdse,abs_diff"
    assert len(lines) == 6
    # quarter cycle: complete transfer, simulated and analytic agree
    row = lines[2].split(",")
    np.testing.assert_allclose(float(row[1]), 1.0, atol=1e-12)
    assert float(row[3]) < 1e-12


def test_rabi_rejects_bad_window(capsys):
    rc, _out, err = run_cli(capsys, "rabi", "--t-max", "0")
    assert rc == 1
    assert "--t-max must be > 0" in err


# ---------------------------------------------------------------------------
# fidelity-sweep


def test_sweep_formula_mode_leaves_simulation_blank(capsys):
    rc, out, _ = run_cli(capsys, "fidelity-sweep", "--x-min", "0.01",
                         "--x-max", "0.03", "--steps", "2", "--mode", "formula")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,F_formula,F_simulated,abs_diff"
    assert lines[1] == "0.01,1.00000027224,,"
    assert lines[2].endswith(",,")
    assert not any(ln.startswith("max_abs_diff") for ln in lines)


def test_sweep_both_modes_with_frozen_numbers(capsys):
    rc, out, _ = run_cli(capsys, "fidelity-sweep", "--x-min", "0.02",
                         "--x-max", "0.1", "--steps", "3", "--mode", "both",
                         "--rwa")
    assert rc == 0
    lines = out.strip().splitlines()
    # simulated columns print at the decade of --tolerance (default 1e-10)
    assert lines[1] == "0.02,1.00000075587,0.9999979792,2.7767e-06"
    assert lines[3] == "0.1,0.999752449479,0.999746095,6.3544e-06"
    assert lines[4] == "max_abs_diff,,,1.11295e-05"


def test_fmt_at_tol_rounds_to_the_tolerance_decade():
    # abs_diff at x=0.02 as printed at 12 digits on two different machines
    assert _fmt_at_tol(2.77668158666e-06, 1e-10) == "2.7767e-06"
    assert _fmt_at_tol(2.77668159088e-06, 1e-10) == "2.7767e-06"
    # 10 decimals at 1e-10, 8 (never 9) at 3e-9
    assert _fmt_at_tol(0.1234567654321, 1e-10) == "0.1234567654"
    assert _fmt_at_tol(0.1234567654321, 3e-9) == "0.12345677"
    for bad in (0.0, -1e-10):
        with pytest.raises(ValueError):
            _fmt_at_tol(0.5, bad)


def test_sweep_rejects_nonpositive_x_for_simulation(capsys):
    rc, _out, err = run_cli(capsys, "fidelity-sweep", "--x-min", "0",
                            "--x-max", "0.1", "--steps", "2",
                            "--mode", "simulated")
    assert rc == 1
    assert "error" in err


@pytest.mark.parametrize("command", [
    ("fidelity-sweep", "--mode", "simulated", "--steps", "1",
     "--x-min", "0.1", "--x-max", "0.1"),
    ("protocol", "--gate", "cnot", "--level", "physical"),
    ("protocol", "--gate", "cqpg", "--level", "ideal"),
], ids=["fidelity-sweep", "protocol-physical", "protocol-ideal"])
def test_non_finite_tolerance_is_bad_input(capsys, command):
    # a NaN or infinite rtol would send the integrator off without end
    for bad in ("nan", "inf"):
        start = time.perf_counter()
        rc, _out, err = run_cli(capsys, *command, "--tolerance", bad)
        assert rc == 1, bad
        assert "tol must be > 0 and finite" in err
        assert time.perf_counter() - start < 5.0


def test_under_resolved_sweep_is_a_numerical_failure(capsys, monkeypatch):
    # the RWA CNOT pulse needs about a thousand Magnus steps; refuse past 128
    monkeypatch.setattr(pulses, "MAGNUS_MAX_STEPS", 128)
    rc, out, err = run_cli(capsys, "fidelity-sweep", "--mode", "simulated",
                           "--steps", "1", "--x-min", "0.07", "--x-max", "0.07")
    assert rc == 2
    assert out == ""
    assert "numerical failure" in err and "passed 128" in err


def test_start_past_the_step_cap_is_refused_before_integrating(capsys, monkeypatch):
    # at x = 0.002 a step may span at most pi of the full drive's
    # counter-rotating term from 2^24 steps on, past MAGNUS_MAX_STEPS: the
    # drive is refused before any pass, not after one of 2^24 steps
    passes = []
    monkeypatch.setattr(pulses, "_magnus_steps", lambda *args: passes.append(args))
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "fidelity-sweep", "--mode", "simulated", "--no-rwa",
                           "--steps", "1", "--x-min", "0.002", "--x-max", "0.002")
    assert time.perf_counter() - start < 10.0
    assert rc == 2
    assert out == "" and passes == []
    assert "numerical failure" in err and f"passed {pulses.MAGNUS_MAX_STEPS}" in err


def test_tolerance_below_the_rounding_floor_is_a_numerical_failure(capsys):
    # the Magnus doubling stops at its rounding floor within seconds
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "fidelity-sweep", "--mode", "simulated",
                           "--steps", "1", "--x-min", "0.1", "--x-max", "0.1",
                           "--tolerance", "1e-16")
    assert time.perf_counter() - start < 30.0
    assert rc == 2
    assert out == ""
    assert "numerical failure" in err and "rounding floor" in err


# ---------------------------------------------------------------------------
# two-photon


def test_two_photon_single_convention(capsys):
    rc, out, _ = run_cli(capsys, "two-photon", "--convention", "cyclic")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("convention=cyclic perturbative=0.36045481072 "
                        "tdse=0.0006378623")
    assert lines[1] == "chosen=cyclic"
    assert lines[2] == "target=0.47 band=0.02 in_band=false"


def test_two_photon_single_convention_honours_the_tolerance(capsys):
    # one convention runs the oracle at --tolerance, as auto does
    rc, out, _ = run_cli(capsys, "two-photon", "--convention", "cyclic",
                         "--tolerance", "1e-12")
    assert rc == 0
    single = out.strip().splitlines()[0]
    assert single == ("convention=cyclic perturbative=0.36045481072 "
                      "tdse=0.000637862258")
    rc, out, _ = run_cli(capsys, "two-photon", "--tolerance", "1e-12")
    assert rc == 0
    assert out.strip().splitlines()[1] == single


def test_two_photon_past_the_panel_cap_is_a_numerical_failure(capsys, monkeypatch):
    # the angular point starts at 63 panels
    monkeypatch.setattr(perturb, "ORDERED_MAX_PANELS", 32)
    perturb._sigma0_free_total.cache_clear()
    rc, out, err = run_cli(capsys, "two-photon", "--convention", "angular")
    assert rc == 2
    assert out == ""
    assert "numerical failure" in err and "ORDERED_MAX_PANELS" in err


def test_two_photon_auto_reports_both(capsys):
    rc, out, _ = run_cli(capsys, "two-photon")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("convention=angular perturbative=0.00930804587645 "
                        "tdse=0.0081528535")
    assert lines[1] == ("convention=cyclic perturbative=0.36045481072 "
                        "tdse=0.0006378623")
    assert lines[2] == "chosen=cyclic"


# ---------------------------------------------------------------------------
# protocol


def test_protocol_ideal_summary(capsys):
    rc, out, _ = run_cli(capsys, "protocol", "--gate", "cnot",
                         "--level", "ideal", "--amps", "0.6,0.8,0.6,0.8")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "branch,probability,fidelity_vs_ideal"
    assert lines[1:] == ["gg,0.25,1", "ge,0.25,1", "eg,0.25,1", "ee,0.25,1"]


def test_protocol_random_mode_prefixes_run_index(capsys):
    rc, out, _ = run_cli(capsys, "protocol", "--gate", "cqpg",
                         "--level", "ideal", "--random", "2", "--seed", "5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "run,branch,probability,fidelity_vs_ideal"
    assert len(lines) == 1 + 2 * 4
    assert lines[1].startswith("0,") and lines[5].startswith("1,")


def test_protocol_requires_gate(capsys):
    rc, _out, err = run_cli(capsys, "protocol", "--level", "ideal")
    assert rc == 1
    assert "gate" in err


def test_protocol_rejects_malformed_amps(capsys):
    rc, _out, _err = run_cli(capsys, "protocol", "--gate", "cnot",
                             "--amps", "1,0,0")
    assert rc == 1


def _readme_worked_example() -> list:
    """The trace lines of the README's worked example."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Worked example", 1)[1].split("```", 2)[1]
    return block.strip("\n").splitlines()


def test_protocol_writes_summary_and_trace(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    trace_file = tmp_path / "run.trace"
    rc, _out, _err = run_cli(capsys, "protocol", "--gate", "cnot",
                             "--level", "ideal", "--amps", "0.6,0.8,1,0",
                             "--out", str(out_file),
                             "--trace", str(trace_file))
    assert rc == 0
    summary = out_file.read_text().splitlines()
    assert summary[0] == "branch,probability,fidelity_vs_ideal"
    expected = _readme_worked_example()
    assert len(expected) == 25
    assert trace_file.read_text().splitlines() == expected


def test_protocol_physical_level_runs(capsys):
    rc, out, _ = run_cli(capsys, "protocol", "--gate", "cqpg",
                         "--level", "physical")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    fids = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert min(fids) > 0.99
    # integrator results print no finer than the default 1e-10 tolerance
    for ln in lines[1:]:
        for field in ln.split(",")[1:]:
            assert -Decimal(field).as_tuple().exponent <= 10, ln


# ---------------------------------------------------------------------------
# ebit-noise


def test_ebit_noise_row(capsys):
    rc, out, _ = run_cli(capsys, "ebit-noise", "--p-empty", "0.05",
                         "--p-double", "0.025", "--runs", "4000",
                         "--seed", "11")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("p_empty,p_double,p_single,runs,"
                        "mean_fidelity,flagged_fraction")
    assert lines[1] == "0.05,0.025,0.925,4000,0.9608125,0.0125"


def test_ebit_noise_rejects_bad_weights(capsys):
    rc, _out, err = run_cli(capsys, "ebit-noise", "--p-empty", "0.9",
                            "--p-double", "0.9")
    assert rc == 1
    assert "error" in err


# ---------------------------------------------------------------------------
# config files and determinism


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# sweep setup\nx-min=0.02\nx_max=0.1\nsteps=3\nmode=formula\n")
    rc, out, _ = run_cli(capsys, "fidelity-sweep", "--config", str(cfg))
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("0.02,")
    assert len(lines) == 4


def test_flags_override_config_values(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("x-min=0.02\nx_max=0.1\nsteps=3\nmode=formula\n")
    rc, out, _ = run_cli(capsys, "fidelity-sweep", "--config", str(cfg),
                         "--steps", "2")
    assert rc == 0
    assert len(out.strip().splitlines()) == 3


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("x-min=0.02\nwavelength=780\n")
    rc, _out, err = run_cli(capsys, "fidelity-sweep", "--config", str(cfg))
    assert rc == 1
    assert "wavelength" in err


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        rc, _out, _err = run_cli(capsys, "protocol", "--gate", "cnot",
                                 "--level", "ideal", "--random", "3",
                                 "--seed", "9", "--out", str(path))
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
