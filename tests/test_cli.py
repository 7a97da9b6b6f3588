"""Tests for the command line interface: formats, exit codes, determinism."""

import math
import tempfile
import time
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from cavitylink import cli, perturb, protocol, pulses
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


def test_rabi_refuses_a_fock_cutoff_below_2(capsys):
    rc, out, err = run_cli(capsys, "rabi", "--fock-cutoff", "1")
    assert (rc, out) == (1, "")
    assert "error: fock_cutoff must be >= 2, got 1" in err


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
    for bad in (0.0, -1e-10, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be > 0 and finite"):
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


# a command, then one value that makes it non-finite, given as a flag or
# through --config
NON_FINITE = [
    (("protocol", "--gate", "cnot"), "amps", "nan,0.8,0.6,0.8"),
    (("fidelity-sweep", "--x-max", "0.1", "--steps", "2"), "x-min", "nan"),
    (("rabi", "--points", "3"), "t-max", "nan"),
    (("fidelity-sweep", "--x-min", "0.01"), "x-max", "inf"),
    (("rabi",), "t-max", "inf"),
]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", NON_FINITE,
                         ids=["amps-nan", "x-min-nan", "t-max-nan", "x-max-inf",
                              "t-max-inf"])
def test_non_finite_values_are_bad_input(capsys, tmp_path, command, key, value, via):
    if via == "flag":
        extra = ("--" + key, value)
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}={value}\n")
        extra = ("--config", str(cfg))
    rc, out, err = run_cli(capsys, *command, *extra)
    assert rc == 1
    assert out == ""
    assert "error:" in err and "Traceback" not in err
    assert "finite" in err


def test_under_resolved_sweep_is_a_numerical_failure(capsys, monkeypatch):
    # the RWA CNOT pulse needs about a thousand Magnus steps; refuse past 128
    monkeypatch.setattr(pulses, "MAGNUS_MAX_STEPS", 128)
    pulses._magnus_window.cache_clear()
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

    def must_not_run(*args):
        passes.append(args)
        raise AssertionError("a Magnus pass ran past the step cap")

    monkeypatch.setattr(pulses, "_magnus_steps", must_not_run)
    pulses._magnus_window.cache_clear()
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


@pytest.mark.parametrize("cutoff", ["0", "-2"])
def test_protocol_refuses_a_fock_cutoff_below_1(capsys, cutoff):
    # each cavity qubit needs photon levels 0 and 1
    rc, out, err = run_cli(capsys, "protocol", "--gate", "cnot", "--fock-cutoff",
                           cutoff)
    assert rc == 1 and out == ""
    assert f"error: fock_cutoff must be >= 1, got {cutoff}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ("protocol", "--gate", "cnot", "--random", "2", "--seed", "-1"),
    ("ebit-noise", "--runs", "5", "--seed", "-2"),
], ids=["protocol-random", "ebit-noise"])
def test_a_negative_seed_is_bad_input(capsys, command):
    rc, out, err = run_cli(capsys, *command)
    assert rc == 1 and out == ""
    assert f"error: seed must be >= 0, got {command[-1]}" in err
    assert "Traceback" not in err


def test_ebit_noise_refuses_a_negative_seed_before_any_protocol_runs(capsys,
                                                                     monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the protocol ran before the seed was checked")

    monkeypatch.setattr(protocol, "run_nonlocal_cnot", refuse)
    rc, out, err = run_cli(capsys, "ebit-noise", "--runs", "5", "--seed", "-2")
    assert rc == 1 and out == ""
    assert "error: seed must be >= 0, got -2" in err
    assert "Traceback" not in err


def test_two_photon_reads_no_seed(capsys):
    rc, out, _ = run_cli(capsys, "two-photon", "--convention", "cyclic",
                         "--seed", "-1")
    assert rc == 0 and out.strip().splitlines()[1] == "chosen=cyclic"


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


@pytest.mark.parametrize("cutoff", ["2", "3"])
def test_protocol_physical_cnot_refuses_a_short_ladder(capsys, cutoff):
    # the composite CNOT runs the two-photon swap, which needs photon
    # number 4; the CQPG protocol has no swap and runs at cutoff 3
    rc, out, err = run_cli(capsys, "protocol", "--gate", "cnot", "--level",
                           "physical", "--fock-cutoff", cutoff)
    assert rc == 1 and out == ""
    assert "fock_cutoff must be >= 4 for the two-photon ladder" in err
    if cutoff == "3":
        rc, out, _ = run_cli(capsys, "protocol", "--gate", "cqpg", "--level",
                             "physical", "--fock-cutoff", cutoff)
        assert rc == 0 and len(out.strip().splitlines()) == 5


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


@pytest.mark.parametrize("text, rwa", [("off", False), ("On", True)])
def test_config_rwa_line_picks_the_drive(tmp_path, capsys, monkeypatch, text, rwa):
    seen = []
    monkeypatch.setattr(cli, "_simulated_fidelity",
                        lambda x, config: seen.append(config.rwa) or 1.0)
    cfg = tmp_path / "drive.cfg"
    cfg.write_text(f"rwa={text}\nmode=simulated\nsteps=1\n")
    rc, _out, _err = run_cli(capsys, "fidelity-sweep", "--config", str(cfg))
    assert (rc, seen) == (0, [rwa])   # rwa False is the full drive


def test_config_rwa_line_that_is_no_boolean_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "drive.cfg"
    cfg.write_text("rwa=maybe\nmode=simulated\n")
    rc, out, err = run_cli(capsys, "fidelity-sweep", "--config", str(cfg))
    assert (rc, out) == (1, "")
    assert "error: config rwa: expected a boolean, got 'maybe'" in err


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        rc, _out, _err = run_cli(capsys, "protocol", "--gate", "cnot",
                                 "--level", "ideal", "--random", "3",
                                 "--seed", "9", "--out", str(path))
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


# every key of `dressed`, with a value its converter takes and the command
# accepts; `out` is a string, which no value fails
_DRESSED_VALID = {"x": "0.05", "n_max": "2", "omega_rabi": "1.5", "seed": "7",
                  "out": "unused.csv", "fock_cutoff": "3", "tolerance": "1e-8"}
_REFUSED = ("", "abc", "0.1.2", "0.1 # note", "nan", "NaN", "inf", "-inf", "1e400")


@strategies.composite
def _config_line(draw):
    """One config line and what it does: (text, effect), effect None for a
    line the parser skips, "bad" for one it refuses whatever follows, and
    (key, refused) for a known key's value."""
    kind = draw(strategies.sampled_from(
        ["blank", "comment", "malformed", "unknown", "known", "known", "known"]))
    if kind == "blank":
        return draw(strategies.sampled_from(["", "   ", "\t"])), None
    if kind == "comment":
        return draw(strategies.sampled_from(["# x=nan", "  # n-max = 2", "#"])), None
    if kind == "malformed":
        return draw(strategies.sampled_from(["x 0.1", "garbage", "n_max: 2"])), "bad"
    pad = draw(strategies.sampled_from(["", " "]))
    if kind == "unknown":
        key = draw(strategies.sampled_from(["wavelength", "points", "N_max", "x_mix"]))
        return f"{key}{pad}={pad}1", "bad"
    key = draw(strategies.sampled_from(sorted(_DRESSED_VALID)))
    spelled = key.replace("_", draw(strategies.sampled_from(["_", "-"])))
    refused = draw(strategies.integers(0, 3)) == 0
    value = draw(strategies.sampled_from(_REFUSED)) if refused else _DRESSED_VALID[key]
    return f"{spelled}{pad}={pad}{value}", (key, refused and key != "out")


# derandomized, few examples and no example database: the same cases on
# every run, well under a second
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(strategies.lists(_config_line(), max_size=6))
def test_config_parser_exits_1_exactly_on_bad_files(lines):
    # a later value of a key replaces an earlier one before it is converted
    last = {}
    bad = False
    for _text, effect in lines:
        if effect == "bad":
            bad = True
        elif effect is not None:
            last[effect[0]] = effect[1]
    expected = 1 if bad or any(last.values()) else 0
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text("".join(text + "\n" for text, _effect in lines))
        out = Path(tmp) / "out.csv"
        rc = main(["dressed", "--config", str(cfg), "--out", str(out)])
        assert rc == expected
        if rc == 0:
            assert out.read_text().startswith("n,phi_n,")
