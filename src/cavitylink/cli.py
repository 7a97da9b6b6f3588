"""Deterministic command-line front end: CSV sweeps and protocol traces.

Subcommands: dressed, rabi, fidelity-sweep, two-photon, protocol,
ebit-noise.  Every subcommand honors --config FILE (plain-text KEY=VALUE
lines, # comments) with explicit flags winning over file values, and the
shared flags --seed, --out, --fock-cutoff, --tolerance.  Closed-form
numbers are serialized with 12 significant digits.  Integrator-derived
values in fidelity-sweep, two-photon and protocol --level physical are
first rounded to the decade of the tolerance the integrator ran at (see
_fmt_at_tol), so identical inputs give byte-identical output across
machines, not only across runs.
Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from types import SimpleNamespace

import numpy as np

from .qstate import QStateError, StateVector, make_rng
from .jcmodel import (JCParams, desk_params, dressed_energies, jc_rotating,
                      jc_space, mixing_angle)
from .pulses import StiffnessError, evolve_tdse
from .perturb import (SOURCE_POINT_ANGULAR, SOURCE_POINT_CYCLIC, QuadratureError,
                      calibrate_convention, two_photon_probability,
                      two_photon_tdse_oracle)
from .gates import (PhysicalGateConfig, fidelity_closed_form,
                    physical_cnot_cavity_to_atom)
from .protocol import (PhotonGunModel, ProtocolConfig, ProtocolError,
                       monte_carlo_gun_fidelity, run_nonlocal_cnot,
                       run_nonlocal_cqpg)


class CliError(ValueError):
    pass


def _fmt(value) -> str:
    return format(value, ".12g")


def _fmt_at_tol(value, tol: float) -> str:
    """Format an integrator result no finer than the tolerance it ran at.

    Rounds to floor(-log10(tol)) decimals, so the printed quantum is never
    finer than tol, then prints through _fmt.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise CliError(f"tolerance must be finite and > 0, got {tol}")
    return _fmt(round(float(value), math.floor(-math.log10(tol))))


def _cbool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise CliError(f"expected a boolean, got {text!r}")


def _camps(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise CliError(f"--amps needs 4 comma-separated values, got {len(parts)}")
    try:
        return tuple(complex(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"bad amplitude in {text!r}: {exc}") from None


def _choice(*options):
    def conv(text: str) -> str:
        if text not in options:
            raise CliError(f"expected one of {options}, got {text!r}")
        return text
    return conv


GLOBAL_SCHEMA = {
    "seed": (int, None, "seed of protocol --random inputs and the ebit-noise Monte Carlo"),
    "out": (str, None, "output file (default: stdout)"),
    "fock_cutoff": (int, 5, "maximum photon number kept per cavity"),
    "tolerance": (float, 1e-10, "integrator tolerance"),
}

SCHEMAS = {
    "dressed": {
        "x": (float, 0.1, "coupling-to-detuning ratio Omega/delta"),
        "n_max": (int, 3, "highest excitation manifold listed"),
        "omega_rabi": (float, 1.0, "vacuum Rabi coupling Omega"),
    },
    "rabi": {
        "t_max": (float, 2.0 * math.pi, "end time of the oscillation scan"),
        "points": (int, 50, "number of sample times"),
        "omega_rabi": (float, 1.0, "vacuum Rabi coupling Omega"),
    },
    "fidelity-sweep": {
        "x_min": (float, 0.01, "smallest x in the sweep"),
        "x_max": (float, 0.1, "largest x in the sweep"),
        "steps": (int, 10, "number of sweep points"),
        "mode": (_choice("formula", "simulated", "both"), "formula",
                 "which fidelity columns to fill"),
        "rwa": (_cbool, True, "rotating-wave drive (--no-rwa for the full model)"),
    },
    "two-photon": {
        "convention": (_choice("auto", "angular", "cyclic"), "auto",
                       "frequency reading of the quoted parameters"),
    },
    "protocol": {
        "gate": (_choice("cnot", "cqpg"), None, "which nonlocal gate to run"),
        "level": (_choice("ideal", "physical"), "ideal", "circuit or pulse model"),
        "amps": (_camps, None, "a,b,c,d amplitudes, python complex syntax"),
        "random": (int, None, "run N random normalized inputs instead of --amps"),
        "trace": (str, None, "trace file (default: OUT.trace when --out is set)"),
    },
    "ebit-noise": {
        "p_empty": (float, 0.0, "probability of an empty gun emission"),
        "p_double": (float, 0.0, "probability of a double emission"),
        "p_single": (float, None, "single-photon probability (default: remainder)"),
        "runs": (int, 10000, "Monte-Carlo sample count"),
    },
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cavitylink",
                     description="cavity-QED nonlocal gate simulator")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name, prog=f"cavitylink {name}")
        p.add_argument("--config", default=None,
                       help="KEY=VALUE config file; flags win")
        for dest, (conv, _default, helptext) in {**schema, **GLOBAL_SCHEMA}.items():
            flag = "--" + dest.replace("_", "-")
            if conv is _cbool:
                group = p.add_mutually_exclusive_group()
                group.add_argument(flag, dest=dest, action="store_const",
                                   const=True, default=None, help=helptext)
                group.add_argument("--no-" + dest.replace("_", "-"), dest=dest,
                                   action="store_const", const=False,
                                   help="disable " + dest)
            else:
                p.add_argument(flag, dest=dest, type=conv, default=None,
                               help=helptext)
    return parser


def _read_config(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config {path!r}: {exc}") from None
    return values


def _resolve(args: argparse.Namespace, command: str) -> SimpleNamespace:
    schema = {**SCHEMAS[command], **GLOBAL_SCHEMA}
    config = _read_config(args.config) if args.config else {}
    unknown = sorted(set(config) - set(schema))
    if unknown:
        raise CliError(f"unknown config key(s): {', '.join(unknown)}")
    resolved = {}
    for dest, (conv, default, _help) in schema.items():
        value = getattr(args, dest, None)
        if value is None and dest in config:
            value = conv(config[dest])
        if value is None:
            value = default
        resolved[dest] = value
    return SimpleNamespace(**resolved)


def _emit(lines, out_path) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_dressed(ns) -> int:
    if ns.x < 0:
        raise CliError(f"--x must be >= 0, got {ns.x}")
    if ns.n_max < 0:
        raise CliError(f"--n-max must be >= 0, got {ns.n_max}")
    params = desk_params(ns.omega_rabi, x=ns.x)
    lines = ["n,phi_n,E_plus,E_minus,bare_overlap"]
    for n in range(ns.n_max + 1):
        phi = mixing_angle(params, n)
        e_plus, e_minus = dressed_energies(params, n)
        lines.append(",".join([str(n), _fmt(phi), _fmt(float(e_plus)),
                               _fmt(float(e_minus)), _fmt(math.cos(phi))]))
    _emit(lines, ns.out)
    return 0


def cmd_rabi(ns) -> int:
    if ns.points < 2:
        raise CliError(f"--points must be >= 2, got {ns.points}")
    if ns.t_max <= 0:
        raise CliError(f"--t-max must be > 0, got {ns.t_max}")
    if ns.fock_cutoff < 2:
        raise CliError(f"--fock-cutoff must be >= 2, got {ns.fock_cutoff}")
    params = JCParams(omega0=1.0, omega=1.0, rabi_coupling=ns.omega_rabi)
    static = jc_rotating(params, ns.fock_cutoff)
    space = jc_space(ns.fock_cutoff)
    start = space.basis_state({"atom": 0, "cavity": 1})    # |g,1>
    lines = ["t,p_analytic,p_tdse,abs_diff"]
    for t in np.linspace(0.0, ns.t_max, ns.points):
        p_analytic = math.sin(ns.omega_rabi * t) ** 2
        if t == 0.0:
            p_tdse = abs(start.amplitude({"atom": 1, "cavity": 0})) ** 2
        else:
            final = evolve_tdse(start, static, [], 0.0, float(t), ns.tolerance)
            p_tdse = abs(final.amplitude({"atom": 1, "cavity": 0})) ** 2
        lines.append(",".join([_fmt(float(t)), _fmt(p_analytic), _fmt(p_tdse),
                               _fmt(abs(p_analytic - p_tdse))]))
    _emit(lines, ns.out)
    return 0


def cmd_fidelity_sweep(ns) -> int:
    if ns.steps < 1:
        raise CliError(f"--steps must be >= 1, got {ns.steps}")
    if ns.x_max < ns.x_min:
        raise CliError(f"need x_max >= x_min, got [{ns.x_min}, {ns.x_max}]")
    simulate = ns.mode in ("simulated", "both")
    if simulate and ns.x_min <= 0:
        raise CliError("x_min must be > 0 in simulated mode")
    if ns.mode == "formula" and ns.x_min < 0:
        raise CliError("x must be >= 0")
    xs = np.linspace(ns.x_min, ns.x_max, ns.steps)
    config = PhysicalGateConfig(fock_cutoff=ns.fock_cutoff, rwa=ns.rwa,
                                tol=ns.tolerance)
    lines = ["x,F_formula,F_simulated,abs_diff"]
    diffs = []
    for x in xs:
        x = float(x)
        f_formula = fidelity_closed_form(x) if ns.mode in ("formula", "both") else None
        f_sim = None
        if simulate:
            f_sim = _simulated_fidelity(x, config)
        diff = None
        if f_formula is not None and f_sim is not None:
            diff = abs(f_formula - f_sim)
            if 0.01 - 1e-12 <= x <= 0.1 + 1e-12:
                diffs.append(diff)
        lines.append(",".join([
            _fmt(x),
            _fmt(f_formula) if f_formula is not None else "",
            _fmt_at_tol(f_sim, ns.tolerance) if f_sim is not None else "",
            _fmt_at_tol(diff, ns.tolerance) if diff is not None else "",
        ]))
    if ns.mode == "both":
        footer = _fmt_at_tol(max(diffs), ns.tolerance) if diffs else ""
        lines.append(f"max_abs_diff,,,{footer}")
    _emit(lines, ns.out)
    return 0


def _simulated_fidelity(x: float, config: PhysicalGateConfig) -> float:
    params = desk_params(1.0, x=x)
    space = jc_space(config.fock_cutoff)
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.index({"atom": 0, "cavity": 1})] = 1.0 / math.sqrt(2)   # a |1>
    amp[space.index({"atom": 0, "cavity": 0})] = 1.0 / math.sqrt(2)   # b |0>
    state = StateVector(space, amp)
    result = physical_cnot_cavity_to_atom(state, params, config)
    return result.fidelity_vs_ideal


def cmd_two_photon(ns) -> int:
    lines = []
    band_center, band_width = 0.47, 0.02
    if ns.convention == "auto":
        report = calibrate_convention(band_center, band_width, tol=ns.tolerance)
        for name in ("angular", "cyclic"):
            exact = _fmt_at_tol(report.tdse[name], ns.tolerance)
            lines.append(f"convention={name} "
                         f"perturbative={_fmt(report.perturbative[name])} "
                         f"tdse={exact}")
        chosen, in_band = report.chosen, report.in_band
        pert = report.perturbative[chosen]
    else:
        point = {"angular": SOURCE_POINT_ANGULAR, "cyclic": SOURCE_POINT_CYCLIC}[ns.convention]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pert = two_photon_probability(point)
            exact = two_photon_tdse_oracle(point, tol=ns.tolerance)
        lines.append(f"convention={ns.convention} perturbative={_fmt(pert)} "
                     f"tdse={_fmt_at_tol(exact, ns.tolerance)}")
        chosen = ns.convention
        in_band = abs(pert - band_center) <= band_width
    lines.append(f"chosen={chosen}")
    lines.append(f"target={_fmt(band_center)} band={_fmt(band_width)} "
                 f"in_band={str(in_band).lower()}")
    _emit(lines, ns.out)
    return 0


def _random_amplitude_sets(count: int, seed) -> list:
    rng = make_rng(0 if seed is None else seed)
    sets = []
    for _ in range(count):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        a, b, c, d = raw
        n_ab = math.hypot(abs(a), abs(b))
        n_cd = math.hypot(abs(c), abs(d))
        sets.append((a / n_ab, b / n_ab, c / n_cd, d / n_cd))
    return sets


def cmd_protocol(ns) -> int:
    if ns.gate is None:
        raise CliError("--gate is required (cnot or cqpg)")
    if ns.amps is not None and ns.random is not None:
        raise CliError("--amps and --random are mutually exclusive")
    runner = run_nonlocal_cnot if ns.gate == "cnot" else run_nonlocal_cqpg
    config = ProtocolConfig(fock_cutoff=ns.fock_cutoff, tol=ns.tolerance)
    if ns.random is not None:
        if ns.random < 1:
            raise CliError(f"--random must be >= 1, got {ns.random}")
        amp_sets = _random_amplitude_sets(ns.random, ns.seed)
        multi = True
    else:
        r = 1.0 / math.sqrt(2)
        amp_sets = [ns.amps if ns.amps is not None else (r, r, r, r)]
        multi = False

    # the ideal level is exact; physical values are integrator results
    fmt = _fmt if ns.level == "ideal" else (lambda v: _fmt_at_tol(v, ns.tolerance))
    summary = ["run,branch,probability,fidelity_vs_ideal" if multi
               else "branch,probability,fidelity_vs_ideal"]
    trace_lines = []
    all_good = True
    for idx, (a, b, c, d) in enumerate(amp_sets):
        trace = runner(a, b, c, d, level=ns.level, config=config)
        prefix = f"run={idx} " if multi else ""
        trace_lines.extend(prefix + line for line in trace.trace_lines())
        for label, prob, fid in trace.summary_rows():
            row = [label, fmt(prob), fmt(fid)]
            if multi:
                row.insert(0, str(idx))
            summary.append(",".join(row))
            if fid < 1.0 - 1e-9:
                all_good = False
    _emit(summary, ns.out)
    trace_path = ns.trace if ns.trace else (ns.out + ".trace" if ns.out else None)
    if trace_path:
        _emit(trace_lines, trace_path)
    if ns.level == "ideal":
        return 0 if all_good else 1
    return 0


def cmd_ebit_noise(ns) -> int:
    if ns.runs < 1:
        raise CliError(f"--runs must be >= 1, got {ns.runs}")
    p_single = ns.p_single
    if p_single is None:
        p_single = 1.0 - ns.p_empty - ns.p_double
    if p_single < 0:
        raise CliError("p_empty + p_double exceed 1 with no --p-single override")
    model = PhotonGunModel(p_empty=ns.p_empty, p_double=ns.p_double,
                           p_single=p_single)
    result = monte_carlo_gun_fidelity(model, n_runs=ns.runs,
                                      seed=0 if ns.seed is None else ns.seed)
    lines = ["p_empty,p_double,p_single,runs,mean_fidelity,flagged_fraction",
             ",".join([_fmt(ns.p_empty), _fmt(ns.p_double), _fmt(p_single),
                       str(ns.runs), _fmt(result["mean_fidelity"]),
                       _fmt(result["flagged_probability"])])]
    _emit(lines, ns.out)
    return 0


COMMANDS = {
    "dressed": cmd_dressed,
    "rabi": cmd_rabi,
    "fidelity-sweep": cmd_fidelity_sweep,
    "two-photon": cmd_two_photon,
    "protocol": cmd_protocol,
    "ebit-noise": cmd_ebit_noise,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        ns = _resolve(args, args.command)
        return COMMANDS[args.command](ns)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    except (CliError, QStateError, ProtocolError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (QuadratureError, StiffnessError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
