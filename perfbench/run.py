"""Benchmark of the cavitylink simulator, run from the root of a checkout.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts INTERPRETERS fresh interpreters one after the other (one
with --trace 1), so every cold pass meets empty engine caches, as a user's
first CLI call does.  Each imports the program from ./src and makes the
workload's first call.  WORKERS[NAME] of them then run the rest of the
cold pass and warm rounds for S seconds; the others, probes, stop after
the first call.  The last line of standard output is one JSON object:
correct, attempted, failed and the metrics of BENCHMARK.json (end_to_end
with --trace 0, per_layer with --trace 1).  The lines before it name the
per-workload figures behind them.  Results, with every interpreter's
samples, and span traces go to perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
TIME_LIMIT_S = 170.0
INTERPRETERS = 7    # set-up and first-call samples per untraced run

# interpreters that run the whole workload; more where a cold pass is cheap
WORKERS = {"protocol-physical": 2, "gate-sweep": 2, "protocol-ideal": 4}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _cold(workers, kind):
    return _median(sum(w["kind_times"][kind]) for w in workers
                   if kind in w["kind_times"])


def _warm(workers, kind):
    # each interpreter's median, then the mean: machine speed drifts over
    # seconds, and a median of pooled rounds would jump between its modes
    medians = [statistics.median(w["kind_times"][kind]) for w in workers
               if w["kind_times"].get(kind)]
    return statistics.fmean(medians) if medians else None


def _per_s(inputs, *seconds):
    return None if None in seconds else inputs / sum(seconds)


# The per-workload figures behind the end-to-end metrics, by name: each
# takes the full workers and the first-call times of every interpreter.
FIGURES = {
    "protocol-physical": lambda ws, first: [
        ("cqpg_cold_s", _median(first), "s"),
        ("cnot_cold_s", _cold(ws, "cnot_cold"), "s"),
        ("cnot_physical_inputs_per_s", _per_s(1, _warm(ws, "cnot")), "1/s"),
        ("cqpg_physical_inputs_per_s", _per_s(1, _warm(ws, "cqpg")), "1/s")],
    "gate-sweep": lambda ws, first: [
        ("two_photon_s", _median(first), "s"),
        ("sweep_rwa_s", _cold(ws, "sweep_rwa_cold"), "s"),
        ("sweep_full_s", _cold(ws, "sweep_full_cold"), "s")],
    "protocol-ideal": lambda ws, first: [
        ("ideal_inputs_per_s", _per_s(2, _warm(ws, "cnot_product"),
                                      _warm(ws, "cqpg_product")), "1/s"),
        ("ideal_ancilla_inputs_per_s", _per_s(2, _warm(ws, "cnot_ancilla"),
                                              _warm(ws, "cqpg_ancilla")), "1/s")],
}


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # numpy's BLAS may use every core this process may run on, no more
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def _modes(workload: str, trace: bool) -> list:
    """Interpreter modes in order: probes spread before, between and after
    the workers, so that the first-call samples meet different phases of
    the machine's speed."""
    if trace:
        return ["trace"]
    n_workers = WORKERS[workload]
    n_probes = INTERPRETERS - n_workers
    gaps = n_workers + 1
    modes = []
    for g in range(gaps):
        if g:
            modes.append("run")
        modes += ["probe"] * (n_probes * (g + 1) // gaps - n_probes * g // gaps)
    return modes


def _run_workers(args, trace_file: str) -> list:
    """The JSON line of each interpreter, in order."""
    started = time.monotonic()
    env = _worker_env()
    results = []
    for index, mode in enumerate(_modes(args.workload, args.trace)):
        remaining = TIME_LIMIT_S - (time.monotonic() - started)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
               str(args.seed), mode, repr(args.seconds), str(index), trace_file]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(remaining, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {index} exited {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def summarize(workload: str, results: list, trace: bool) -> tuple:
    """(lines to print before the result, the result object)."""
    workers = [r for r in results if "kind_times" in r]
    errors = [e for r in results for e in r["errors"]]
    lines = [f"CHECK FAILED: {message}" for message in errors]
    versions = results[0]["versions"]
    lines.append("# " + " ".join(f"{k}={v}" for k, v in versions.items())
                 + f" nproc={len(os.sched_getaffinity(0))}"
                 + f" interpreters={len(results)} workers={len(workers)}")
    if trace:
        layers = workers[0]["layers"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        first = [r["first_call_s"] for r in results]
        metrics = {
            "setup_s": (_median(r["setup_s"] for r in results), "s"),
            "first_call_s": (_median(first), "s"),
            "peak_rss_mb": (_median(w["rss_mb"] for w in workers), "MB"),
            "cold_s": (_median(w["cold_s"] for w in workers), "s"),
            "warm_inputs_per_s": (_per_s(workers[0]["inputs_per_round"],
                                         _warm(workers, "rounds")), "1/s"),
        }
        for name, value, unit in FIGURES[workload](workers, first):
            shown = "n/a" if value is None else f"{value:.6g}"
            lines.append(f"{workload} {name} = {shown} {unit}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in metrics.items()}
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not errors,
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(SRC, "cavitylink", "__init__.py")):
        sys.stderr.write(f"perfbench: no program to run, {SRC}/cavitylink is missing\n")
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = os.path.join(RESULTS, f"spans-{stem}.json")
    try:
        results = _run_workers(args, trace_file)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    lines, result = summarize(args.workload, results, bool(args.trace))
    for line in lines:
        print(line)
    with open(os.path.join(RESULTS, f"result-{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "interpreters": results}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
