"""One fresh interpreter's share of a benchmark run; run.py starts it.

usage: worker.py WORKLOAD SEED MODE WARM_SECONDS INDEX TRACE_FILE

Times the import of the program plus input generation (set-up), then the
workload's first call into the program; MODE probe stops there.  MODE run
then runs the rest of the cold pass and warm rounds for WARM_SECONDS; MODE
trace runs the whole cold pass traced, then a fixed number of warm rounds
untraced and the same rounds traced.  Prints one JSON line.
"""

import json
import os
import platform
import resource
import sys
import time


def main(argv) -> int:
    name, seed, mode, warm_seconds, index, trace_file = argv
    seed, warm_seconds, index = int(seed), float(warm_seconds), int(index)
    trace = mode == "trace"

    t0 = time.perf_counter()
    import workloads            # imports the program: cavitylink, numpy, scipy
    workload = workloads.WORKLOADS[name](seed)
    setup_s = time.perf_counter() - t0

    run = workloads.Run()
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    workload.first(run)
    out = {
        "setup_s": setup_s,
        "first_call_s": run.clock,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors[:20],
        "versions": {"python": platform.python_version(),
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__,
                     "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
    }
    if mode == "probe":
        print(json.dumps(out))
        return 0
    workload.cold(run)
    if tracer is not None:
        tracer.uninstall()

    def warm_round(k) -> float:
        clock = run.clock
        workload.warm_round(run, k)
        return run.clock - clock

    rounds, overhead_s = [], 0.0
    if trace:
        ks = range(workload.trace_rounds)
        untraced = sum(warm_round(k) for k in ks)
        tracer.install()
        overhead_s = sum(warm_round(k) for k in ks) - untraced
        tracer.uninstall()
    else:
        deadline = time.perf_counter() + warm_seconds
        while len(rounds) < 3 or time.perf_counter() < deadline:
            rounds.append(warm_round(len(rounds)))

    cold_kinds = [kind for kind in run.times if kind.endswith("_cold")]
    out.update({
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cold_s": sum(sum(run.times[kind]) for kind in cold_kinds),
        "inputs_per_round": len(workload.kinds),
        "kind_times": {**run.times, "rounds": rounds},
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors[:20],
    })
    if tracer is not None:
        tracer.write(trace_file)
        out["layers"] = tracing.layer_metrics(tracer.spans, overhead_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
