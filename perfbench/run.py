"""ctdopt benchmark: one workload, one closed-loop client, one process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload spike-frobenius --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout the script sits in; the
run exits with code 2, printing no result, when that source is missing.
Set-up (inputs built from the seed and one untimed warm-up operation) runs
three times; ``setup_s`` is the import time plus the median set-up.  Then a fixed batch of ``seconds / nominal_op_s``
operations runs, each started when the previous one returned, and every
output is checked.  With ``--trace 0`` the end-to-end metrics are reported;
with ``--trace 1`` the batch runs untraced and then traced, and the per-layer
metrics from the traced batch are reported; the warm-up operations then run
traced too, and their exact counts must equal those of the batch's
operation 0.  BLAS keeps its default thread
count.

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it holds the environment, the exact-count
fingerprint digests and extra figures; a fuller record (per-operation times,
fingerprints, exact counts and the traced spans) goes to
``perfbench-work/results/``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench-work")

# Set-up (input generation and the warm-up operation) runs this many times;
# its median counts, so one slow warm-up does not decide ``setup_s``.
SETUP_REPEATS = 3

# Address-space cap for the run.  An iterate whose rank runs away asks for a
# term Gram of rank^2 doubles (a 97344-term iterate asks for 70 GiB); under
# the cap that fails as one operation instead of exhausting the machine.
ADDRESS_SPACE_BYTES = 4 << 30


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def run_op(workload, i):
    """Run and check one operation: (seconds, ok, fingerprint, output).
    An exception counts as a failed operation."""
    t0 = time.perf_counter()
    try:
        out = workload.op(i)
    except Exception:
        elapsed = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return elapsed, False, {"error": traceback.format_exc(limit=1).splitlines()[-1]}, None
    elapsed = time.perf_counter() - t0
    try:
        ok, fingerprint = workload.check(i, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return elapsed, False, {"error": "check raised"}, out
    return elapsed, bool(ok), fingerprint, out


def run_batch(workload, n_ops, tracer=None):
    """Run operations 0..n_ops-1 back to back."""
    ops = []
    for i in range(n_ops):
        if tracer is not None:
            tracer.op(i)
        seconds, ok, fingerprint, out = run_op(workload, i)
        extra = out.get("times", {}) if isinstance(out, dict) else {}
        ops.append({"seconds": seconds, "ok": ok, "fingerprint": fingerprint, **extra})
    return ops


def end_to_end(setup_s, ops):
    seconds = [op["seconds"] for op in ops]
    # "inclusive" interpolates linearly between order statistics.
    p90 = statistics.quantiles(seconds, n=10, method="inclusive")[8] if len(seconds) > 1 else seconds[0]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(seconds), "s"),
        "op_p50_s": (statistics.median(seconds), "s"),
        "op_p90_s": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(metrics, traced_ops, untraced_ops):
    units = {"self_s": "s", "p50_s": "s", "json_bytes": "bytes"}
    out = {name: (value, units.get(name.rsplit(".", 1)[1], "count"))
           for name, value in metrics.items()}
    overhead = sum(op["seconds"] for op in traced_ops) - sum(op["seconds"] for op in untraced_ops)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, hard))

    if not os.path.isfile(os.path.join(SRC, "ctdopt", "__init__.py")):
        print(f"error: no package source at {os.path.relpath(SRC)}/ctdopt", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import ctdopt

    if not os.path.abspath(ctdopt.__file__).startswith(SRC + os.sep):
        print(f"error: ctdopt imported from {ctdopt.__file__}, not this checkout", file=sys.stderr)
        return 2
    import envinfo
    import workloads
    from tracer import EXACT_COUNTS, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T_START

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        n_ops = workload.batch_size(args.seconds)
        warm_ups, warm_counts = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(args.seed, n_ops)
            generate_s = time.perf_counter() - t0
            if args.trace:
                with Tracer() as warm_tracer:
                    (warm,) = run_batch(workload, 1, warm_tracer)
                warm_counts.append(warm_tracer.exact_counts()[0])
            else:
                (warm,) = run_batch(workload, 1)
            warm_ups.append(dict(warm, generate_s=generate_s))
        setup_s = import_s + statistics.median(w["generate_s"] + w["seconds"] for w in warm_ups)

        untraced = run_batch(workload, n_ops)
        traced = None
        if args.trace:
            with Tracer() as tracer:
                traced = run_batch(workload, n_ops, tracer)
            layers = tracer.layer_metrics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = untraced + (traced or [])
    failed = sum(not op["ok"] for op in measured)
    fingerprint = [op["fingerprint"] for op in untraced]
    reproduced = {"warm_ups_vs_op0": all(w["fingerprint"] == fingerprint[0] for w in warm_ups)}
    if traced is not None:
        reproduced["traced_vs_untraced"] = [op["fingerprint"] for op in traced] == fingerprint
        op_counts = tracer.exact_counts()
        counts = [op_counts[i] for i in range(n_ops)]
        reproduced["traced_warm_ups_vs_op0"] = all(c == counts[0] for c in warm_counts)
    correct = failed == 0 and all(w["ok"] for w in warm_ups) and all(reproduced.values())

    if traced is None:
        metrics = end_to_end(setup_s, untraced)
    else:
        metrics = per_layer(layers, traced, untraced)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "operations": n_ops,
        "failed_fraction": failed / len(measured),
        "fingerprint_digest": digest(fingerprint),
        "reproduced": reproduced,
        "env": envinfo.environment(ROOT),
    }
    if traced is not None:
        details["exact_counts_digest"] = digest(counts)
        details["exact_counts"] = {k: layers[k] for k in EXACT_COUNTS}
    for method in ("squaring", "power"):
        times = [op[method] for op in untraced if method in op]
        if times:
            details[f"{method}_p50_s"] = statistics.median(times)
    record = dict(details, ops=untraced, traced_ops=traced,
                  setup={"import_s": import_s, "warm_ups": warm_ups})
    if traced is not None:
        record.update(op_exact_counts=counts, warm_up_exact_counts=warm_counts,
                      spans=tracer.spans)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w") as fh:
        json.dump(record, fh, sort_keys=True)

    result = {
        "correct": correct,
        "attempted": len(measured),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
