"""Run the benchmark over several seeds and summarise it.

Usage (from the root of a checkout)::

    python3 perfbench/sweep.py --seeds 1-10 --out sweep.json
    python3 perfbench/sweep.py --workloads spike-frobenius --seeds 1-5

For each workload it runs one untraced process per seed, one after another.
For every end-to-end metric it reports the median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
interquartile distance as a share of the median.  It collects the
fingerprint digest of each seed and then makes two traced runs on the first
seed: the first gives the per-layer table, and both must give the same
exact-count digest.  Compare two summaries only when their
``env`` blocks match.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    """One benchmark process; returns (details, result) from its last two lines."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="inclusive range such as 1-10")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        rows = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        names = rows[0][1]["metrics"]
        entry = {
            "correct": all(r["correct"] for _, r in rows),
            "failed": sum(r["failed"] for _, r in rows),
            "attempted": sum(r["attempted"] for _, r in rows),
            "end_to_end": {m: summarise([r["metrics"][m]["value"] for _, r in rows])
                           for m in names},
            "fingerprint_digests": {d["seed"]: d["fingerprint_digest"] for d, _ in rows},
        }
        if "squaring_p50_s" in rows[0][0]:
            for key in ("squaring_p50_s", "power_p50_s"):
                entry[key] = summarise([d[key] for d, _ in rows])
        summary["env"] = rows[0][0]["env"]
        traced = [run_once(workload, args.seeds[0], seconds, 1) for _ in range(2)]
        details, result = traced[0]
        digests = [d["exact_counts_digest"] for d, _ in traced]
        entry["traced"] = {
            "seed": args.seeds[0],
            "correct": all(r["correct"] for _, r in traced),
            "reproduced": details["reproduced"],
            "fingerprint_digest": details["fingerprint_digest"],
            "exact_counts_digests": digests,
            "exact_counts_repeat": digests[0] == digests[1],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        }
        summary["workloads"][workload] = entry
        line = "  ".join(f"{m} {s['median']:.4g} ({s['spread']:.3f})"
                         for m, s in entry["end_to_end"].items())
        print(f"{workload}: correct={entry['correct']}  "
              f"counts_repeat={entry['traced']['exact_counts_repeat']}  {line}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
