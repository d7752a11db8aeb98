"""Seeded experiment drivers behind the command-line interface.

Each runner writes its artifacts (trace CSVs, summary JSON, a manifest
sufficient to re-run it) into a target directory and returns the summary
dictionary.  With a fixed seed every CSV and JSON artifact is bit-identical
across runs on one platform; wall-clock measurements never mix into those
files and are written to separate timing files instead.
"""

import json
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .ctd import add, eval_entry, load_ctd, random_ctd, save_ctd, spike_ctd
from .maxentry import (
    FixedIterations,
    LambdaStall,
    MaxEntrySearchConfig,
    RankThreshold,
    power_method_max,
    squaring_max,
)
from .reduction import ReductionConfig, reduce
from .sepfunc import (
    AckleyParams,
    Grid,
    ackley_eval,
    ackley_separated,
    build_cosine_grid,
    build_gaussian_expansion,
    build_radial_grid,
    certify_expansion,
    merge_grids,
    optimize_function,
)

_EXPERIMENTS = ("demo-convergence", "demo-two-maxima", "compare", "ackley")


def parse_termination(text):
    """Parse a termination rule from its ``kind:value`` string form.

    Accepted forms are ``fixed:N``, ``lambda:DELTA``, and ``rank:R``.
    """
    kind, sep, arg = str(text).partition(":")
    if not sep:
        raise ValueError(f"termination rule {text!r} is not of the form kind:value")
    try:
        if kind == "fixed":
            return FixedIterations(int(arg))
        if kind == "lambda":
            return LambdaStall(float(arg))
        if kind == "rank":
            return RankThreshold(int(arg))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad termination rule {text!r}: {exc}") from exc
    raise ValueError(f"unknown termination kind {kind!r}")


def termination_to_string(rule):
    """Inverse of :func:`parse_termination`."""
    if isinstance(rule, FixedIterations):
        return f"fixed:{rule.n}"
    if isinstance(rule, LambdaStall):
        return f"lambda:{rule.delta}"
    if isinstance(rule, RankThreshold):
        return f"rank:{rule.rank}"
    raise ValueError(f"no string form for termination rule {rule!r}")


@dataclass
class ExperimentConfig:
    """Which experiment to run, with what knobs, and where to put artifacts.

    Fields left at None fall back to the experiment's own defaults, which
    reproduce the reference configuration for that experiment.
    """

    experiment: str
    out_dir: str = "."
    seed: int = 0
    trials: int = 100
    dims: int | None = None
    modes: int | None = None
    background_rank: int | None = None
    epsilon: float | None = None
    norm: str | None = None
    algorithm: str | None = None
    termination: object | None = None
    k_max: int | None = None

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"experiment must be one of {_EXPERIMENTS}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def _pick(value, default):
    return default if value is None else value


def _dump_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir, config):
    doc = {"version": __version__, "config": config}
    _dump_json(doc, os.path.join(out_dir, "manifest.json"))


def _experiment_echo(cfg):
    return {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "out_dir": cfg.out_dir,
    }


def _search_echo(search):
    red = search.reduction
    return {
        "reduction": None
        if red is None
        else {
            "epsilon": red.epsilon,
            "norm": red.norm,
            "algorithm": red.algorithm,
            "max_rank": red.max_rank,
        },
        "termination": termination_to_string(search.termination),
        "k_max": search.k_max,
    }


def background_instance(d, M, rank, rng):
    """Rank-``rank`` tensor on a d-fold M-point grid with factor entries
    uniform on [0.9, 1)."""
    return random_ctd([M] * d, rank, low=0.9, high=1.0, rng=rng)


def plant_spike(U, rng, spike_to=None, spike_add=None, avoid=()):
    """Spike ``U`` at a fresh random location.

    ``spike_to`` sets the entry there to that value exactly; ``spike_add``
    adds that magnitude on top of the background.  Returns the spiked CTD
    and the 0-based location.
    """
    if (spike_to is None) == (spike_add is None):
        raise ValueError("give exactly one of spike_to, spike_add")
    while True:
        loc = tuple(int(rng.integers(0, m)) for m in U.modes)
        if loc not in avoid:
            break
    magnitude = spike_add if spike_to is None else spike_to - eval_entry(U, loc)
    return add(U, spike_ctd(U.modes, loc, magnitude)), loc


def run_demo_convergence(cfg):
    """Single squaring run on a spiked random background, trace to CSV.

    Defaults: six dimensions, 32 points per dimension, rank-3 background,
    one spike raising the maximum entry to 3.5, interpolative Frobenius
    reduction at 1e-6, stop at rank 1.
    """
    d = _pick(cfg.dims, 6)
    M = _pick(cfg.modes, 32)
    bg_rank = _pick(cfg.background_rank, 3)
    epsilon = _pick(cfg.epsilon, 1e-6)
    norm = _pick(cfg.norm, "frobenius")
    algorithm = _pick(cfg.algorithm, "id")
    termination = _pick(cfg.termination, RankThreshold(1))
    k_max = _pick(cfg.k_max, 30)

    rng = np.random.default_rng(cfg.seed)
    background = background_instance(d, M, bg_rank, rng)
    U, loc = plant_spike(background, rng, spike_to=3.5)

    search = MaxEntrySearchConfig(
        reduction=ReductionConfig(epsilon=epsilon, norm=norm, algorithm=algorithm),
        termination=termination,
        k_max=k_max,
    )
    trace = squaring_max(U, search)
    found = trace.candidates[0]

    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "convergence_trace.csv"), "w") as fh:
        fh.write(trace.to_csv())
    summary = {
        "planted_location": [i + 1 for i in loc],
        "found_location": [i + 1 for i in found.index],
        "location_correct": found.index == loc,
        "maximum_value": found.value,
        "iterations": trace.iterations,
        "final_rank": trace.final_rank,
        "flags": list(trace.flags),
    }
    _dump_json(summary, os.path.join(cfg.out_dir, "convergence_summary.json"))
    _write_manifest(
        cfg.out_dir,
        {
            **_experiment_echo(cfg),
            "dims": d,
            "modes": M,
            "background_rank": bg_rank,
            "spike_to": 3.5,
            **_search_echo(search),
        },
    )
    return summary


def run_demo_two_maxima(cfg):
    """Two equal spikes: candidates at fixed k=6, then an extended run.

    The k=6 run reports both planted locations; the extended run shows the
    iterate eventually collapsing to a single term once floating-point noise
    breaks the tie.
    """
    d = _pick(cfg.dims, 6)
    M = _pick(cfg.modes, 32)
    bg_rank = _pick(cfg.background_rank, 3)
    epsilon = _pick(cfg.epsilon, 1e-6)
    norm = _pick(cfg.norm, "frobenius")
    algorithm = _pick(cfg.algorithm, "id")
    extended_k_max = _pick(cfg.k_max, 60)

    rng = np.random.default_rng(cfg.seed)
    background = background_instance(d, M, bg_rank, rng)
    partial, loc_a = plant_spike(background, rng, spike_to=3.5)
    U, loc_b = plant_spike(partial, rng, spike_to=3.5, avoid=(loc_a,))

    reduction = ReductionConfig(epsilon=epsilon, norm=norm, algorithm=algorithm)
    search_k6 = MaxEntrySearchConfig(
        reduction=reduction, termination=FixedIterations(6), k_max=max(6, extended_k_max)
    )
    trace_k6 = squaring_max(U, search_k6)
    found_k6 = [c.index for c in trace_k6.candidates]

    search_ext = MaxEntrySearchConfig(
        reduction=reduction, termination=RankThreshold(1), k_max=extended_k_max
    )
    trace_ext = squaring_max(U, search_ext)

    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "two_maxima_k6_trace.csv"), "w") as fh:
        fh.write(trace_k6.to_csv())
    with open(os.path.join(cfg.out_dir, "two_maxima_extended_trace.csv"), "w") as fh:
        fh.write(trace_ext.to_csv())
    summary = {
        "planted_locations": [[i + 1 for i in loc] for loc in (loc_a, loc_b)],
        "k6": {
            "candidates": [
                {"index": [i + 1 for i in c.index], "value": c.value}
                for c in trace_k6.candidates
            ],
            "both_planted_present": set((loc_a, loc_b)) <= set(found_k6),
            "final_rank": trace_k6.final_rank,
        },
        "extended": {
            "iterations": trace_ext.iterations,
            "final_rank": trace_ext.final_rank,
            "surviving_location": [i + 1 for i in trace_ext.candidates[0].index],
            "surviving_value": trace_ext.candidates[0].value,
            "flags": list(trace_ext.flags),
        },
    }
    _dump_json(summary, os.path.join(cfg.out_dir, "two_maxima_summary.json"))
    _write_manifest(
        cfg.out_dir,
        {
            **_experiment_echo(cfg),
            "dims": d,
            "modes": M,
            "background_rank": bg_rank,
            "spike_to": 3.5,
            "spikes": 2,
            "fixed_iterations": 6,
            "extended_k_max": extended_k_max,
            "reduction": {
                "epsilon": epsilon,
                "norm": norm,
                "algorithm": algorithm,
                "max_rank": None,
            },
        },
    )
    return summary


def run_compare(cfg):
    """Squaring vs power method over seeded trials on spiked backgrounds.

    Defaults: eight dimensions, 32 points, rank-4 background plus a
    magnitude-4 spike, interpolative reduction at 1e-6 in the s-norm, stop
    at rank 1.  Iteration counts and correctness go to one CSV; wall times
    go to a separate CSV so the deterministic artifacts stay bit-identical
    under a fixed seed.
    """
    d = _pick(cfg.dims, 8)
    M = _pick(cfg.modes, 32)
    bg_rank = _pick(cfg.background_rank, 4)
    epsilon = _pick(cfg.epsilon, 1e-6)
    norm = _pick(cfg.norm, "snorm")
    algorithm = _pick(cfg.algorithm, "id")
    termination = _pick(cfg.termination, RankThreshold(1))
    k_max = _pick(cfg.k_max, 100)

    search = MaxEntrySearchConfig(
        reduction=ReductionConfig(epsilon=epsilon, norm=norm, algorithm=algorithm),
        termination=termination,
        k_max=k_max,
    )
    methods = (("squaring", squaring_max), ("power", power_method_max))

    rows = []
    times = []
    iters = {"squaring": [], "power": []}
    correct = {"squaring": 0, "power": 0}
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, t])
        background = background_instance(d, M, bg_rank, rng)
        U, loc = plant_spike(background, rng, spike_add=4.0)
        for name, runner in methods:
            t0 = time.perf_counter()
            trace = runner(U, search)
            elapsed = time.perf_counter() - t0
            hit = trace.candidates[0].index == loc
            rows.append((t, name, trace.iterations, int(hit)))
            times.append((t, name, elapsed))
            iters[name].append(trace.iterations)
            correct[name] += hit

    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "compare_results.csv"), "w") as fh:
        fh.write("trial,method,iterations,correct\n")
        for t, name, n_it, hit in rows:
            fh.write(f"{t},{name},{n_it},{hit}\n")
    with open(os.path.join(cfg.out_dir, "compare_times.csv"), "w") as fh:
        fh.write("trial,method,seconds\n")
        for t, name, elapsed in times:
            fh.write(f"{t},{name},{elapsed:.6f}\n")

    fewer = sum(
        1 for sq, pw in zip(iters["squaring"], iters["power"]) if sq < pw
    )
    summary = {
        "trials": cfg.trials,
        "correct_fraction": {
            name: correct[name] / cfg.trials for name in iters
        },
        "iterations": {
            name: {
                "median": statistics.median(iters[name]),
                "min": min(iters[name]),
                "max": max(iters[name]),
            }
            for name in iters
        },
        "squaring_fewer_iterations_fraction": fewer / cfg.trials,
    }
    _dump_json(summary, os.path.join(cfg.out_dir, "compare_summary.json"))

    by_method = {name: [e for _, n, e in times if n == name] for name in iters}
    times_summary = {
        "median_seconds": {
            name: statistics.median(vals) for name, vals in by_method.items()
        },
        "squaring_faster": statistics.median(by_method["squaring"])
        < statistics.median(by_method["power"]),
    }
    _dump_json(times_summary, os.path.join(cfg.out_dir, "compare_times_summary.json"))

    _write_manifest(
        cfg.out_dir,
        {
            **_experiment_echo(cfg),
            "dims": d,
            "modes": M,
            "background_rank": bg_rank,
            "spike_add": 4.0,
            **_search_echo(search),
        },
    )
    return summary


_ACKLEY_EXPANSION_EPS = 1e-8
_ACKLEY_EXPANSION_DELTA = 3e-6


def run_ackley(cfg):
    """End-to-end grid maximization of the separated Ackley function.

    Builds the Gaussian expansion of the radial part, the per-dimension
    grid (Gaussian-matched points inside, cosine oversampling outside),
    samples to a CTD, locates the maximum entry by Hadamard squaring, and
    polishes with a compass search on the exact function.  Deterministic:
    no randomness anywhere in the pipeline.
    """
    d = _pick(cfg.dims, 10)
    epsilon = _pick(cfg.epsilon, 1e-6)
    norm = _pick(cfg.norm, "snorm")
    algorithm = _pick(cfg.algorithm, "id")
    termination = _pick(cfg.termination, RankThreshold(1))
    k_max = _pick(cfg.k_max, 100)

    p = AckleyParams(d=d)
    g = build_gaussian_expansion(
        p.b, d, _ACKLEY_EXPANSION_EPS, _ACKLEY_EXPANSION_DELTA, math.sqrt(d)
    )
    f = ackley_separated(p, g)
    radial = build_radial_grid(g)
    cosine = build_cosine_grid(p.c)
    merged = merge_grids(radial, cosine)
    grid = Grid.uniform_product(merged, d, (-1.0, 1.0))

    search = MaxEntrySearchConfig(
        reduction=ReductionConfig(epsilon=epsilon, norm=norm, algorithm=algorithm),
        termination=termination,
        k_max=k_max,
    )
    report = optimize_function(f, grid, search, exact=lambda x: ackley_eval(p, x))

    true_max = p.a + math.e
    nonzero = merged[merged != 0.0]
    innermost = float(np.min(np.abs(nonzero)))
    certified = certify_expansion(g, np.geomspace(g.delta, g.x_max, 100_000))
    if innermost < g.delta:
        strip = certify_expansion(g, np.geomspace(innermost, g.delta, 10_000))
    else:
        strip = 0.0
    x_inner = np.zeros(d)
    x_inner[0] = innermost
    inner_defect = abs(f.value(x_inner) - ackley_eval(p, x_inner))

    doc = {
        "ackley": {"d": d, "a": p.a, "b": p.b, "c": p.c, "true_max": true_max},
        "expansion": {
            "terms": g.terms,
            "h": g.h,
            "s_start": g.s_start,
            "eps": g.eps,
            "delta": g.delta,
            "x_max": g.x_max,
            "certified_sup_error": certified,
        },
        "grid": {
            "radial_points": int(radial.size),
            "cosine_points": int(cosine.size),
            "points_before_merge": int(radial.size + cosine.size),
            "points_per_dimension": int(merged.size),
            "innermost_nonzero_radius": innermost,
        },
        "report": report.to_json_dict(),
        "tensor_distance_to_origin": float(np.linalg.norm(report.tensor_point)),
        "refined_distance_to_origin": float(np.linalg.norm(report.refined_point)),
        "relative_value_error": abs(report.refined_value - true_max) / true_max,
        "checks": {
            "grid_resolves_below_delta": bool(innermost < g.delta),
            "sup_error_below_delta": strip,
            "uncertified_region_within_reduction_tolerance": bool(strip <= epsilon),
            "separated_defect_at_innermost_point": float(inner_defect),
        },
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    _dump_json(doc, os.path.join(cfg.out_dir, "ackley_report.json"))
    with open(os.path.join(cfg.out_dir, "ackley_trajectory.csv"), "w") as fh:
        fh.write(report.trace.to_csv())
    _write_manifest(
        cfg.out_dir,
        {
            **_experiment_echo(cfg),
            "dims": d,
            "expansion_eps": _ACKLEY_EXPANSION_EPS,
            "expansion_delta": _ACKLEY_EXPANSION_DELTA,
            "expansion_x_max": math.sqrt(d),
            **_search_echo(search),
        },
    )
    return doc


def reduce_file(input_path, reduction, out_dir):
    """Reduce a serialized CTD file; write the result plus metadata JSON."""
    U = load_ctd(input_path)
    result = reduce(U, reduction)
    os.makedirs(out_dir, exist_ok=True)
    save_ctd(result.ctd, os.path.join(out_dir, "reduced_ctd.json"))
    meta = {"input": os.path.basename(input_path), "input_rank": U.rank}
    meta.update(result.metadata())
    _dump_json(meta, os.path.join(out_dir, "reduction_metadata.json"))
    _write_manifest(
        out_dir,
        {
            "operation": "reduce",
            "input": os.path.basename(input_path),
            "epsilon": reduction.epsilon,
            "norm": reduction.norm,
            "algorithm": reduction.algorithm,
            "max_rank": reduction.max_rank,
            "out_dir": out_dir,
        },
    )
    return meta


def max_entry_file(input_path, search, out_dir, method="squaring"):
    """Run a max-entry search on a serialized CTD file; write location JSON."""
    if method not in ("squaring", "power"):
        raise ValueError("method must be 'squaring' or 'power'")
    U = load_ctd(input_path)
    runner = squaring_max if method == "squaring" else power_method_max
    trace = runner(U, search)
    top = trace.candidates[0]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "max_entry_trace.csv"), "w") as fh:
        fh.write(trace.to_csv())
    doc = {
        "input": os.path.basename(input_path),
        "method": method,
        "location": [i + 1 for i in top.index],
        "value": top.value,
        "iterations": trace.iterations,
        "final_rank": trace.final_rank,
        "candidates": [
            {"index": [i + 1 for i in c.index], "value": c.value}
            for c in trace.candidates
        ],
        "flags": list(trace.flags),
    }
    _dump_json(doc, os.path.join(out_dir, "max_entry.json"))
    _write_manifest(
        out_dir,
        {
            "operation": "max-entry",
            "input": os.path.basename(input_path),
            "method": method,
            "out_dir": out_dir,
            **_search_echo(search),
        },
    )
    return doc
