"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
operation per call to :meth:`op`, and judges each operation's output in
:meth:`check`, which returns ``(ok, fingerprint)``.  The fingerprint holds
the exact counts that must repeat bit for bit between runs of the same code
and seed: iterations, the per-iteration rank sequence, candidate indices,
achieved ranks and ALS sweeps.  The checks recompute what they judge from
the outputs with the benchmark's own arithmetic where that is cheap, so a
wrong answer from the package cannot vouch for itself.

Calls into the package go through module attributes (``maxentry.squaring_max``
rather than a name bound at import), so the tracer's wrappers see them.
"""

import contextlib
import csv
import io
import json
import math
import os
import time

import numpy as np

from ctdopt import cli, ctd, experiments, maxentry, reduction, sepfunc

# Inputs are fixed here, not read from package defaults, so a later change
# to a default cannot silently change what the benchmark measures.
ACKLEY_D = 10
ACKLEY_EXPANSION_EPS = 1e-8
ACKLEY_EXPANSION_DELTA = 3e-6


def _factored_inner(a, b):
    """<A, B> of two CTDs given as (svalues, factors), by the defining sum
    over term pairs; independent of ctdopt.ctd.inner."""
    (sa, fa), (sb, fb) = a, b
    G = np.ones((sa.size, sb.size))
    for Fa, Fb in zip(fa, fb):
        G *= Fa.T @ Fb
    return float(sa @ G @ sb)


def read_ctd_json(path):
    """Parse the CTD interchange format into (svalues, factors) without
    ctdopt: factors are flat column-major M x r blocks."""
    with open(path) as fh:
        doc = json.load(fh)
    sv = np.asarray(doc["svalues"], dtype=float)
    factors = [
        np.asarray(flat, dtype=float).reshape((M, sv.size), order="F")
        for flat, M in zip(doc["factors"], doc["modes"])
    ]
    return sv, factors


def relative_frobenius_error(ref, approx):
    """||ref - approx||_F / ||ref||_F for (svalues, factors) pairs."""
    rr = _factored_inner(ref, ref)
    diff = rr - 2.0 * _factored_inner(ref, approx) + _factored_inner(approx, approx)
    return math.sqrt(max(diff, 0.0) / rr)


def ackley_value(x, a=20.0, b=0.2, c=2.0 * math.pi):
    """Maximization form of Ackley's function; its maximum a + e is at 0."""
    x = np.asarray(x, dtype=float)
    return a * math.exp(-b * math.sqrt(float(np.mean(x * x)))) + math.exp(
        float(np.mean(np.cos(c * x)))
    )


def _trace_fingerprint(trace):
    return {
        "iterations": trace.iterations,
        "ranks": [rec.rank for rec in trace.records],
        "candidates": [list(c.index) for c in trace.candidates],
    }


class Workload:
    """One named workload: ``nominal_op_s`` sizes the batch so that a run
    of ``seconds`` seconds holds about ``seconds / nominal_op_s`` operations
    on the code the benchmark was defined on."""

    name = ""
    nominal_op_s = 1.0

    def __init__(self, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def batch_size(self, seconds):
        return max(1, round(seconds / self.nominal_op_s))

    def setup(self, seed, n_ops):
        """Build the inputs for operations 0..n_ops-1 from ``seed``."""

    def op(self, i):
        """Run operation ``i``; returns its raw output."""
        raise NotImplementedError

    def check(self, i, out):
        """Judge operation ``i``'s output; returns (ok, fingerprint)."""
        raise NotImplementedError


class AckleyD10(Workload):
    """``experiments.run_ackley`` with its defaults (no randomness)."""

    name = "ackley-d10"
    nominal_op_s = 10.0

    def op(self, i):
        cfg = experiments.ExperimentConfig(experiment="ackley", out_dir=self.workdir)
        return experiments.run_ackley(cfg)

    def check(self, i, doc):
        rep = doc["report"]
        with open(os.path.join(self.workdir, "ackley_trajectory.csv")) as fh:
            ranks = [int(row["rank"]) for row in csv.DictReader(fh)]
        tensor_point = np.asarray(rep["tensor_point"], dtype=float)
        refined_point = np.asarray(rep["refined_point"], dtype=float)
        true_max = 20.0 + math.e
        value_error = abs(ackley_value(refined_point) - true_max) / true_max
        ok = (
            float(np.linalg.norm(tensor_point)) <= 1e-2
            and float(np.linalg.norm(refined_point)) <= 1e-4
            and value_error <= 1e-5
            and rep["squaring_iterations"] <= 40
        )
        fingerprint = {
            "iterations": rep["squaring_iterations"],
            "ranks": ranks,
            "candidates": [c["index"] for c in rep["candidates"]],
            "sampled_rank": rep["sampled_rank"],
            "reduced_rank": rep["reduced_rank"],
        }
        return ok, fingerprint


def seeded_order(seed, n_ops, pool_size):
    """Pool indices for operations 0..n_ops-1.

    Operation 0 is always pool instance 0, so the warm-up in set-up (which
    runs operation 0) does the same work for every seed.  The rest is a
    permutation of the other instances drawn from ``seed``, repeated if the
    batch is larger than the pool.
    """
    rest = 1 + np.random.default_rng(seed).permutation(pool_size - 1)
    order = [0] + [int(k) for k in rest]
    return [order[i % pool_size] for i in range(n_ops)]


class _PooledSearch(Workload):
    """A search workload over a fixed pool of planted-maximum instances; the
    seed sets the order in which the batch runs through the pool.

    The pools are the acceptance gate's own instances.  Fresh random
    instances are not used because the Frobenius squaring search fails on
    about one in several hundred of them (see NOTES.md), and a benchmark
    operation must not fail.
    """

    pool_size = 100

    def instance(self, k):
        """Pool instance ``k``: (CTD, planted 0-based location)."""
        raise NotImplementedError

    def setup(self, seed, n_ops):
        self.order = seeded_order(seed, n_ops, self.pool_size)
        pool = {k: self.instance(k) for k in sorted(set(self.order))}
        self.instances = [pool[k] for k in self.order]


class SpikeFrobenius(_PooledSearch):
    """One ``squaring_max`` on a 6-D, 32-point, rank-3 background with its
    maximum planted at 3.5; Frobenius ID at 1e-6, stop at rank 1,
    ``k_max=10``.  Pool instance k is seed k of ``test_spike_recovery``."""

    name = "spike-frobenius"
    nominal_op_s = 0.2

    search = maxentry.MaxEntrySearchConfig(
        reduction=reduction.ReductionConfig(epsilon=1e-6, norm="frobenius", algorithm="id"),
        termination=maxentry.RankThreshold(1),
        k_max=10,
    )

    def instance(self, k):
        rng = np.random.default_rng(k)
        background = experiments.background_instance(6, 32, 3, rng)
        return experiments.plant_spike(background, rng, spike_to=3.5)

    def op(self, i):
        U, _ = self.instances[i]
        return maxentry.squaring_max(U, self.search)

    def check(self, i, trace):
        loc = self.instances[i][1]
        ok = trace.final_rank == 1 and trace.candidates[0].index == loc
        return ok, _trace_fingerprint(trace)


class CompareSnorm(_PooledSearch):
    """One trial of the ``compare`` recipe: ``squaring_max`` and
    ``power_method_max`` on the same 8-D, 32-point, rank-4 background plus a
    magnitude-4 spike, s-norm ID at 1e-6, stop at rank 1, each timed on its
    own.  Pool instance k is trial k of ``run_compare`` at seed 0, the
    first trials ``test_method_comparison`` runs.

    The pool is as large as the batch: the 90th-percentile time of a few
    trials drawn from a larger pool depended on the draw more than the
    benchmark's bound allows."""

    name = "compare-snorm"
    nominal_op_s = 2.5
    pool_size = 8

    search = maxentry.MaxEntrySearchConfig(
        reduction=reduction.ReductionConfig(epsilon=1e-6, norm="snorm", algorithm="id"),
        termination=maxentry.RankThreshold(1),
        k_max=100,
    )

    def instance(self, k):
        rng = np.random.default_rng([0, k])
        background = experiments.background_instance(8, 32, 4, rng)
        return experiments.plant_spike(background, rng, spike_add=4.0)

    def op(self, i):
        U, _ = self.instances[i]
        t0 = time.perf_counter()
        squaring = maxentry.squaring_max(U, self.search)
        t1 = time.perf_counter()
        power = maxentry.power_method_max(U, self.search)
        t2 = time.perf_counter()
        return {"squaring": squaring, "power": power,
                "times": {"squaring": t1 - t0, "power": t2 - t1}}

    def check(self, i, out):
        loc = self.instances[i][1]
        ok = all(out[m].candidates[0].index == loc for m in ("squaring", "power"))
        return ok, {m: _trace_fingerprint(out[m]) for m in ("squaring", "power")}


class FileAls(Workload):
    """``ctdopt reduce`` with ALS in the Frobenius norm at 1e-6 on the stored,
    unreduced Ackley d=10 sample (no randomness)."""

    name = "file-als"
    nominal_op_s = 2.5

    def setup(self, seed, n_ops):
        p = sepfunc.AckleyParams(d=ACKLEY_D)
        g = sepfunc.build_gaussian_expansion(
            p.b, p.d, ACKLEY_EXPANSION_EPS, ACKLEY_EXPANSION_DELTA, math.sqrt(p.d)
        )
        merged = sepfunc.merge_grids(sepfunc.build_radial_grid(g), sepfunc.build_cosine_grid(p.c))
        grid = sepfunc.Grid.uniform_product(merged, p.d, (-1.0, 1.0))
        self.input_path = os.path.join(self.workdir, "ackley_d10_sample.json")
        ctd.save_ctd(sepfunc.sample_to_ctd(sepfunc.ackley_separated(p, g), grid), self.input_path)
        self.reference = read_ctd_json(self.input_path)
        self.out_dir = os.path.join(self.workdir, "reduced")

    def op(self, i):
        argv = ["reduce", self.input_path, "--algorithm", "als", "--norm", "frobenius",
                "--epsilon", "1e-6", "--out", self.out_dir]
        # The summary cli.main prints would land before the result line.
        with contextlib.redirect_stdout(io.StringIO()):
            return {"code": cli.main(argv)}

    def check(self, i, out):
        if out["code"] != 0:
            return False, {"code": out["code"]}
        with open(os.path.join(self.out_dir, "reduction_metadata.json")) as fh:
            meta = json.load(fh)
        reduced = read_ctd_json(os.path.join(self.out_dir, "reduced_ctd.json"))
        ok = (
            meta["tolerance_met"] is True
            and relative_frobenius_error(self.reference, reduced) <= 1e-6
        )
        fingerprint = {
            "input_rank": meta["input_rank"],
            "achieved_rank": meta["achieved_rank"],
            "als_sweeps": meta["sweeps"],
        }
        return ok, fingerprint


WORKLOADS = {w.name: w for w in (AckleyD10, SpikeFrobenius, CompareSnorm, FileAls)}
