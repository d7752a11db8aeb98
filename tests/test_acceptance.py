"""Acceptance gate: one test per advertised guarantee, each at its stated
tolerance and runtime budget.

Every test prints exactly one line of the form

    ACCEPTANCE <name>: PASS

(or FAIL) so the gate's verdicts can be grepped out of a ``pytest -s`` run.
A FAIL line always comes with a failing assertion.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ctdopt import (
    ExperimentConfig,
    FixedIterations,
    MaxEntrySearchConfig,
    RankThreshold,
    ReductionConfig,
    add,
    build_gaussian_expansion,
    certify_expansion,
    eval_entry,
    frobenius_norm,
    hadamard,
    inner,
    iteration_bound,
    random_ctd,
    reduce,
    run_ackley,
    run_compare,
    s_norm,
    scale,
    spike_ctd,
    squaring_max,
    to_dense,
)
from ctdopt.experiments import background_instance, plant_spike


@contextmanager
def reported(name, budget_seconds=None):
    ok = False
    start = time.monotonic()
    try:
        yield
        if budget_seconds is not None:
            assert time.monotonic() - start < budget_seconds
        ok = True
    finally:
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


def dense_rank1_value(T, iters=500, tol=1e-14):
    """Largest rank-one contraction value of a dense array, by power
    iteration over one mode at a time from a positive start.  For arrays
    with all entries positive the fixed point is the global one."""
    d = T.ndim
    vecs = [np.ones(m) / np.sqrt(m) for m in T.shape]
    val = 0.0
    for _ in range(iters):
        prev = val
        for j in range(d):
            v = T
            for a in sorted((a for a in range(d) if a != j), reverse=True):
                v = np.tensordot(v, vecs[a], axes=(a, 0))
            nv = np.linalg.norm(v)
            vecs[j] = v / nv
            val = nv
        if abs(val - prev) <= tol * abs(val):
            break
    return val


def rel_err(dense_got, dense_want):
    return np.linalg.norm(dense_got - dense_want) / np.linalg.norm(dense_want)


def test_algebra_oracles():
    with reported("algebra-oracles", budget_seconds=60):
        rng = np.random.default_rng(20)
        for i in range(54):
            d = 2 + i % 3
            M = int(rng.integers(3, 9))
            r = int(rng.integers(1, 7))
            positive = i % 2 == 0
            low, high = (0.9, 1.0) if positive else (-1.0, 1.0)
            U = random_ctd([M] * d, r, low=low, high=high, rng=rng)
            V = random_ctd([M] * d, int(rng.integers(1, 7)),
                           low=low, high=high, rng=rng)
            dU, dV = to_dense(U), to_dense(V)

            assert rel_err(to_dense(hadamard(U, V)), dU * dV) <= 1e-10
            assert rel_err(to_dense(add(U, V)), dU + dV) <= 1e-10
            want = float(np.sum(dU * dV))
            assert abs(inner(U, V) - want) <= 1e-10 * abs(want)
            nU = np.linalg.norm(dU)
            assert abs(frobenius_norm(U) - nU) <= 1e-10 * nU

            if d == 2:
                top = np.linalg.svd(dU, compute_uv=False)[0]
                assert abs(s_norm(U) - top) <= 1e-8 * top
            elif positive:
                ref = dense_rank1_value(dU)
                assert abs(s_norm(U) - ref) <= 1e-8 * ref


def test_reduction_contract():
    with reported("reduction-contract", budget_seconds=120):
        fro = lambda algo: ReductionConfig(epsilon=1e-6, norm="frobenius",
                                           algorithm=algo)
        # exactly dependent: duplicated terms must land on the minimal rank
        for algo in ("als", "id"):
            for seed in range(5):
                rng = np.random.default_rng([seed, 7])
                r = 2 + seed % 3
                W = random_ctd([6, 6, 6], r, low=-1.0, high=1.0, rng=rng)
                U = add(W, scale(W, 0.7))
                res = reduce(U, fro(algo))
                dU = to_dense(U)
                assert res.ctd.rank == r
                assert rel_err(to_dense(res.ctd), dU) <= 1e-6

        # near-dependent: a relative-1e-9 perturbed duplicate collapses
        for algo in ("als", "id"):
            for seed in range(5):
                rng = np.random.default_rng([seed, 8])
                r = 2 + seed % 3
                W = random_ctd([6, 6, 6], r, low=-1.0, high=1.0, rng=rng)
                noise = random_ctd([6, 6, 6], r, low=-1.0, high=1.0, rng=rng)
                noise = scale(noise, 1e-9 * frobenius_norm(W) / frobenius_norm(noise))
                U = add(add(W, scale(W, 0.8)), noise)
                res = reduce(U, fro(algo))
                assert res.ctd.rank <= r
                dU = to_dense(U)
                assert rel_err(to_dense(res.ctd), dU) <= 1e-6

        # spike plus noise under the s-norm, verified against dense SVD
        snorm = ReductionConfig(epsilon=1e-6, norm="snorm", algorithm="id")
        for seed in range(10):
            rng = np.random.default_rng([seed, 9])
            M = 8
            amplitude = 1e-3 if seed < 5 else 1e-8
            noise = scale(random_ctd([M, M], 3, low=-1.0, high=1.0, rng=rng),
                          amplitude)
            loc = tuple(int(rng.integers(0, M)) for _ in range(2))
            U = add(spike_ctd([M, M], loc, 1.0), noise)
            res = reduce(U, snorm)
            dU = to_dense(U)
            defect = np.linalg.svd(dU - to_dense(res.ctd), compute_uv=False)[0]
            assert defect <= 1e-6 * np.linalg.svd(dU, compute_uv=False)[0]
            if amplitude == 1e-8:
                # noise sits far below tolerance, so the spike is the
                # known minimal representation
                assert res.ctd.rank == 1


def test_quadratic_convergence():
    with reported("quadratic-convergence", budget_seconds=60):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            bg = random_ctd([5, 5, 5], 2, low=0.5, high=1.0, rng=rng)
            loc = tuple(int(rng.integers(0, 5)) for _ in range(3))
            target = float(rng.uniform(1.1, 1.5)) * to_dense(bg).max()
            U = add(bg, spike_ctd([5, 5, 5], loc, target - eval_entry(bg, loc)))

            # second-largest over largest must square each iteration
            Y = scale(U, 1.0 / frobenius_norm(U))
            ratios = []
            for k in range(4):
                flat = np.sort(np.abs(to_dense(Y)).ravel())
                ratios.append(flat[-2] / flat[-1])
                if k < 3:
                    Y = hadamard(Y, Y)
                    Y = scale(Y, 1.0 / frobenius_norm(Y))
            for k in range(3):
                assert abs(ratios[k + 1] / ratios[k] ** 2 - 1.0) <= 0.1

            # the search loop with reduction disabled matches the dense
            # closed form for its convergence estimate
            trace = squaring_max(
                U,
                MaxEntrySearchConfig(reduction=None,
                                     termination=FixedIterations(3)),
            )
            dU = to_dense(U)
            for rec in trace.records:
                P = dU ** (2.0 ** rec.k)
                lam = float(np.sum(dU * P) / np.linalg.norm(P))
                assert abs(rec.lam - lam) <= 1e-10 * abs(lam)

        # iteration count estimate on an exact power pair
        a, b, eps = 1.0, 0.5, 2.0 ** -16
        j = 0
        while (b / a) ** (2 ** j) > eps:
            j += 1
        assert j == 4
        assert iteration_bound(a, b, eps) == j


def test_spike_recovery():
    with reported("spike-recovery", budget_seconds=600):
        search = MaxEntrySearchConfig(
            reduction=ReductionConfig(epsilon=1e-6, norm="frobenius",
                                      algorithm="id"),
            termination=RankThreshold(1),
            k_max=10,
        )
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            # factor entries below 1 keep every background entry under 3,
            # so the planted 3.5 is the strict maximum
            U, loc = plant_spike(background_instance(6, 32, 3, rng), rng,
                                 spike_to=3.5)
            trace = squaring_max(U, search)
            wins += (trace.final_rank == 1 and trace.iterations <= 10
                     and trace.candidates[0].index == loc)
        assert wins >= 95


def test_method_comparison(tmp_path):
    with reported("method-comparison", budget_seconds=1800):
        cfg = ExperimentConfig(experiment="compare", out_dir=str(tmp_path),
                               seed=0, trials=100)
        summary = run_compare(cfg)
        assert summary["correct_fraction"]["squaring"] == 1.0
        assert summary["correct_fraction"]["power"] == 1.0
        assert summary["squaring_fewer_iterations_fraction"] >= 0.95
        with open(tmp_path / "compare_times_summary.json") as fh:
            times = json.load(fh)
        assert times["median_seconds"]["squaring"] < times["median_seconds"]["power"]


def test_two_maxima():
    with reported("two-maxima", budget_seconds=300):
        red = ReductionConfig(epsilon=1e-6, norm="frobenius", algorithm="id")
        for seed in range(10):
            rng = np.random.default_rng(seed)
            U1, loc1 = plant_spike(background_instance(6, 32, 3, rng), rng,
                                   spike_to=3.5)
            U, loc2 = plant_spike(U1, rng, spike_to=3.5, avoid=(loc1,))

            k6 = squaring_max(
                U, MaxEntrySearchConfig(reduction=red,
                                        termination=FixedIterations(6)))
            found = {c.index for c in k6.candidates}
            assert loc1 in found and loc2 in found

            # The two planted entries are bitwise equal, so squaring has an
            # exact rank-2 fixed point, (e1 + e2) / sqrt(2).  A run may
            # collapse onto one maximum once rounding breaks the tie, or
            # stay on that fixed point until k_max.
            extended = squaring_max(
                U, MaxEntrySearchConfig(reduction=red,
                                        termination=RankThreshold(1),
                                        k_max=120))
            if extended.final_rank == 1:
                assert extended.candidates[0].index in (loc1, loc2)
                continue
            assert "k_max reached" in extended.flags
            assert extended.final_rank == 2
            assert {c.index for c in extended.candidates} == {loc1, loc2}
            for c in extended.candidates:
                assert c.value == pytest.approx(3.5, rel=0, abs=1e-12)
            Y = extended.final_iterate
            assert eval_entry(Y, loc1) ** 2 + eval_entry(Y, loc2) ** 2 >= 1.0 - 1e-12


def test_gaussian_expansion():
    with reported("gaussian-expansion", budget_seconds=60):
        g = build_gaussian_expansion(0.2, 10, 1e-8, 3e-6, 1.0)
        assert g.terms <= 120
        probes = np.geomspace(g.delta, 1.0, 150_001)
        assert certify_expansion(g, probes) <= 1e-8


def test_ackley_pipeline(tmp_path):
    with reported("ackley-pipeline", budget_seconds=1800):
        doc = run_ackley(ExperimentConfig(experiment="ackley",
                                          out_dir=str(tmp_path)))
        assert doc["tensor_distance_to_origin"] <= 1e-2
        assert doc["report"]["squaring_iterations"] <= 40
        assert doc["report"]["reduced_rank"] <= 20
        assert doc["relative_value_error"] <= 1e-5
        assert doc["refined_distance_to_origin"] <= 1e-4
        assert doc["expansion"]["terms"] <= 120
        assert doc["checks"]["grid_resolves_below_delta"]
        assert doc["checks"]["uncertified_region_within_reduction_tolerance"]


def test_cost_scaling():
    with reported("cost-scaling"):
        ranks = (8, 16, 32)

        def instance(r):
            rng = np.random.default_rng([0, r])
            W = random_ctd([32] * 6, r // 2, low=-1.0, high=1.0, rng=rng)
            return add(W, scale(W, 0.5))

        slopes = {}
        for algo, reps in (("id", 15), ("als", 3)):
            cfg = ReductionConfig(epsilon=1e-6, norm="frobenius",
                                  algorithm=algo)
            times = []
            for r in ranks:
                U = instance(r)
                best = float("inf")
                for _ in range(reps):
                    t0 = time.perf_counter()
                    res = reduce(U, cfg)
                    best = min(best, time.perf_counter() - t0)
                assert res.tolerance_met
                assert res.ctd.rank == r // 2
                times.append(best)
            slopes[algo] = float(np.polyfit(np.log(ranks), np.log(times), 1)[0])
        assert slopes["id"] <= 3.6
        assert slopes["als"] <= 4.6
