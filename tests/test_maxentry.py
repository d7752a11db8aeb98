"""Tests for the max-entry search iterations.

The load-bearing checks materialize small inputs with the independent dense
oracle: with reduction disabled the power iterate must follow U^k entrywise
and the squaring iterate U^(2^k), both unit-normalized, so convergence rates
and lambda behavior are checked against exact elementwise powers rather than
against the code's own arithmetic.
"""

import csv
import io

import numpy as np
import pytest

from ctdopt import (
    CTD,
    DegenerateIterateError,
    FixedIterations,
    LambdaStall,
    MaxEntrySearchConfig,
    RankThreshold,
    ReductionConfig,
    add,
    extract_candidates,
    frobenius_norm,
    iteration_bound,
    ones_ctd,
    power_method_max,
    scale,
    spike_ctd,
    squaring_max,
    zero_ctd,
)
from ctdopt import maxentry
from ctdopt.experiments import background_instance, plant_spike
from conftest import background_max_bound, background_plus_spike, dense_oracle, random_signed_ctd


def exact_config(termination, k_max=100):
    """Search config with per-step reduction disabled."""
    return MaxEntrySearchConfig(reduction=None, termination=termination, k_max=k_max)


def id_config(epsilon, termination, k_max=100, **kw):
    return MaxEntrySearchConfig(
        reduction=ReductionConfig(epsilon=epsilon, algorithm="id"),
        termination=termination,
        k_max=k_max,
        **kw,
    )


class TestIterationBound:
    def test_frozen_cases(self):
        assert iteration_bound(1.0, 0.5, 2.0**-16) == 4
        assert iteration_bound(3.5, 3.2, 1e-6) == 8
        assert iteration_bound(1.0, 1.0 - 1e-8, 1e-6) == 31

    def test_returned_count_is_minimal(self, rng):
        for _ in range(50):
            a = rng.uniform(0.5, 4.0)
            b = a * rng.uniform(0.05, 0.999)
            eps = 10.0 ** rng.uniform(-9, -1)
            j = iteration_bound(a, b, eps)
            assert (b / a) ** (2**j) <= eps
            if j > 0:
                assert (b / a) ** (2 ** (j - 1)) > eps

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            iteration_bound(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            iteration_bound(1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            iteration_bound(2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            iteration_bound(2.0, 1.0, 1.0)


class TestExtractCandidates:
    def test_one_hot_term_gives_exact_location(self):
        U = spike_ctd((4, 3, 5), (2, 0, 4), -2.5)
        cands = extract_candidates(U, U)
        assert len(cands) == 1
        assert cands[0].index == (2, 0, 4)
        assert cands[0].value == pytest.approx(-2.5)

    def test_values_come_from_second_argument(self, rng):
        # Y points at a location; the reported value must be U's entry there,
        # not Y's.
        U = random_signed_ctd((3, 3, 3), 2, rng)
        Y = spike_ctd((3, 3, 3), (1, 2, 0), 1.0)
        cands = extract_candidates(Y, U)
        dense = dense_oracle(U)
        assert cands[0].value == pytest.approx(dense[1, 2, 0], rel=1e-12)

    def test_runner_up_flips_ranked_by_closeness(self):
        # dim 0 runner-up at 75% of the winner, dim 1 runner-up at 0%, so the
        # single extra candidate flips dim 0.
        f0 = np.array([[0.8], [0.6], [0.0]])
        f1 = np.array([[1.0], [0.0], [0.0]])
        Y = CTD([1.0], [f0, f1])
        cands = extract_candidates(Y, Y, max_per_term=2)
        assert [c.index for c in cands] == [(0, 0), (1, 0)]

    def test_duplicate_locations_collapse(self):
        a = spike_ctd((3, 3), (1, 1), 1.0)
        b = spike_ctd((3, 3), (1, 1), 0.5)
        U = add(a, b)
        cands = extract_candidates(U, U)
        assert len(cands) == 1
        assert cands[0].index == (1, 1)

    def test_shape_mismatch_rejected(self, rng):
        Y = random_signed_ctd((3, 3), 1, rng)
        U = random_signed_ctd((3, 4), 1, rng)
        with pytest.raises(ValueError):
            extract_candidates(Y, U)


class TestPowerMethod:
    def test_iterate_follows_entrywise_powers(self, rng):
        U = random_signed_ctd((3, 4, 2), 2, rng)
        dense = dense_oracle(U)
        for k in (1, 2, 3):
            trace = power_method_max(U, exact_config(FixedIterations(k)))
            want = dense**k
            want = want / np.linalg.norm(want)
            got = dense_oracle(trace.final_iterate)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_lambda_rises_to_planted_max(self, rng):
        U, locs = background_plus_spike(4, 5, 2, rng, spike_to=5.0)
        assert background_max_bound(U, 2) < 5.0
        cfg = MaxEntrySearchConfig(
            reduction=ReductionConfig(epsilon=1e-10, algorithm="id", norm="snorm"),
            termination=LambdaStall(1e-8),
            k_max=80,
        )
        trace = power_method_max(U, cfg)
        lams = [r.lam for r in trace.records[1:]]
        for prev, cur in zip(lams, lams[1:]):
            assert cur >= prev - 1e-6 * abs(prev)
        assert lams[-1] == pytest.approx(5.0, rel=1e-3)
        assert trace.candidates[0].index == locs[0]
        assert trace.iterations < 80

    def test_initial_record_has_nan_lambda(self, rng):
        U = random_signed_ctd((3, 3), 2, rng)
        trace = power_method_max(U, exact_config(FixedIterations(1)))
        assert trace.records[0].k == 0
        assert np.isnan(trace.records[0].lam)

    def test_uniform_input_flags_plateau_without_stopping(self):
        U = ones_ctd((4, 4, 4))
        trace = power_method_max(U, exact_config(FixedIterations(3)))
        assert trace.flags == ["degenerate plateau"]
        # flag only; the run still performs all requested iterations
        assert trace.iterations == 3

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            power_method_max(zero_ctd((3, 3)), exact_config(FixedIterations(1)))


class TestSquaringMethod:
    def test_iterate_follows_squared_powers(self, rng):
        U = random_signed_ctd((3, 4, 2), 2, rng)
        dense = dense_oracle(U)
        for k in (1, 2, 3):
            trace = squaring_max(U, exact_config(FixedIterations(k)))
            want = dense ** (2**k)
            want = want / np.linalg.norm(want)
            got = dense_oracle(trace.final_iterate)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_magnitude_ratio_squares_each_step(self, rng):
        # Quadratic convergence: the second-to-first magnitude ratio of the
        # iterate equals the input's ratio raised to 2^k.
        U, _ = background_plus_spike(3, 4, 2, rng, spike_to=4.0)
        dense = dense_oracle(U)
        flat = np.sort(np.abs(dense).ravel())
        rho = flat[-2] / flat[-1]
        for k in (1, 2, 3):
            trace = squaring_max(U, exact_config(FixedIterations(k)))
            it = np.sort(np.abs(dense_oracle(trace.final_iterate)).ravel())
            assert it[-2] / it[-1] == pytest.approx(rho ** (2**k), rel=1e-8)

    def test_lambda_starts_at_norm_and_decreases(self, rng):
        # every lambda_k has a closed dense form sum(U * U^(2^k)) / ||U^(2^k)||;
        # each square takes rank r to r(r+1)/2, so the rank-2 input reaches
        # unreduced rank 21 by k=3
        U, _ = background_plus_spike(3, 4, 1, rng, spike_to=4.0)
        dense = dense_oracle(U)
        trace = squaring_max(U, exact_config(FixedIterations(3)))
        lams = [r.lam for r in trace.records]
        for k, lam in enumerate(lams):
            p = dense ** (2**k)
            want = float((p * dense).sum() / np.linalg.norm(p))
            assert lam == pytest.approx(want, rel=1e-10)
        assert lams[0] == pytest.approx(np.linalg.norm(dense), rel=1e-12)
        for prev, cur in zip(lams, lams[1:]):
            assert cur <= prev + 1e-10 * abs(prev)
        assert lams[-1] == pytest.approx(np.max(np.abs(dense)), rel=1e-3)

    def test_finds_planted_spike_with_reduction(self, rng):
        U, locs = background_plus_spike(4, 6, 3, rng, spike_to=6.0)
        assert background_max_bound(U, 3) < 6.0
        trace = squaring_max(U, id_config(1e-6, RankThreshold(1), k_max=40))
        assert trace.candidates[0].index == locs[0]
        assert trace.candidates[0].value == pytest.approx(6.0, rel=1e-10)
        assert trace.iterations <= 10
        assert trace.final_rank == 1

    def test_candidate_values_use_original_tensor(self, rng):
        # The iterate's entries are distorted by squaring and normalization;
        # reported values must match the input exactly.
        U, _ = background_plus_spike(3, 4, 2, rng, spike_to=3.0)
        dense = dense_oracle(U)
        trace = squaring_max(U, id_config(1e-6, RankThreshold(1)))
        for c in trace.candidates:
            assert c.value == pytest.approx(dense[c.index], rel=1e-12)

    def test_two_equal_maxima_both_reported(self, rng):
        U, locs = background_plus_spike(3, 5, 2, rng, spike_to=4.0, n_spikes=2)
        trace = squaring_max(U, id_config(1e-6, FixedIterations(6), k_max=6))
        found = {c.index for c in trace.candidates}
        assert set(locs) <= found
        assert trace.final_rank >= 2

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            squaring_max(zero_ctd((3, 3)), exact_config(FixedIterations(1)))

    def test_spike_instance_without_runaway_rank(self, monkeypatch):
        # With one term per ordered pair, the exact duplicates in the square
        # made this instance's term Gram look indefinite; the ALS fallback
        # kept 312 terms, and the next square's Gram asked for 70 GiB.  The
        # guard makes such a regression fail before that Gram is allocated.
        reduce = maxentry.reduce

        def guarded(Q, cfg):
            assert Q.rank <= 2048, f"reduction input of rank {Q.rank}"
            return reduce(Q, cfg)

        monkeypatch.setattr(maxentry, "reduce", guarded)
        rng = np.random.default_rng([25, 25])
        U, loc = plant_spike(background_instance(6, 32, 3, rng), rng, spike_to=3.5)
        search = MaxEntrySearchConfig(
            reduction=ReductionConfig(epsilon=1e-6, norm="frobenius", algorithm="id"),
            termination=RankThreshold(1),
            k_max=10,
        )
        trace = squaring_max(U, search)
        assert trace.final_rank == 1
        assert trace.candidates[0].index == loc


class TestTermination:
    def test_fixed_iterations_exact_count(self, rng):
        U, _ = background_plus_spike(3, 4, 2, rng, spike_to=4.0)
        trace = squaring_max(U, id_config(1e-6, FixedIterations(4)))
        assert trace.iterations == 4
        assert len(trace.records) == 5

    def test_rank_threshold_stops_at_collapse(self, rng):
        U, _ = background_plus_spike(3, 4, 2, rng, spike_to=5.0)
        trace = squaring_max(U, id_config(1e-6, RankThreshold(1)))
        assert trace.final_rank == 1
        assert all(r.rank > 1 for r in trace.records[:-1])

    def test_lambda_stall_stops_early(self, rng):
        U, _ = background_plus_spike(3, 4, 2, rng, spike_to=5.0)
        trace = squaring_max(U, id_config(1e-6, LambdaStall(1e-4), k_max=60))
        assert trace.iterations < 60
        last, prev = trace.records[-1].lam, trace.records[-2].lam
        assert abs(last - prev) < 1e-4 * abs(prev)

    def test_k_max_caps_unreachable_rank_target(self, rng):
        # two equal spikes keep the iterate at rank 2, so RankThreshold(1)
        # never fires and the cap takes over
        U, _ = background_plus_spike(3, 5, 2, rng, spike_to=4.0, n_spikes=2)
        trace = squaring_max(U, id_config(1e-6, RankThreshold(1), k_max=5))
        assert trace.iterations == 5

    def test_used_up_k_max_is_flagged(self, rng):
        # lambda never stalls by a relative 1e-300, so the loop runs out
        U = random_signed_ctd((3, 4, 2), 2, rng)
        for search in (squaring_max, power_method_max):
            trace = search(U, exact_config(LambdaStall(1e-300), k_max=3))
            assert trace.iterations == 3
            assert trace.flags == ["k_max reached"], search.__name__

    def test_fixed_iterations_at_k_max_not_flagged(self, rng):
        U = random_signed_ctd((3, 4, 2), 2, rng)
        for search in (squaring_max, power_method_max):
            trace = search(U, exact_config(FixedIterations(3), k_max=3))
            assert trace.iterations == 3
            assert trace.flags == [], search.__name__
            # a fixed count beyond k_max is cut short, and says so
            trace = search(U, exact_config(FixedIterations(4), k_max=3))
            assert trace.iterations == 3
            assert trace.flags == ["k_max reached"], search.__name__

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FixedIterations(0)
        with pytest.raises(ValueError):
            LambdaStall(0.0)
        with pytest.raises(ValueError):
            RankThreshold(0)
        with pytest.raises(TypeError):
            MaxEntrySearchConfig(reduction=None, termination="rank")
        with pytest.raises(TypeError):
            MaxEntrySearchConfig(reduction="frobenius")
        with pytest.raises(ValueError):
            MaxEntrySearchConfig(reduction=None, k_max=0)
        with pytest.raises(ValueError):
            MaxEntrySearchConfig(reduction=None, max_candidates_per_term=0)


class TestTraceOutput:
    def test_final_iterate_is_unit_norm(self, rng):
        U, _ = background_plus_spike(3, 4, 2, rng, spike_to=4.0)
        snorm_cfg = MaxEntrySearchConfig(
            reduction=ReductionConfig(epsilon=1e-8, algorithm="id", norm="snorm"),
            termination=FixedIterations(5),
        )
        for run, cfg in (
            (power_method_max, id_config(1e-6, FixedIterations(5))),
            (squaring_max, snorm_cfg),
        ):
            trace = run(U, cfg)
            assert abs(frobenius_norm(trace.final_iterate) - 1.0) < 1e-10

    def test_csv_layout(self, rng):
        U, _ = background_plus_spike(3, 4, 2, rng, spike_to=4.0)
        trace = power_method_max(U, id_config(1e-6, FixedIterations(3)))
        rows = list(csv.reader(io.StringIO(trace.to_csv())))
        header, body = rows[0], rows[1:]
        assert header[:3] == ["k", "rank", "lambda"]
        assert header[3] == "term_max_1"
        assert len(body) == trace.iterations + 1
        assert [int(r[0]) for r in body] == list(range(trace.iterations + 1))
        assert body[0][2] == ""  # no lambda before the first iteration
        assert body[1][2] != ""
        width = len(header)
        assert all(len(r) == width for r in body)

    def test_reduction_shortfall_recorded(self, rng):
        # a rank cap the tolerance cannot survive must show up in the record
        U, _ = background_plus_spike(3, 5, 2, rng, spike_to=4.0, n_spikes=2)
        cfg = MaxEntrySearchConfig(
            reduction=ReductionConfig(epsilon=1e-6, algorithm="id", max_rank=1),
            termination=RankThreshold(1),
            k_max=10,
        )
        trace = squaring_max(U, cfg)
        assert not all(r.reduction_tolerance_met for r in trace.records[1:])
