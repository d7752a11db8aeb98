"""Tests for separated functions, the Gaussian expansion, grids, and the
grid-based maximization pipeline.

The expansion is checked against its target on fresh probe sets the builder
never saw; the sampled-CTD bridge is checked entry by entry against direct
function evaluation; gradient formulas are checked against central finite
differences.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from ctdopt import (
    AckleyParams,
    ExpansionError,
    GaussianExpansion,
    Grid,
    MaxEntrySearchConfig,
    RankThreshold,
    ReductionConfig,
    SeparatedFunction,
    ackley_eval,
    ackley_gradient,
    ackley_separated,
    build_cosine_grid,
    build_gaussian_expansion,
    build_radial_grid,
    certify_expansion,
    compass_search,
    eval_entry,
    index_to_point,
    merge_grids,
    optimize_function,
    sample_to_ctd,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def g_unit():
    """Expansion certified on [3e-6, 1]."""
    return build_gaussian_expansion(0.2, 10, 1e-8, 3e-6, 1.0)


@pytest.fixture(scope="module")
def g_box():
    """Expansion covering the [-1,1]^10 box diagonal."""
    return build_gaussian_expansion(0.2, 10, 1e-8, 3e-6, math.sqrt(10.0))


class TestAckleyEval:
    def test_maximum_at_origin(self):
        p = AckleyParams()
        assert ackley_eval(p, np.zeros(10)) == pytest.approx(20.0 + math.e, abs=1e-12)

    def test_hand_evaluated_degenerate_case(self):
        p = AckleyParams(d=1, a=1.0, b=0.0, c=TWO_PI)
        assert ackley_eval(p, [0.5]) == pytest.approx(1.0 + math.exp(-1.0), rel=1e-14)

    def test_gradient_matches_finite_differences(self, rng):
        p = AckleyParams(d=4)
        for _ in range(5):
            x = rng.uniform(0.2, 0.9, 4) * rng.choice([-1.0, 1.0], 4)
            grad = ackley_gradient(p, x)
            h = 1e-6
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd = (ackley_eval(p, x + e) - ackley_eval(p, x - e)) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_shape_and_parameter_validation(self):
        p = AckleyParams(d=3)
        with pytest.raises(ValueError):
            ackley_eval(p, [1.0, 2.0])
        with pytest.raises(ValueError):
            AckleyParams(d=0)
        with pytest.raises(ValueError):
            AckleyParams(a=-1.0)
        with pytest.raises(ValueError):
            AckleyParams(b=-0.1)


class TestGaussianExpansion:
    def test_default_tolerances_certify_on_fresh_probes(self, g_unit):
        assert g_unit.terms <= 120
        probes = np.geomspace(3e-6, 1.0, 37_813)
        assert certify_expansion(g_unit, probes) <= 1e-8

    def test_tighter_accuracy_never_needs_fewer_terms(self):
        loose = build_gaussian_expansion(0.2, 10, 1e-4, 3e-6, 1.0)
        tight = build_gaussian_expansion(0.2, 10, 1e-8, 3e-6, 1.0)
        assert loose.terms <= tight.terms

    def test_probe_density_stability(self, g_unit):
        a = certify_expansion(g_unit, np.geomspace(3e-6, 1.0, 100_000))
        b = certify_expansion(g_unit, np.geomspace(3e-6, 1.0, 200_000))
        assert abs(a - b) < 0.1 * max(a, b)

    def test_tenfold_probe_refinement_bounded_growth(self, g_unit):
        base = certify_expansion(g_unit, np.geomspace(3e-6, 1.0, 100_000))
        fine = certify_expansion(g_unit, np.geomspace(3e-6, 1.0, 1_000_000))
        assert fine <= 2.0 * base

    def test_negligible_expansion_measures_the_target(self):
        # a single far-out node has underflowing weight, so the measured
        # sup-error is just the target's maximum on the probes
        g = GaussianExpansion(h=1.0, s_start=-40.0, R=0, b=0.2, d=10,
                              eps=0.5, delta=3e-6, x_max=1.0)
        probes = np.geomspace(3e-6, 1.0, 1000)
        want = float(np.max(g.target(probes)))
        assert certify_expansion(g, probes) == pytest.approx(want, rel=1e-6)

    def test_weights_are_the_step_times_the_density(self, g_box):
        # g_box is the expansion run_ackley builds.  Its step is a power of
        # two, so the step times the density at the nodes is bitwise the
        # weight formula with the step folded into the front factor.
        assert g_box.h == 2.0 ** round(math.log2(g_box.h))
        s, b, d = g_box.nodes, g_box.b, g_box.d
        front = g_box.h * b / (2.0 * np.sqrt(np.pi * d))
        want = front * np.exp(-(b**2 / (4.0 * d)) * np.exp(-s) - s / 2.0)
        assert np.array_equal(g_box.weights, want)

    def test_term_budget_error(self):
        with pytest.raises(ExpansionError):
            build_gaussian_expansion(0.2, 10, 1e-8, 3e-6, 1.0, max_terms=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianExpansion(h=0.0, s_start=0.0, R=1, b=0.2, d=10,
                              eps=1e-8, delta=1e-6, x_max=1.0)
        with pytest.raises(ValueError):
            GaussianExpansion(h=1.0, s_start=0.0, R=-1, b=0.2, d=10,
                              eps=1e-8, delta=1e-6, x_max=1.0)
        with pytest.raises(ValueError):
            GaussianExpansion(h=1.0, s_start=0.0, R=1, b=0.2, d=10,
                              eps=1e-8, delta=2.0, x_max=1.0)
        with pytest.raises(ValueError):
            build_gaussian_expansion(0.2, 10, 1e-8, 0.5, 0.1)


class TestAckleySeparated:
    def test_value_at_origin_within_expansion_defect(self, g_box):
        p = AckleyParams()
        f = ackley_separated(p, g_box)
        assert abs(f.value(np.zeros(10)) - (20.0 + math.e)) <= 20.0 * 1e-6

    def test_matches_exact_at_random_box_points(self, g_box, rng):
        p = AckleyParams()
        f = ackley_separated(p, g_box)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, 10)
            assert abs(f.value(x) - ackley_eval(p, x)) <= 20.0 * 1e-8 + 1e-10

    def test_one_dimensional_hand_built_sum(self):
        p = AckleyParams(d=1)
        g = build_gaussian_expansion(p.b, 1, 1e-6, 1e-4, 1.0)
        f = ackley_separated(p, g)
        x = 0.37
        manual = p.a * float(
            np.sum(g.weights * np.exp(-(x * x) * np.exp(g.nodes)))
        ) + math.exp(math.cos(p.c * x))
        assert f.value([x]) == pytest.approx(manual, rel=1e-13)

    def test_rank_is_terms_plus_cosine(self, g_unit):
        f = ackley_separated(AckleyParams(), g_unit)
        assert f.rank == g_unit.terms + 1
        assert f.ndim == 10

    def test_parameter_mismatch_rejected(self, g_unit):
        with pytest.raises(ValueError):
            ackley_separated(AckleyParams(b=0.3), g_unit)


class TestSeparatedFunction:
    def test_value_and_validation(self):
        f = SeparatedFunction(
            [2.0],
            [[lambda t: np.asarray(t) ** 2], [lambda t: np.asarray(t) + 1.0]],
            [(-1.0, 1.0), (-1.0, 1.0)],
        )
        assert f.value([0.5, 0.5]) == pytest.approx(2.0 * 0.25 * 1.5)
        with pytest.raises(ValueError):
            f.value([0.5])
        with pytest.raises(ValueError):
            SeparatedFunction([1.0], [[lambda t: t], []], [(-1, 1), (-1, 1)])
        with pytest.raises(ValueError):
            SeparatedFunction([1.0], [[lambda t: t]], [(1.0, -1.0)])


class TestRadialGrid:
    def test_single_gaussian_gives_ten_points(self):
        g = GaussianExpansion(h=1.0, s_start=0.0, R=0, b=0.2, d=10,
                              eps=0.5, delta=1e-6, x_max=1.0)
        coords = build_radial_grid(g)
        assert coords.size == 10
        np.testing.assert_allclose(coords, np.linspace(-3, 3, 10), atol=1e-15)

    def test_structure_box_expansion(self, g_box):
        coords = build_radial_grid(g_box)
        assert np.all(np.diff(coords) > 0)
        np.testing.assert_allclose(coords, -coords[::-1], atol=1e-18)
        assert 0.0 not in coords
        s_max = g_box.s_start + g_box.R * g_box.h
        innermost = (1.0 / 3.0) * math.exp(-s_max / 2.0)
        assert np.min(np.abs(coords)) == pytest.approx(innermost, rel=1e-12)
        assert np.max(coords) == pytest.approx(3.0 * math.exp(-g_box.s_start / 2.0), rel=1e-12)
        # wider batches only contribute outside the covered radius, so per-batch
        # maxima strictly grow; the count stays far below one-per-gaussian x 10
        assert 10 <= coords.size <= 10 * g_box.terms

    def test_validation(self, g_unit):
        with pytest.raises(ValueError):
            build_radial_grid(g_unit, points_per_gaussian=1)


class TestCosineGrid:
    def test_default_frequency_gives_33_points(self):
        coords = build_cosine_grid(TWO_PI)
        assert coords.size == 33
        assert coords[0] == pytest.approx(-1.0)
        assert coords[-1] == pytest.approx(1.0)
        assert 0.0 in coords
        np.testing.assert_allclose(np.diff(coords), 1.0 / 16.0, rtol=1e-12)

    def test_doubling_samples_halves_spacing(self):
        a = build_cosine_grid(TWO_PI, samples_per_oscillation=16)
        b = build_cosine_grid(TWO_PI, samples_per_oscillation=32)
        assert (b[1] - b[0]) == pytest.approx((a[1] - a[0]) / 2.0, rel=1e-12)

    def test_cubic_interpolation_error_fourth_order(self):
        d = 10
        f = lambda x: np.exp(np.cos(TWO_PI * x) / d)
        dense = np.linspace(-1.0, 1.0, 100_001)
        errs = []
        for spo in (16, 32):
            coords = build_cosine_grid(TWO_PI, samples_per_oscillation=spo)
            spline = CubicSpline(coords, f(coords))
            errs.append(float(np.max(np.abs(spline(dense) - f(dense)))))
        assert errs[0] <= 1e-4
        assert errs[1] <= errs[0] / 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_cosine_grid(TWO_PI, box=(1.0, -1.0))
        with pytest.raises(ValueError):
            build_cosine_grid(TWO_PI, samples_per_oscillation=1)


class TestMergeGrids:
    def test_all_radial_when_radial_finer(self):
        radial = np.linspace(-1.0, 1.0, 201)
        cosine = build_cosine_grid(TWO_PI)
        merged = merge_grids(radial, cosine)
        np.testing.assert_allclose(merged, radial, atol=1e-15)

    def test_all_cosine_when_cosine_finer(self):
        radial = np.array([-0.5, 0.5])
        cosine = build_cosine_grid(TWO_PI)
        merged = merge_grids(radial, cosine)
        np.testing.assert_allclose(merged, cosine, atol=1e-15)

    def test_merged_structure_box_expansion(self, g_box):
        radial = build_radial_grid(g_box)
        cosine = build_cosine_grid(TWO_PI)
        merged = merge_grids(radial, cosine)
        assert np.all(np.diff(merged) > 1e-12)
        assert merged[0] >= -1.0 and merged[-1] <= 1.0
        assert np.min(np.abs(merged)) == pytest.approx(np.min(np.abs(radial)), rel=1e-12)
        assert merged[-1] == pytest.approx(1.0)
        assert merged.size > cosine.size

    def test_near_duplicates_collapse(self):
        spacing = 1.0 / 16.0
        fine = np.arange(-0.19, 0.19, 0.004)
        radial = np.sort(np.concatenate([fine, [3 * spacing - 5e-13]]))
        cosine = build_cosine_grid(TWO_PI)
        merged = merge_grids(radial, cosine)
        near = merged[np.abs(merged - 3 * spacing) < 1e-10]
        assert near.size == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            merge_grids(np.array([0.1]), np.array([0.0]))


class TestGridType:
    def test_modes_and_uniform_product(self):
        grid = Grid.uniform_product([-1.0, 0.0, 1.0], 3, (-1.0, 1.0))
        assert grid.ndim == 3
        assert grid.modes == (3, 3, 3)

    def test_json_dict(self):
        grid = Grid([np.array([-0.5, 0.5]), np.array([0.0, 0.25, 1.0])],
                    [(-1.0, 1.0), (0.0, 1.0)])
        doc = grid.to_json_dict()
        assert doc["coords"] == [[-0.5, 0.5], [0.0, 0.25, 1.0]]
        assert doc["box"] == [[-1.0, 1.0], [0.0, 1.0]]

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid([np.array([0.0, 0.0])], [(-1.0, 1.0)])
        with pytest.raises(ValueError):
            Grid([np.array([2.0])], [(-1.0, 1.0)])
        with pytest.raises(ValueError):
            Grid([np.array([0.0])], [(-1.0, 1.0), (-1.0, 1.0)])
        with pytest.raises(ValueError):
            Grid([], [])


class TestSampleToCTD:
    def test_constant_function_rank_one(self):
        f = SeparatedFunction(
            [3.0],
            [[lambda t: np.ones_like(np.asarray(t, dtype=float))] for _ in range(3)],
            [(-1.0, 1.0)] * 3,
        )
        grid = Grid.uniform_product(np.linspace(-1, 1, 5), 3, (-1.0, 1.0))
        U = sample_to_ctd(f, grid)
        assert U.rank == 1
        assert eval_entry(U, (0, 0, 0)) == pytest.approx(3.0, rel=1e-14)
        assert eval_entry(U, (4, 2, 1)) == pytest.approx(3.0, rel=1e-14)

    def test_entries_reproduce_function_values(self, rng):
        f = SeparatedFunction(
            [1.5, 0.7],
            [
                [lambda t: np.exp(-np.asarray(t) ** 2), lambda t: np.cos(np.asarray(t)) + 2.0]
                for _ in range(3)
            ],
            [(-2.0, 2.0)] * 3,
        )
        grid = Grid.uniform_product(np.linspace(-2, 2, 9), 3, (-2.0, 2.0))
        U = sample_to_ctd(f, grid)
        assert U.rank == 2
        for _ in range(20):
            idx = tuple(int(i) for i in rng.integers(0, 9, 3))
            x = index_to_point(grid, idx)
            assert eval_entry(U, idx) == pytest.approx(f.value(x), rel=1e-12)

    def test_dimension_mismatch(self):
        f = SeparatedFunction([1.0], [[lambda t: t]], [(-1.0, 1.0)])
        grid = Grid.uniform_product([0.0, 1.0], 2, (-1.0, 1.0))
        with pytest.raises(ValueError):
            sample_to_ctd(f, grid)


class TestIndexToPoint:
    def test_lookups(self):
        grid = Grid([np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.75])],
                    [(-1.0, 1.0), (0.0, 1.0)])
        np.testing.assert_allclose(index_to_point(grid, (0, 0)), [-1.0, 0.25])
        np.testing.assert_allclose(index_to_point(grid, (2, 1)), [1.0, 0.75])
        np.testing.assert_allclose(index_to_point(grid, (1, 0)), [0.0, 0.25])

    def test_errors(self):
        grid = Grid.uniform_product([0.0, 1.0], 2, (-1.0, 2.0))
        with pytest.raises(IndexError):
            index_to_point(grid, (0, 5))
        with pytest.raises(ValueError):
            index_to_point(grid, (0,))


class TestCompassSearch:
    def test_quadratic_bowl_converges(self):
        p = np.array([0.3, -0.7, 0.1])
        f = lambda x: -float(np.sum((x - p) ** 2))
        x, val = compass_search(f, p + 0.31, step0=0.25, tol=1e-8)
        assert np.max(np.abs(x - p)) <= 1e-6
        assert val <= 0.0

    def test_returned_value_is_best_evaluated(self):
        seen = []
        def f(x):
            v = -float(np.sum(x * x)) + float(np.sin(5 * x[0]))
            seen.append(v)
            return v
        x0 = np.array([0.9, -0.4])
        x, val = compass_search(f, x0, step0=0.5, tol=1e-6)
        assert val == pytest.approx(max(seen + [val]))
        assert val >= f(x0)

    def test_no_improvement_returns_start(self):
        f = lambda x: -float(np.sum(np.abs(x)))
        x, val = compass_search(f, np.zeros(2), step0=0.5, tol=1e-3)
        np.testing.assert_allclose(x, 0.0)
        assert val == 0.0

    def test_max_steps_cap_terminates_unbounded_objective(self):
        f = lambda x: float(np.sum(x))
        x, val = compass_search(f, np.zeros(3), step0=1.0, tol=1e-12, max_steps=50)
        assert np.isfinite(val)

    def test_validation(self):
        with pytest.raises(ValueError):
            compass_search(lambda x: 0.0, np.zeros(1), step0=0.1, shrink=1.5)
        with pytest.raises(ValueError):
            compass_search(lambda x: 0.0, np.zeros(1), step0=0.1, tol=0.2)


class TestOptimizeFunction:
    def test_on_grid_planted_maximum_exact_recovery(self):
        target = np.array([0.3, -0.5, 0.0])
        evaluators = [
            [lambda t, c=c: np.exp(-((np.asarray(t, dtype=float) - c) ** 2))]
            for c in target
        ]
        f = SeparatedFunction([2.0], evaluators, [(-1.0, 1.0)] * 3)
        grid = Grid.uniform_product(np.linspace(-1, 1, 21), 3, (-1.0, 1.0))
        search = MaxEntrySearchConfig(reduction=None, termination=RankThreshold(1))
        report = optimize_function(f, grid, search)
        assert report.tensor_index == (13, 5, 10)
        np.testing.assert_allclose(report.tensor_point, target, atol=1e-14)
        np.testing.assert_allclose(report.refined_point, target, atol=1e-14)
        assert report.refined_value == pytest.approx(2.0, rel=1e-12)

    def test_candidates_rescored_on_unreduced_sample(self, g_box):
        p = AckleyParams()
        f = ackley_separated(p, g_box)
        merged = merge_grids(build_radial_grid(g_box), build_cosine_grid(p.c))
        grid = Grid.uniform_product(merged, p.d, (-1.0, 1.0))
        U0 = sample_to_ctd(f, grid)
        search = MaxEntrySearchConfig(
            reduction=ReductionConfig(epsilon=1e-6, algorithm="id", norm="snorm"),
            termination=RankThreshold(1), k_max=100,
        )
        report = optimize_function(
            f, grid, search, exact=lambda x: ackley_eval(p, x)
        )
        assert report.tensor_value == pytest.approx(
            eval_entry(U0, report.tensor_index), rel=1e-12
        )
        assert np.linalg.norm(report.tensor_point) <= 1e-2
        assert report.reduced_rank <= 20
        doc = report.to_json_dict()
        assert doc["tensor_index"] == [i + 1 for i in report.tensor_index]
        assert doc["squaring_iterations"] == report.squaring_iterations

    def test_shifted_ackley_recovered(self):
        p = AckleyParams(d=4)
        g = build_gaussian_expansion(p.b, p.d, 1e-8, 3e-6, 2.0 * 1.3)
        shift = np.array([0.25, -0.1875, 0.125, 0.3125])
        base = ackley_separated(p, g)
        evaluators = [
            [(lambda t, ev=ev, s=shift[j]: ev(np.asarray(t, dtype=float) - s))
             for ev in base.evaluators[j]]
            for j in range(p.d)
        ]
        f = SeparatedFunction(base.svalues, evaluators, [(-1.0, 1.0)] * p.d)
        merged = merge_grids(build_radial_grid(g), build_cosine_grid(p.c))
        grid = Grid.uniform_product(merged, p.d, (-1.0, 1.0))
        search = MaxEntrySearchConfig(
            reduction=ReductionConfig(epsilon=1e-6, algorithm="id", norm="snorm"),
            termination=RankThreshold(1), k_max=100,
        )
        exact = lambda x: ackley_eval(p, np.asarray(x, dtype=float) - shift)
        report = optimize_function(f, grid, search, exact=exact)
        assert np.linalg.norm(report.tensor_point - shift) <= 1e-2
        assert np.linalg.norm(report.refined_point - shift) <= 1e-4
        true_max = p.a + math.e
        assert abs(report.refined_value - true_max) / true_max <= 1e-5
