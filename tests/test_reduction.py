"""Rank-reduction contract checks, dense-verified where shapes allow."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from ctdopt import (
    CTD,
    ReductionConfig,
    add,
    als_sweep,
    frobenius_norm,
    inner,
    norm_of_difference,
    random_ctd,
    rank_one_approx,
    reduce,
    s_norm,
    scale,
    spike_ctd,
    square,
    to_dense,
    zero_ctd,
)
from ctdopt import reduction as reduction_mod
from ctdopt import sepfunc
from ctdopt.reduction import RankOneApprox
from ctdopt.experiments import background_instance, plant_spike
from conftest import gaussian_sum, random_modes, random_signed_ctd


def duplicated_ctd(base, copies):
    out = base
    for _ in range(copies - 1):
        out = add(out, base)
    return out


def dense_rel_error(U, V):
    dU, dV = to_dense(U), to_dense(V)
    return np.linalg.norm(dU - dV) / np.linalg.norm(dU)


class TestReduceContract:
    def test_duplicate_term_collapses(self, rng):
        base = random_signed_ctd((5, 4, 6), 1, rng)
        U = duplicated_ctd(base, 2)
        for algo in ("id", "als"):
            res = reduce(U, ReductionConfig(epsilon=1e-10, algorithm=algo, norm="snorm"))
            assert res.rank == 1
            assert res.tolerance_met
            assert_allclose(res.ctd.svalues[0], 2.0 * base.svalues[0], rtol=1e-12)
            assert dense_rel_error(U, res.ctd) <= 1e-12

    def test_exactly_dependent_minimal_rank(self, rng):
        # Three distinct directions, each duplicated: minimal rank is 3.
        parts = [random_signed_ctd((4, 4, 4), 1, rng) for _ in range(3)]
        U = zero_ctd((4, 4, 4))
        for p in parts:
            U = add(U, duplicated_ctd(p, 2))
        assert U.rank == 6
        for algo in ("id", "als"):
            res = reduce(U, ReductionConfig(epsilon=1e-6, algorithm=algo))
            assert res.rank == 3, algo
            assert dense_rel_error(U, res.ctd) <= 1e-6

    def test_spike_plus_noise(self, rng):
        spike = spike_ctd((5, 5, 5), (2, 3, 1), 1.0)
        noise = scale(random_signed_ctd((5, 5, 5), 3, rng), 1e-12)
        U = add(spike, noise)
        res = reduce(U, ReductionConfig(epsilon=1e-6))
        assert res.rank == 1
        dense = to_dense(res.ctd)
        assert abs(dense[2, 3, 1] - 1.0) <= 1e-9
        assert dense_rel_error(U, res.ctd) <= 1e-6

    def test_near_dependent_error_bound(self, rng):
        for trial in range(5):
            base = random_ctd((5, 4, 5), 3, rng=rng)
            bump = scale(random_signed_ctd((5, 4, 5), 2, rng), 1e-4)
            U = add(base, bump)
            for algo in ("id", "als"):
                res = reduce(U, ReductionConfig(epsilon=1e-3, algorithm=algo))
                assert res.rank <= U.rank
                assert dense_rel_error(U, res.ctd) <= 1e-3

    def test_incompressible_returns_input(self, rng):
        U = random_signed_ctd((6, 6), 3, rng)
        res = reduce(U, ReductionConfig(epsilon=1e-14, norm="snorm"))
        assert res.rank == U.rank
        assert res.tolerance_met
        assert dense_rel_error(U, res.ctd) <= 1e-13

    def test_max_rank_cap_flags_best_effort(self, rng):
        U = random_signed_ctd((6, 6, 6), 5, rng)
        cfg = ReductionConfig(epsilon=1e-12, norm="snorm", max_rank=2)
        for algo in ("id", "als"):
            res = reduce(U, ReductionConfig(epsilon=1e-12, norm="snorm",
                                            max_rank=2, algorithm=algo))
            assert res.rank <= 2
            assert not res.tolerance_met
        # the uncapped config on the same input succeeds by returning U
        res = reduce(U, cfg.__class__(epsilon=1e-12, norm="snorm"))
        assert res.tolerance_met

    def test_max_rank_cap_stops_the_snorm_cholesky(self, rng, monkeypatch):
        # No skeleton past the cap is read, so the interpolative s-norm
        # Cholesky factors no more pivots than the cap allows.
        U = random_signed_ctd((6, 6, 6), 5, rng)
        cholesky = reduction_mod._pivoted_cholesky_lazy
        pivots = []

        def run(*args, **kwargs):
            out = cholesky(*args, **kwargs)
            pivots.append(len(out[0]))
            return out

        monkeypatch.setattr(reduction_mod, "_pivoted_cholesky_lazy", run)
        res = reduce(U, ReductionConfig(epsilon=1e-12, norm="snorm", max_rank=2))
        assert res.rank <= 2
        assert not res.tolerance_met
        assert len(pivots) == 1 and pivots[0] <= 2

    def test_zero_and_rank_zero(self):
        Z = zero_ctd((4, 4))
        res = reduce(Z, ReductionConfig(epsilon=1e-6))
        assert res.rank == 0 and res.tolerance_met

    @pytest.mark.parametrize("norm", ["frobenius", "snorm"])
    @pytest.mark.parametrize("algorithm", ["id", "als"])
    @pytest.mark.parametrize("case", ["rank zero", "incompressible"])
    def test_exits_without_a_smaller_rank(self, rng, case, algorithm, norm):
        # A rank-0 input leaves by the zero-norm exit.  A generic rank-3
        # matrix is 1e-6 from no rank-2 one, so its search accepts nothing
        # and the input comes back renormalized.
        if case == "rank zero":
            U, rank = zero_ctd((3, 4, 5)), 0
        else:
            U, rank = random_signed_ctd((6, 6), 3, rng), 3
        res = reduce(U, ReductionConfig(epsilon=1e-6, norm=norm, algorithm=algorithm))
        assert res.rank == rank
        assert res.rel_error == 0.0
        assert res.tolerance_met is True
        assert res.algorithm == algorithm
        assert res.norm == norm
        assert res.fallback_to_als is False
        if rank:
            assert dense_rel_error(U, res.ctd) <= 1e-13

    def test_indefinite_fallback_reports_als(self, rng, monkeypatch):
        U = random_signed_ctd((4, 4), 3, rng)
        bad = np.array(reduction_mod._gram_diag(U))
        bad[0] = -1.0  # force an indefinite diagonal
        monkeypatch.setattr(reduction_mod, "_gram_diag", lambda _: bad)
        res = reduce(U, ReductionConfig(epsilon=1e-6, algorithm="id"))
        assert res.fallback_to_als is True
        assert res.algorithm == "als"
        assert res.tolerance_met

    def test_frobenius_small_epsilon_warns(self, rng):
        U = random_signed_ctd((4, 4), 2, rng)
        with pytest.warns(UserWarning, match="double precision"):
            reduce(U, ReductionConfig(epsilon=1e-10, norm="frobenius"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReductionConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            ReductionConfig(epsilon=1e-6, norm="spectral")
        with pytest.raises(ValueError):
            ReductionConfig(epsilon=1e-6, algorithm="svd")


class TestAlsSweep:
    def test_residual_non_increasing(self, rng):
        U = random_signed_ctd((5, 5, 5), 5, rng)
        order = np.argsort(-U.svalues)[:3]
        V = reduction_mod._normalized(
            U.svalues[order], [np.array(F[:, order]) for F in U.factors]
        )
        prev = norm_of_difference(U, V)
        for sweep in range(6):
            for j in range(U.ndim):
                V = als_sweep(U, V, j)
            res = norm_of_difference(U, V)
            assert res <= prev + 1e-10 * frobenius_norm(U)
            prev = res

    def test_dimension_out_of_range(self, rng):
        U = random_signed_ctd((4, 4), 2, rng)
        with pytest.raises(IndexError):
            als_sweep(U, U, 5)


class TestSNorm:
    def test_rank_one_exact(self, rng):
        U = random_signed_ctd((5, 6, 4), 1, rng)
        assert_allclose(s_norm(U), U.svalues[0], rtol=1e-13)

    def test_matches_top_singular_value_d2(self, rng):
        for _ in range(10):
            U = random_ctd((7, 6), 4, low=0.9, high=1.0, rng=rng)
            sigma = np.linalg.svd(to_dense(U), compute_uv=False)
            assert_allclose(s_norm(U), sigma[0], rtol=1e-9)

    def test_never_exceeds_frobenius(self, rng):
        for _ in range(10):
            U = random_signed_ctd((5, 5, 5), 4, rng)
            assert s_norm(U) <= frobenius_norm(U) * (1 + 1e-10)

    def test_zero(self):
        assert s_norm(zero_ctd((3, 3))) == 0.0

    def test_rank_one_approx_factors_unit(self, rng):
        U = random_signed_ctd((5, 5), 3, rng)
        approx = rank_one_approx(U)
        for f in approx.factors:
            assert_allclose(np.linalg.norm(f), 1.0, atol=1e-12)
        assert approx.as_ctd().rank == 1


class TestNormOfDifference:
    def test_frobenius_vs_dense(self, rng):
        U = random_signed_ctd((5, 4, 4), 3, rng)
        V = random_signed_ctd((5, 4, 4), 2, rng)
        expect = np.linalg.norm(to_dense(U) - to_dense(V))
        assert_allclose(norm_of_difference(U, V), expect, rtol=1e-10)

    def test_snorm_vs_dense_svd_d2(self, rng):
        U = random_ctd((6, 5), 3, rng=rng)
        V = random_ctd((6, 5), 2, rng=rng)
        sigma = np.linalg.svd(to_dense(U) - to_dense(V), compute_uv=False)
        assert_allclose(norm_of_difference(U, V, "snorm"), sigma[0], rtol=1e-8)

    def test_identical_inputs(self, rng):
        U = random_signed_ctd((4, 4), 3, rng)
        assert norm_of_difference(U, U) <= 1e-12 * frobenius_norm(U)


class TestInterpolative:
    def test_pivot_tie_lowest_index(self):
        # Two orthogonal spikes of equal weight: the first must be picked first.
        A = spike_ctd((4, 4), (0, 0), 2.0)
        B = spike_ctd((4, 4), (3, 3), 2.0)
        U = add(A, B)
        pivots, _, _, indefinite = reduction_mod._pivoted_cholesky_lazy(U)
        assert not indefinite
        assert pivots[0] == 0

    def test_snorm_contract_dense_verified_d2(self, rng):
        base = random_ctd((8, 8), 3, rng=rng)
        bump = scale(random_signed_ctd((8, 8), 3, rng), 1e-5)
        U = add(base, bump)
        cfg = ReductionConfig(epsilon=1e-3, norm="snorm", algorithm="id")
        res = reduce(U, cfg)
        assert res.rank < U.rank
        sigma = np.linalg.svd(to_dense(U) - to_dense(res.ctd), compute_uv=False)
        assert sigma[0] <= 1e-3 * s_norm(U)

    def test_indefinite_gram_falls_back(self, rng, monkeypatch):
        # The search that met the indefinite Gram is handed to ALS, so
        # <U, U> is summed once and the Cholesky runs once.
        U = random_signed_ctd((4, 4), 3, rng)
        bad = np.array(reduction_mod._gram_diag(U))
        bad[0] = -1.0  # force an indefinite diagonal
        monkeypatch.setattr(reduction_mod, "_gram_diag", lambda _: bad)
        calls = count_calls(monkeypatch, "_self_inner", "_pivoted_cholesky_lazy")
        res = reduce(U, ReductionConfig(epsilon=1e-6))
        assert res.fallback_to_als
        assert res.tolerance_met
        assert calls == {"_self_inner": 1, "_pivoted_cholesky_lazy": 1}
        # The s-norm search sums no <U, U>, so its fallback sums it for ALS
        # and searches no second time.
        calls.update(dict.fromkeys(calls, 0))
        res = reduce(U, ReductionConfig(epsilon=1e-6, norm="snorm"))
        assert res.algorithm == "als"
        assert res.fallback_to_als
        assert res.tolerance_met
        assert calls == {"_self_inner": 1, "_pivoted_cholesky_lazy": 1}

    def test_psd_gram_not_flagged_indefinite(self):
        # The first square of this spike-search instance has rank 10 and a
        # PSD term Gram of numerical rank 7.  Factored to exhaustion, the
        # roundoff left after the seventh pivot dipped below the negative
        # band and sent the reduction to ALS; the certificate accepts at 7.
        rng = np.random.default_rng(22)
        U, _ = plant_spike(background_instance(6, 32, 3, rng), rng, spike_to=3.5)
        Q = square(scale(U, 1.0 / frobenius_norm(U)))
        assert Q.rank == 10
        res = reduce(Q, ReductionConfig(epsilon=1e-6))
        assert res.fallback_to_als is False
        assert res.rank == 7
        assert res.tolerance_met
        V = res.ctd
        qq = inner(Q, Q)
        assert np.sqrt(max(qq - 2.0 * inner(Q, V) + inner(V, V), 0.0) / qq) <= 1e-6


def _small_ctd(seed, rank, modes):
    return random_signed_ctd(modes, rank, np.random.default_rng(seed))


_small_ctds = st.builds(
    _small_ctd,
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.lists(st.integers(2, 5), min_size=2, max_size=4),
)

# as above, but down to one dimension, where a sweep has no other factor
_small_ctds_any_d = st.builds(
    _small_ctd,
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.lists(st.integers(2, 6), min_size=1, max_size=4),
)


def reference_rank_one_approx(U, max_sweeps=500, goal=None):
    """The rank-one fit as it was before it kept the left product across a
    sweep: each update multiplies a fresh copy of the s-values by every
    other dimension's ``cross`` vector.  :func:`rank_one_approx` must match
    it bit for bit.  Its start (largest |s-value|) and zero test (relative
    to the sum of |s_l|) follow the current fit."""
    if U.rank == 0:
        return RankOneApprox(0.0, [np.zeros(M) for M in U.modes])
    start = int(np.argmax(np.abs(U.svalues)))
    v = [np.array(F[:, start]) for F in U.factors]
    cross = [F.T @ vj for F, vj in zip(U.factors, v)]
    s = abs(float(U.svalues[start]))
    zero = max(np.finfo(float).eps * float(np.sum(np.abs(U.svalues))), 1e-300)
    d = U.ndim
    restarted = False
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        s_prev = s
        for j in range(d):
            p = U.svalues.copy()
            for k in range(d):
                if k != j:
                    p *= cross[k]
            b = U.factors[j] @ p
            nb = float(np.sqrt(b.dot(b)))
            if nb <= zero:
                if restarted:
                    return RankOneApprox(0.0, v, sweeps)
                restarted = True
                v = [np.full(M, 1.0 / np.sqrt(M)) for M in U.modes]
                cross = [F.T @ vj for F, vj in zip(U.factors, v)]
                break
            v[j] = b / nb
            cross[j] = U.factors[j].T @ v[j]
            s = nb
            if goal is not None and s > goal:
                return RankOneApprox(s, v, sweeps)
        else:
            if abs(s - s_prev) < 1e-14 * max(s, 1e-300):
                break
    else:
        return RankOneApprox(s, v, sweeps, converged=False)
    return RankOneApprox(s, v, sweeps)


def assert_same_fit(got, want):
    assert got.svalue == want.svalue
    assert got.sweeps == want.sweeps
    assert got.converged == want.converged
    assert len(got.factors) == len(want.factors)
    for a, b in zip(got.factors, want.factors):
        assert np.array_equal(a, b)


class TestRankOneLoop:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_small_ctds_any_d, st.sampled_from([None, 0.25, 0.5, 0.9]))
    def test_bitwise_equal_to_reference(self, U, goal_frac):
        goal = None if goal_frac is None else goal_frac * frobenius_norm(U)
        for max_sweeps in (3, 500):
            assert_same_fit(rank_one_approx(U, max_sweeps, goal=goal),
                            reference_rank_one_approx(U, max_sweeps, goal=goal))

    @pytest.mark.parametrize("rank", [1, 3])
    def test_zero_tensor_restart(self, rng, rank):
        # X - X: the updates are zero up to roundoff, so the fit restarts
        # from a uniform direction and returns 0 when it meets zero again.
        X = random_signed_ctd((4, 5, 3, 4), rank, rng)
        Z = add(X, scale(X, -1.0))
        got = rank_one_approx(Z)
        assert_same_fit(got, reference_rank_one_approx(Z))
        assert got.svalue <= 1e-12 * frobenius_norm(X)

    def test_cancelling_input_is_zero_at_once(self, rng):
        # At rank 1 the matrix-vector product leaves a residue of about
        # 2e-17, far above an absolute 1e-300 zero test, which let this fit
        # run all 500 sweeps to return 5.9e-20.  Relative to the sum of the
        # |s-values| the residue is rounding noise.
        X = random_signed_ctd((4, 5, 3, 4), 1, rng)
        got = rank_one_approx(add(X, scale(X, -1.0)))
        assert got.svalue == 0.0
        assert got.sweeps <= 2
        assert got.converged

    def test_converged_flag(self, rng):
        U = random_signed_ctd((5, 4, 6), 4, rng)
        done = rank_one_approx(U)
        assert done.converged and done.sweeps < 500
        capped = rank_one_approx(U, 2)
        assert capped.sweeps == 2 and not capped.converged
        # a goal below the first weight ends the fit, converged, at sweep 1
        early = rank_one_approx(U, 2, goal=0.0)
        assert early.sweeps == 1 and early.converged


class TestSkeletonResidual:
    """U - V on U's own terms, the form in which the interpolative path
    measures a skeleton's s-norm error, against dense oracles."""

    @staticmethod
    def dense_gap(U, V, R):
        """||R - (U - V)||_F, from the dense tensors."""
        return np.linalg.norm(to_dense(R) - (to_dense(U) - to_dense(V)))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_difference(self, seed):
        rng = np.random.default_rng(seed)
        U = random_signed_ctd(random_modes(rng), int(rng.integers(3, 8)), rng)
        tol = 1e-12 * frobenius_norm(U)
        # chosen coefficients, alternating in sign
        S = rng.choice(U.rank, size=int(rng.integers(2, U.rank)), replace=False)
        c = rng.uniform(0.1, 2.0, size=len(S)) * (-1.0) ** (np.arange(len(S)) + 1)
        V = reduction_mod._normalized(c * U.svalues[S], [F[:, S] for F in U.factors])
        R = reduction_mod._skeleton_residual(U, S, c)
        assert self.dense_gap(U, V, R) <= tol
        # the refit's own coefficients, at every skeleton size
        pivots, _, C, _ = reduction_mod._pivoted_cholesky_lazy(U)
        for k in range(1, len(pivots)):
            V, c = reduction_mod._skeleton_ctd_from_cols(U, C, pivots, k)
            R = reduction_mod._skeleton_residual(U, pivots[:k], c)
            assert self.dense_gap(U, V, R) <= tol
            # R shares U's factors and has U's rank
            assert R.rank == U.rank
            assert all(a is b for a, b in zip(R.factors, U.factors))

    @pytest.mark.parametrize("seed", range(4))
    def test_fit_ignores_the_sign_of_the_weights(self, seed):
        rng = np.random.default_rng(seed)
        U = random_signed_ctd(random_modes(rng), 6, rng)
        S = np.array([0, 2, 3])
        c = np.array([-0.7, 1.6, 0.4])
        R = reduction_mod._skeleton_residual(U, S, c)
        assert (R.svalues < 0).any() and (R.svalues > 0).any()
        flipped = CTD(-R.svalues, R.factors, validate=False)
        got, want = rank_one_approx(flipped), rank_one_approx(R)
        assert got.svalue == want.svalue and got.sweeps == want.sweeps

    def test_rank_one_difference_is_its_frobenius_norm(self, rng):
        # six terms along one direction, signs in the first factor
        x = random_signed_ctd((4, 5, 3), 1, rng)
        signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        factors = [x.factors[0] * signs] + [np.repeat(F, 6, axis=1) for F in x.factors[1:]]
        U = CTD(np.arange(1.0, 7.0), factors)
        R = reduction_mod._skeleton_residual(U, np.array([0, 3, 4]),
                                             np.array([-0.5, 1.5, 0.25]))
        dense = np.linalg.norm(to_dense(R))
        assert dense > 1.0
        assert_allclose(rank_one_approx(R).svalue, dense, rtol=1e-12)


def dense_term_gram(U):
    """The term Gram matrix <s_a u_a, s_b u_b>, from the materialized terms."""
    terms = []
    for l in range(U.rank):
        t = np.array(U.svalues[l])
        for F in U.factors:
            t = np.multiply.outer(t, F[:, l])
        terms.append(t.ravel())
    T = np.array(terms)
    return T @ T.T


def dense_pivoted_cholesky(G, bound):
    """Reference diagonal-pivoted Cholesky of a dense PSD matrix: pivots,
    L and the unselected diagonal mass after each pivot, stopped at the
    first sqrt(mass) <= bound; ties go to the lowest index."""
    r = G.shape[0]
    d = np.diag(G).astype(float)
    L = np.zeros((r, 0))
    pivots, remaining = [], []
    active = np.ones(r, dtype=bool)
    while active.any():
        p = int(np.argmax(np.where(active, d, -np.inf)))
        lk = (G[:, p] - L @ L[p]) / np.sqrt(d[p])
        lk[~active] = 0.0
        L = np.column_stack([L, lk])
        active[p] = False
        d = d - lk * lk
        pivots.append(p)
        remaining.append(d[active].sum())
        if np.sqrt(max(remaining[-1], 0.0)) <= bound:
            break
    return np.array(pivots), L, np.array(remaining)


class TestStoppedCholesky:
    """``accept`` is offered each new skeleton with its squared residual
    and stops the pivoted Cholesky at the first True, as a prefix of the
    full run; here it stops at the first sqrt(max(res, 0)) <= bound."""

    @staticmethod
    def _run(U, bound=None):
        """(pivots, L, C, indefinite, offers): the Cholesky of U whose
        ``accept`` records each offer as (k, res), stopped at ``bound``."""
        offers = []

        def accept(pivots, L, C, res):
            k = len(pivots)
            assert L.shape[1] == C.shape[1] == k
            offers.append((k, res))
            return bound is not None and np.sqrt(max(res, 0.0)) <= bound

        return (*reduction_mod._pivoted_cholesky_lazy(U, accept), offers)

    @staticmethod
    def _bound(remaining, pick, factor):
        cert = np.sqrt(np.maximum(remaining, 0.0))
        return float(cert[pick % len(cert)] * factor), cert

    @settings(max_examples=80, deadline=None, derandomize=True)
    # factor 1.0 puts the bound exactly on a certificate, which must stop
    @given(_small_ctds, st.integers(0, 7), st.just(1.0) | st.floats(0.5, 2.0))
    def test_prefix_of_full_factorization(self, U, pick, factor):
        *full, offers = self._run(U)
        piv, L, C, indef = full
        rem = np.array([res for _, res in offers])
        # every skeleton is offered in order; an exhausted diagonal offers
        # the last one once more, with residual 0
        assert [k for k, _ in offers[:len(piv)]] == list(range(1, len(piv) + 1))
        assert offers[len(piv):] in ([], [(len(piv), 0.0)])
        assert indef or rem[-1] <= 0.0  # no bound: runs to exhaustion
        for got, want in zip(reduction_mod._pivoted_cholesky_lazy(U, None), full):
            assert np.array_equal(got, want)
        bound, cert = self._bound(rem, pick, factor)
        met = np.flatnonzero(cert <= bound)
        stop = met[0] + 1 if met.size else len(offers)
        steps = offers[stop - 1][0] if met.size else len(piv)
        s_piv, s_L, s_C, s_indef, s_offers = self._run(U, bound)
        assert len(s_piv) == steps
        assert np.array_equal(s_piv, piv[:steps])
        assert np.array_equal(s_L, L[:, :steps])
        assert np.array_equal(s_C, C[:, :steps])
        assert s_offers == offers[:stop]
        assert s_indef == (indef and not met.size)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_small_ctds, st.integers(0, 7))
    def test_lazy_picks_the_same_pivots(self, U, pick):
        # The column-fetch factorization agrees with a dense pivoted
        # Cholesky of the dense term Gram: same pivots, and columns, factor
        # and remaining mass equal up to roundoff.
        G = dense_term_gram(U)
        scale_ = np.trace(G)
        _, _, rem = dense_pivoted_cholesky(G, 0.0)
        # a bound well above roundoff and off every certificate, so the last
        # bits in which the two Gram sources differ cannot move the stop
        bound, _ = self._bound(rem, pick, 1.001)
        bound = max(bound, 1e-6 * np.sqrt(scale_))
        piv, L, rem = dense_pivoted_cholesky(G, bound)
        l_piv, l_L, l_C, l_indef, offers = self._run(U, bound)
        assert not l_indef
        assert np.array_equal(l_piv, piv)
        assert_allclose(l_C, G[:, piv], rtol=0, atol=1e-12 * scale_)
        assert_allclose(l_L, L, rtol=0, atol=1e-10 * np.sqrt(scale_))
        assert [k for k, _ in offers] == list(range(1, len(piv) + 1))
        assert_allclose([res for _, res in offers], rem, rtol=0, atol=1e-12 * scale_)
        S = l_piv
        assert_allclose(l_L[S] @ l_L[S].T, G[np.ix_(S, S)], rtol=0, atol=1e-12 * scale_)


class TestDistinctTermOrder:
    """ALS starts every fit from the pivot order of one pivoted Cholesky of
    the term Gram, where a near-duplicate of a pivot comes late."""

    def test_formed_once_per_reduction(self, rng, monkeypatch):
        # Three directions, each twice: the Cholesky pivots one term of
        # each, and that rank-3 skeleton meets the goal; the unfolding
        # spectra rule out ranks 1 and 2, so ALS fits nothing.
        U = three_directions_twice(rng)
        calls = count_calls(monkeypatch, "_pivoted_cholesky_lazy")
        fitted = record_fitted_ranks(monkeypatch)
        res = reduce(U, ReductionConfig(epsilon=1e-6, algorithm="als"))
        assert res.rank == 3
        assert res.algorithm == "als"
        assert fitted == []
        assert calls["_pivoted_cholesky_lazy"] == 1

    @pytest.mark.parametrize("norm", ["frobenius", "snorm"])
    @pytest.mark.parametrize("terms, ndim, points, widths", [
        (12, 3, 10, (0.5, 20.0)),
        (10, 4, 8, (0.3, 8.0)),
    ])
    def test_stopped_search_changes_no_fit(self, monkeypatch, norm, terms, ndim,
                                           points, widths):
        # The search's Cholesky stops at the Frobenius skeleton, or at
        # rank(U) - 1 pivots, short of exhaustion.  Every ALS fit is below
        # the skeleton and reads only a prefix of its pivots, so the result
        # is bitwise that of a search factored to exhaustion.
        U = gaussian_sum(terms, ndim, points, widths)
        cfg = ReductionConfig(epsilon=1e-4, norm=norm, algorithm="als")
        skeleton = reduce(U, ReductionConfig(epsilon=1e-4)).rank
        cholesky = reduction_mod._pivoted_cholesky_lazy
        pivots = []

        def factor(full):
            def run(U, accept=None, uu=None, max_pivots=None):
                if full:  # the search reads every skeleton up to its accepted one
                    read, done = accept, []

                    def accept(*skeleton):
                        if not done and read(*skeleton):
                            done.append(True)
                        return False

                    max_pivots = None
                out = cholesky(U, accept, uu=uu, max_pivots=max_pivots)
                pivots.append(len(out[0]))
                return out
            return run

        fitted = record_fitted_ranks(monkeypatch)
        monkeypatch.setattr(reduction_mod, "_pivoted_cholesky_lazy", factor(False))
        stopped = reduce(U, cfg)
        monkeypatch.setattr(reduction_mod, "_pivoted_cholesky_lazy", factor(True))
        full = reduce(U, cfg)
        assert fitted and max(fitted) < skeleton
        assert pivots[0] < pivots[1]
        if norm == "frobenius":
            assert pivots[0] <= skeleton < pivots[1]
        else:  # stopped where the refit residual's bound accepts
            assert pivots[0] < U.rank - 1
        assert stopped.sweeps == full.sweeps
        assert stopped.rel_error == full.rel_error
        assert np.array_equal(stopped.ctd.svalues, full.ctd.svalues)
        for got, want in zip(stopped.ctd.factors, full.ctd.factors):
            assert np.array_equal(got, want)


def count_calls(monkeypatch, *names):
    """Patch each named function of the reduction module to count its calls
    into the returned dict."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(reduction_mod, name, counted(name, getattr(reduction_mod, name)))
    return calls


def three_directions_twice(rng):
    """Exactly rank 3, stored as rank 6: three random directions, each
    twice."""
    parts = [random_signed_ctd((4, 4, 4), 1, rng) for _ in range(3)]
    U = zero_ctd((4, 4, 4))
    for p in parts:
        U = add(U, duplicated_ctd(p, 2))
    return U


def record_fitted_ranks(monkeypatch):
    """Patch ``_als_fit`` to append the rank of every ALS fit to the returned
    list."""
    fitted = []
    fit = reduction_mod._als_fit

    def wrapper(U, terms, *args):
        fitted.append(len(terms))
        return fit(U, terms, *args)

    monkeypatch.setattr(reduction_mod, "_als_fit", wrapper)
    return fitted


def dense_unfolding(U, j):
    """The mode-j unfolding of the dense tensor: M_j rows, one column per
    index of the other dimensions."""
    return np.moveaxis(to_dense(U), j, 0).reshape(U.modes[j], -1)


class TestRankFloor:
    """``_unfolding_spectra`` and the rank floor that lets Frobenius ALS
    skip candidate ranks that cannot meet the tolerance."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.lists(st.integers(2, 6), min_size=2, max_size=4),
    )
    @example(seed=1, rank=8, modes=[2, 3, 2])  # every M_j < r
    @example(seed=2, rank=2, modes=[6, 5, 6, 4])  # every M_j > r
    def test_spectra_match_dense_svd(self, seed, rank, modes):
        U = _small_ctd(seed, rank, modes)
        spectra = reduction_mod._unfolding_spectra(U)
        assert len(spectra) == U.ndim
        for j, lam in enumerate(spectra):
            sigma = np.linalg.svd(dense_unfolding(U, j), compute_uv=False)
            want = np.zeros(U.modes[j])
            want[:sigma.size] = sigma**2
            assert lam.shape == want.shape
            assert np.all(lam >= 0.0)
            assert np.all(np.diff(lam) <= 0.0)
            assert_allclose(lam, want, rtol=0, atol=1e-12 * want[0])

    def test_blocked_sums_match_dense(self, rng):
        # Rank 150 spans three column blocks of the term Gram, over which
        # both the spectra and <U, U> are summed.
        U = random_signed_ctd((3, 4, 5, 3), 150, rng)
        dense = to_dense(U)
        for j, lam in enumerate(reduction_mod._unfolding_spectra(U)):
            want = np.linalg.svd(dense_unfolding(U, j), compute_uv=False) ** 2
            assert_allclose(lam, want, rtol=0, atol=1e-12 * want[0])
        assert_allclose(reduction_mod._self_inner(U), np.sum(dense ** 2), rtol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.lists(st.integers(2, 6), min_size=2, max_size=4),
        st.integers(1, 3),
    )
    def test_exact_rank_never_skipped(self, seed, rank, modes, copies):
        # U is exactly rank ``rank`` (each term repeated at other weights and
        # signs), so its floor at that rank must not rule it out at any goal.
        rng = np.random.default_rng(seed)
        W = random_signed_ctd(modes, rank, rng)
        U = W
        for c in rng.uniform(-2.0, 2.0, size=copies):
            U = add(U, scale(W, c))
        floor = reduction_mod._rank_floor(U)
        assert floor.shape == (U.rank + 1,)
        assert floor[rank] <= 0.0

    def test_floor_is_the_largest_tail_less_the_allowance(self, rng):
        U = random_signed_ctd((5, 6, 4), 6, rng)
        tails = np.zeros(U.rank + 1)
        for j in range(U.ndim):
            sigma = np.linalg.svd(dense_unfolding(U, j), compute_uv=False)
            for k in range(U.rank + 1):
                tails[k] = max(tails[k], np.sum(sigma[k:] ** 2))
        allowance = np.finfo(float).eps * (3 * 6 + 6) * np.sum(U.svalues) ** 2
        assert_allclose(reduction_mod._rank_floor(U), tails - allowance,
                        rtol=0, atol=1e-12 * tails[0])
        # No rank-k CTD comes closer, U's own k largest terms among them.
        dense = to_dense(U)
        for k in range(U.rank + 1):
            keep = np.argsort(-U.svalues)[:k]
            V = CTD(U.svalues[keep], [F[:, keep] for F in U.factors])
            assert tails[k] <= np.sum((dense - to_dense(V)) ** 2) * (1 + 1e-12)

    @pytest.mark.parametrize("kwargs, ranks", [
        ({"norm": "snorm"}, [1, 2]),
        ({"norm": "frobenius", "max_rank": 2}, [1, 2]),
        ({"norm": "snorm", "max_rank": 2}, [1, 2]),
    ])
    def test_snorm_and_capped_fit_every_rank(self, rng, monkeypatch, kwargs, ranks):
        # Outside the uncapped Frobenius norm the floor is never formed, and
        # every candidate rank of the ascent is fitted: in the s-norm those
        # below the rank-3 skeleton, which the cap of 2 rules out.
        U = three_directions_twice(rng)

        def no_floor(_):
            raise AssertionError("floor formed")

        monkeypatch.setattr(reduction_mod, "_rank_floor", no_floor)
        fitted = record_fitted_ranks(monkeypatch)
        reduce(U, ReductionConfig(epsilon=1e-6, algorithm="als", **kwargs))
        assert fitted == ranks

    @pytest.mark.parametrize("seed", range(4))
    def test_skipping_changes_only_the_sweeps(self, monkeypatch, seed):
        # Without the floor every candidate rank is fitted.  The skipped fits
        # would have failed, and each fit starts afresh from its prefix of
        # the term order, so the result is bitwise the same, in fewer sweeps.
        rng = np.random.default_rng([7, seed])
        W = random_signed_ctd((6, 5, 6), 5, rng)
        U = add(W, scale(W, -0.5))
        U = add(U, scale(random_signed_ctd((6, 5, 6), 3, rng), 1e-9))
        cfg = ReductionConfig(epsilon=1e-6, algorithm="als")
        pruned = reduce(U, cfg)
        monkeypatch.setattr(reduction_mod, "_rank_floor",
                            lambda V: np.zeros(V.rank + 1))
        full = reduce(U, cfg)
        assert pruned.sweeps < full.sweeps
        assert pruned.rel_error == full.rel_error
        assert np.array_equal(pruned.ctd.svalues, full.ctd.svalues)
        for got, want in zip(pruned.ctd.factors, full.ctd.factors):
            assert np.array_equal(got, want)


class TestReductionResult:
    def test_metadata_round_trip(self, rng):
        U = random_signed_ctd((4, 4), 3, rng)
        res = reduce(U, ReductionConfig(epsilon=1e-3, norm="snorm"))
        meta = res.metadata()
        assert meta["achieved_rank"] == res.rank
        assert meta["algorithm"] in ("id", "als")
        assert isinstance(meta["tolerance_met"], bool)


def frobenius_allowance(U):
    """Relative rounding allowance of a Frobenius residual formed as a
    difference of inner products: the root of eps (d max M + r) (sum |s|)^2,
    over ||U||_F.  Every Gram entry is a product of d factor inner products
    of length up to max M, weighted by s-values whose products sum to at most
    (sum |s|)^2 over the r terms, so that is the rounding of <U, U> and of
    ||P_S U||^2; their difference is the squared residual."""
    eps = np.finfo(float).eps
    sq = eps * (U.ndim * max(U.modes) + U.rank) * float(np.sum(np.abs(U.svalues))) ** 2
    return np.sqrt(sq) / np.linalg.norm(to_dense(U))


def _dependent_ctd(seed, rank, modes, copies, noise):
    """A random signed rank-``rank`` CTD whose terms repeat ``copies`` times
    at other weights and signs, plus ``noise`` times a random rank-2 CTD.
    With ``noise`` 0 it is exactly rank ``rank`` in the span of its terms,
    because the mode sizes (3 or more) make ``rank`` <= 5 random terms
    independent."""
    rng = np.random.default_rng(seed)
    W = random_signed_ctd(modes, rank, rng)
    U = W
    for c in rng.uniform(-2.0, 2.0, size=copies):
        U = add(U, scale(W, c))
    if noise:
        U = add(U, scale(random_signed_ctd(modes, 2, rng), noise))
    return U


def exact_rank_ctd(seed):
    """(k, U): U is k = 1-5 random signed terms on 2-4 dimensions of size
    3-5, stored with 1-3 repeats of all of them at weights in (-2, 2), all
    drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, 6))
    modes = [int(m) for m in rng.integers(3, 6, size=int(rng.integers(2, 5)))]
    W = random_signed_ctd(modes, rank, rng)
    U = W
    for c in rng.uniform(-2.0, 2.0, size=int(rng.integers(1, 4))):
        U = add(U, scale(W, c))
    return rank, U


_dependent_args = (
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.lists(st.integers(3, 5), min_size=2, max_size=4),
    st.integers(1, 3),
)


def frobenius_id_pivots(U, epsilon):
    """The pivots and Gram columns of the Frobenius ID search on U at
    ``epsilon``, as :func:`reduce` factors them."""
    uu = reduction_mod._self_inner(U)
    goal = epsilon * np.sqrt(uu)
    pivots, _, C, indefinite = reduction_mod._pivoted_cholesky_lazy(
        U, lambda pivots, L, C, res: np.sqrt(max(res, 0.0)) <= goal, uu=uu,
        max_pivots=U.rank - 1)
    assert not indefinite
    return pivots, C


class TestFrobeniusContract:
    """The Frobenius ``reduce`` contract on dense tensors, for inputs whose
    terms are dependent up to a chosen noise level."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(*_dependent_args, st.sampled_from([1e-9, 1e-6, 1e-4, 1e-2]),
           st.sampled_from([1e-3, 1e-5, 1e-6]), st.sampled_from(["id", "als"]))
    def test_met_means_dense_error_within_tolerance(self, seed, rank, modes, copies,
                                                    noise, epsilon, algorithm):
        U = _dependent_ctd(seed, rank, modes, copies, noise)
        res = reduce(U, ReductionConfig(epsilon=epsilon, algorithm=algorithm))
        assert res.tolerance_met
        if res.rank < U.rank:
            assert dense_rel_error(U, res.ctd) <= epsilon + frobenius_allowance(U)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(*_dependent_args, st.sampled_from([1e-9, 1e-6, 1e-4, 1e-2]),
           st.sampled_from([1e-3, 1e-5, 1e-6]))
    def test_id_error_is_the_refit_residual(self, seed, rank, modes, copies, noise,
                                            epsilon):
        # rel_error is the dense error of the returned skeleton, and the
        # skeleton one pivot shorter misses the goal, both up to rounding.
        U = _dependent_ctd(seed, rank, modes, copies, noise)
        res = reduce(U, ReductionConfig(epsilon=epsilon, algorithm="id"))
        allowance = frobenius_allowance(U)
        assert abs(res.rel_error - dense_rel_error(U, res.ctd)) <= allowance
        if res.rank == U.rank:
            return
        pivots, C = frobenius_id_pivots(U, epsilon)
        k = res.rank
        assert len(pivots) == k
        if k > 1:
            shorter, _ = reduction_mod._skeleton_ctd_from_cols(U, C, pivots, k - 1)
            assert dense_rel_error(U, shorter) > epsilon - allowance

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(*_dependent_args, st.sampled_from([1e-6, 1e-8]))
    def test_id_exact_rank_reduces_to_it(self, seed, rank, modes, copies, epsilon):
        U = _dependent_ctd(seed, rank, modes, copies, 0.0)
        res = reduce(U, ReductionConfig(epsilon=epsilon, algorithm="id"))
        assert res.rank == rank
        assert res.tolerance_met
        assert dense_rel_error(U, res.ctd) <= epsilon

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    @example(seed=26)  # modes 4 x 3 x 4, rank 5 stored as 10
    def test_als_exact_rank_reduces_to_it(self, seed):
        # An exact ALS fit's expanded residual has a rounding floor near
        # sqrt(eps) ||U||, above the goal at 1e-8, so every fit of rank k read
        # as a miss and ALS alone returned more than k terms, or the input.
        rank, U = exact_rank_ctd(seed)
        res = reduce(U, ReductionConfig(epsilon=1e-8, algorithm="als"))
        assert res.rank <= rank
        assert res.tolerance_met
        assert dense_rel_error(U, res.ctd) <= 1e-8

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(*_dependent_args, st.sampled_from([0.0, 1e-9, 1e-6, 1e-4, 1e-2]),
           st.sampled_from([1e-3, 1e-6, 1e-8]))
    def test_als_rank_at_most_the_id_rank(self, seed, rank, modes, copies, noise,
                                          epsilon):
        # ALS reads the same refit residuals as the ID and accepts its
        # skeleton before fitting any smaller rank.
        U = _dependent_ctd(seed, rank, modes, copies, noise)
        als = reduce(U, ReductionConfig(epsilon=epsilon, algorithm="als"))
        interpolative = reduce(U, ReductionConfig(epsilon=epsilon, algorithm="id"))
        assert als.rank <= interpolative.rank

    def test_many_small_residuals_are_refit_not_estimated(self):
        # One spike plus 300 terms a little off its direction: their
        # residuals are each small, but they add up.  The sum of their
        # residual energies passed 7.4e-5 as the error of a rank-1 skeleton
        # whose dense error is 1.27e-3; the refit's residual needs rank 2.
        M, n = 4, 300
        delta = 1e-3 * (1.0 + 0.5 * np.random.default_rng(0).random(n))
        e1, e2 = np.eye(M)[:, 0], np.eye(M)[:, 1]
        first = np.column_stack([e1] + [(e1 + t * e2) / np.linalg.norm(e1 + t * e2)
                                        for t in delta])
        rest = np.tile(e1[:, None], (1, n + 1))
        U = CTD(np.r_[1.0, np.full(n, 0.99)], [first, rest, rest.copy()])
        res = reduce(U, ReductionConfig(epsilon=1e-3, algorithm="id"))
        assert res.tolerance_met
        assert res.rank == 2
        assert dense_rel_error(U, res.ctd) <= 1e-3


def reference_als_fit(U, terms, cfg, uu, goal):
    """The ALS fit as it was before it gave up on a fit out of reach: in
    every norm it ran to the goal, a stall or the 200-sweep budget.  It
    sweeps with the same :meth:`_AlsState.sweep`, so only the stop rule
    differs, and where every fit keeps its verdict, :func:`reduce` must
    return bitwise the same result with :func:`_als_fit`."""
    state = reduction_mod._AlsState(U, U.svalues[terms], [F[:, terms] for F in U.factors])
    stall = 1e-3 * cfg.epsilon * max(np.sqrt(uu), 1e-300)
    res_prev = state.residual(uu)
    sweeps = 0
    for _ in range(reduction_mod._ALS_MAX_SWEEPS):
        sweeps += 1
        res = state.sweep(uu)
        if state.rank == 0:
            return state, res, sweeps
        if res <= goal or res_prev - res < stall:
            return state, res, sweeps
        res_prev = res
    return state, res_prev, sweeps


def reduce_and_reference(U, cfg):
    """(reduce(U, cfg), the same with :func:`reference_als_fit`)."""
    got = reduce(U, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction_mod, "_als_fit", reference_als_fit)
        want = reduce(U, cfg)
    return got, want


def assert_same_reduction(got, want):
    """Bitwise the same CTD, error and flags; the sweeps may differ."""
    assert got.rel_error == want.rel_error
    assert got.tolerance_met == want.tolerance_met
    assert got.algorithm == want.algorithm
    assert np.array_equal(got.ctd.svalues, want.ctd.svalues)
    assert len(got.ctd.factors) == len(want.ctd.factors)
    for a, b in zip(got.ctd.factors, want.ctd.factors):
        assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def ackley_sample():
    """The unreduced d=10 Ackley sample of the ``file-als`` benchmark
    workload: rank 76 on 124 points per dimension."""
    p = sepfunc.AckleyParams(d=10)
    g = sepfunc.build_gaussian_expansion(p.b, p.d, 1e-8, 3e-6, math.sqrt(p.d))
    merged = sepfunc.merge_grids(sepfunc.build_radial_grid(g),
                                 sepfunc.build_cosine_grid(p.c))
    grid = sepfunc.Grid.uniform_product(merged, p.d, (-1.0, 1.0))
    return sepfunc.sample_to_ctd(sepfunc.ackley_separated(p, g), grid)


class TestAlsOutOfReach:
    """An uncapped Frobenius ALS fit ends as failed once, at twice its last
    sweep's gain, it would not meet the goal within its sweep budget.  The
    s-norm and capped reductions run every fit as before."""

    def test_ackley_sample_same_fit_in_fewer_sweeps(self, ackley_sample):
        # The fits of ranks 8 and 12 miss the goal, by 21.6 and 2.56 times,
        # after 200 and 181 sweeps; they now give up after 66 and 79.
        got, want = reduce_and_reference(ackley_sample,
                                         ReductionConfig(epsilon=1e-6, algorithm="als"))
        assert got.rank == 14
        assert_same_reduction(got, want)
        assert got.sweeps < want.sweeps

    def test_swamp_fit_still_meets_the_goal(self, ackley_sample, monkeypatch):
        # At 1e-3 the rank-3 fit sits in a swamp: it gains 2.7e-3 goal per
        # sweep at sweep 16, 5e-3 goal at sweep 120, and meets the goal at
        # sweep 156.  At its current rate (a factor 1) it would give up at
        # sweep 16, and ALS would return rank 4.
        fitted = record_fitted_ranks(monkeypatch)
        res = reduce(ackley_sample, ReductionConfig(epsilon=1e-3, algorithm="als"))
        assert res.rank == 3
        assert res.tolerance_met
        assert fitted[-1] == 3

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(*_dependent_args, st.sampled_from([0.0, 1e-9, 1e-6, 1e-4, 1e-2]),
           st.sampled_from([1e-3, 1e-6, 1e-8]))
    def test_uncapped_frobenius_matches_reference(self, seed, rank, modes, copies,
                                                  noise, epsilon):
        U = _dependent_ctd(seed, rank, modes, copies, noise)
        got, want = reduce_and_reference(U, ReductionConfig(epsilon=epsilon,
                                                            algorithm="als"))
        assert_same_reduction(got, want)
        assert got.sweeps <= want.sweeps

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(*_dependent_args, st.sampled_from([0.0, 1e-6, 1e-2]),
           st.sampled_from([1e-3, 1e-6]),
           st.sampled_from([{"norm": "snorm"}, {"max_rank": 1}, {"max_rank": 3},
                            {"norm": "snorm", "max_rank": 2}]))
    def test_snorm_and_capped_fits_unchanged(self, seed, rank, modes, copies, noise,
                                             epsilon, kwargs):
        U = _dependent_ctd(seed, rank, modes, copies, noise)
        got, want = reduce_and_reference(
            U, ReductionConfig(epsilon=epsilon, algorithm="als", **kwargs))
        assert_same_reduction(got, want)
        assert got.sweeps == want.sweeps


def als_start(U, count):
    """An :class:`_AlsState` on U started from U's first ``count`` terms."""
    terms = np.arange(count)
    return reduction_mod._AlsState(U, U.svalues[terms], [F[:, terms] for F in U.factors])


def direct_products(state, j):
    """(Z, P) of the update of dimension j: the products of the other
    dimensions' Gram and cross blocks, each formed on its own."""
    others = [k for k in range(len(state.factors)) if k != j]
    Z = np.prod([state.gram[k] for k in others], axis=0)
    P = np.prod([state.cross[k] for k in others], axis=0)
    return Z, P


def lu_update(state, j):
    """(s-values, factor j) of the update of dimension j by an LU solve of the
    ridged normal equations with direct products, as ALS solved them before
    the Cholesky."""
    Z, P = direct_products(state, j)
    rv = state.rank
    W = (state.U.factors[j] @ (state.U.svalues[:, None] * P)).T
    B = np.linalg.solve(Z + 1e-14 * float(np.trace(Z)) * np.eye(rv), W).T
    norms = np.linalg.norm(B, axis=0)
    return norms, B / norms


class TestAlsStateSweep:
    """One :meth:`_AlsState.sweep` updates every dimension from prefix and
    suffix products and reads its residual off the last prefix."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(*_dependent_args, st.sampled_from([0.0, 1e-6, 1e-2]))
    def test_sweep_matches_direct_updates(self, seed, rank, modes, copies, noise):
        # Start from at most min(modes) independent terms, so that the
        # normal equations are well conditioned and roundoff in Z and P
        # moves the solution by little more than it.
        U = _dependent_ctd(seed, rank, modes, copies, noise)
        count = min(rank, min(modes))
        swept, direct = als_start(U, count), als_start(U, count)
        swept.sweep(reduction_mod._self_inner(U))
        for j in range(U.ndim):
            assert direct.update(j, *direct_products(direct, j)) is None
        assert swept.rank == direct.rank == count
        assert_allclose(swept.sv, direct.sv, rtol=1e-12)
        for a, b in zip(swept.factors, direct.factors):
            assert_allclose(a, b, rtol=0.0, atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(*_dependent_args, st.sampled_from([0.0, 1e-6, 1e-2]))
    def test_sweep_residual_is_the_recomputed_residual(self, seed, rank, modes,
                                                       copies, noise):
        U = _dependent_ctd(seed, rank, modes, copies, noise)
        uu = reduction_mod._self_inner(U)
        state = als_start(U, max(rank - 1, 1))
        for _ in range(3):
            res = state.sweep(uu)
            assert res == state.residual(uu)

    def test_exact_zero_update_drops_its_term(self, rng):
        # U's last factors live on the first 3 of 6 coordinates, and the
        # middle start term's last factor is e_5: its cross and Gram entries
        # in that dimension are exactly 0, so is its column of the first
        # update, and the term is dropped there.
        W = random_signed_ctd((4, 5, 6), 3, rng)
        last = np.array(W.factors[2])
        last[3:] = 0.0
        U = reduction_mod._normalized(W.svalues, [*W.factors[:2], last])
        factors = [np.array(F[:, :3]) for F in U.factors]
        factors[2][:, 1] = np.eye(6)[5]
        state = reduction_mod._AlsState(U, np.ones(3), factors)
        uu = reduction_mod._self_inner(U)
        res = state.sweep(uu)
        assert state.rank == 2
        fresh = reduction_mod._AlsState(U, state.sv, state.factors)
        for a, b in zip(state.cross + state.gram, fresh.cross + fresh.gram):
            assert_allclose(a, b, rtol=1e-14, atol=1e-15)
        assert res == state.residual(uu)
        assert res == pytest.approx(norm_of_difference(U, state.to_ctd()),
                                    rel=1e-8)
        # The surviving terms fit as if the dropped one had never been there.
        survivors = reduction_mod._AlsState(
            U, np.ones(2), [F[:, [0, 2]] for F in factors])
        survivors.sweep(uu)
        assert_allclose(state.sv, survivors.sv, rtol=1e-12)
        for a, b in zip(state.factors, survivors.factors):
            assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_cholesky_solve_is_the_lu_solve(self, rng, monkeypatch):
        # Up to rounding where the Cholesky succeeds, and bitwise where it
        # raises and the LU solve runs in its place.
        U = random_signed_ctd((4, 5, 6), 4, rng)
        V = reduction_mod._normalized(U.svalues[:3], [F[:, :3] for F in U.factors])
        want_sv, want_factor = lu_update(reduction_mod._AlsState(U, V.svalues, V.factors), 1)
        for patched in (False, True):
            if patched:
                def refuse(a):
                    raise np.linalg.LinAlgError("not positive definite")

                monkeypatch.setattr(np.linalg, "cholesky", refuse)
            state = reduction_mod._AlsState(U, V.svalues, V.factors)
            state.update(1, *state.products(skip=1))
            assert_allclose(state.sv, want_sv, rtol=0.0 if patched else 1e-12)
            assert_allclose(state.factors[1], want_factor, rtol=0.0,
                            atol=0.0 if patched else 1e-12)
        got = als_sweep(U, V, 1)
        assert_allclose(got.factors[1] * got.svalues, want_factor * want_sv,
                        rtol=1e-15, atol=0.0)


def noisy_repeats(copies, rel_noise, epsilon):
    """A random signed rank-2 CTD W plus ``copies`` copies of W at weights in
    [0.5, 1.5), plus one random term whose Frobenius norm is ``rel_noise``
    times the s-norm goal at ``epsilon`` of the rest.  The skeleton on W's
    two terms leaves a refit residual of at most that norm."""
    rng = np.random.default_rng(1)
    W = random_signed_ctd((5, 4, 6), 2, rng)
    N = random_signed_ctd((5, 4, 6), 1, rng)
    U = W
    for c in rng.uniform(0.5, 1.5, size=copies):
        U = add(U, scale(W, c))
    return add(U, scale(N, rel_noise * epsilon * s_norm(U) / frobenius_norm(N)))


def tilted_repeat(rel_tilt, epsilon, weight, modes):
    """A random signed rank-2 CTD W plus W's first term at ``weight``, with
    its first factor tilted out of W's span so that the refit of the sum on
    W's two terms leaves a residual of norm ``rel_tilt`` times the s-norm
    goal at ``epsilon`` of W, carried by weights near +-``weight``."""
    rng = np.random.default_rng(1)
    W = random_signed_ctd(modes, 2, rng)
    Q = np.linalg.qr(W.factors[0])[0]
    g = rng.standard_normal(modes[0])
    g -= Q @ (Q.T @ g)
    tilt = rel_tilt * epsilon * s_norm(W) / weight
    f = W.factors[0][:, 0] + tilt * g / np.linalg.norm(g)
    factors = [f / np.linalg.norm(f)] + [F[:, 0] for F in W.factors[1:]]
    return add(W, CTD(np.array([weight]), [F[:, None] for F in factors]))


def goal_calls(monkeypatch):
    """The goals of the calls to rank_one_approx that measure an error."""
    goals = []
    measure = reduction_mod.rank_one_approx

    def counted(U, max_sweeps=500, goal=None):
        if goal is not None:
            goals.append(goal)
        return measure(U, max_sweeps, goal)

    monkeypatch.setattr(reduction_mod, "rank_one_approx", counted)
    return goals


class TestSnormFrobeniusBound:
    """An s-norm fit whose Frobenius residual, with its rounding allowance,
    is within the goal is accepted on that residual, an upper bound on the
    s-norm error; elsewhere the error is measured by rank-one ALS."""

    def test_refit_residual_within_goal_is_not_measured(self, monkeypatch):
        U = noisy_repeats(0, 0.5, 1e-3)
        goals = goal_calls(monkeypatch)
        res = reduce(U, ReductionConfig(epsilon=1e-3, norm="snorm", algorithm="id"))
        assert goals == []
        assert res.tolerance_met and res.rank == 2
        assert res.rel_error <= 1e-3
        # an upper bound on the error; the ALS weight it replaces fell below
        # the dense error
        dense = np.linalg.norm(to_dense(U) - to_dense(res.ctd))
        assert res.rel_error * s_norm(U) >= dense

    @pytest.mark.parametrize("case", ["below-rounding", "above-rank-gate"])
    def test_measured_where_the_residual_cannot_settle(self, monkeypatch, case):
        # Below rounding: W's first term again at weight 0.5, tilted 0.5
        # goals off W's span, leaves a refit residual with weights near
        # +-0.5, so at 1e-9 each bound's rounding allowance alone exceeds
        # goal^2 (the flattening one 6.4 times).  Above the rank gate
        # neither bound is formed.
        if case == "below-rounding":
            epsilon = 1e-9
            U = tilted_repeat(0.5, epsilon, 0.5, (40, 40, 40))
        else:
            epsilon = 1e-3
            U = noisy_repeats(256, 0.5, epsilon)
        above = U.rank > reduction_mod._SNORM_GRAM_MAX_RANK
        assert above == (case == "above-rank-gate")
        goals = goal_calls(monkeypatch)
        res = reduce(U, ReductionConfig(epsilon=epsilon, norm="snorm", algorithm="id"))
        assert len(goals) == 1
        assert res.tolerance_met and res.rank == 2

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(*_dependent_args, st.sampled_from([1e-2, 1e-4, 1e-6]),
           st.sampled_from([0.03, 0.3, 1.0]))
    def test_unmeasured_skeleton_within_goal(self, seed, rank, modes, copies, epsilon,
                                             noise):
        U = _dependent_ctd(seed, rank, modes, copies, noise * epsilon)
        bounds = []
        bound_of = reduction_mod._frobenius_bound

        def recorded(sq, U, goal):
            bounds.append((goal, bound_of(sq, U, goal)))
            return bounds[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction_mod, "_frobenius_bound", recorded)
            res = reduce(U, ReductionConfig(epsilon=epsilon, norm="snorm",
                                            algorithm="id"))
        if not bounds or bounds[-1][1] is None:
            return  # measured by ALS, or accepted on the Cholesky estimate
        goal, bound = bounds[-1]
        assert res.tolerance_met
        assert res.rel_error * goal / epsilon == pytest.approx(bound, rel=1e-12)
        assert np.linalg.norm(to_dense(U) - to_dense(res.ctd)) <= bound <= goal

    @pytest.mark.parametrize("seed", range(6))
    def test_als_does_not_accept_below_its_rounding_floor(self, seed):
        # A rank-2 CTD plus 1e-6 times a rank-1 one, at 1e-10 in the s-norm:
        # the expanded Frobenius residual of a rank-2 fit clamps to 0, which
        # passed as its error although its s-norm error is several goals.
        rng = np.random.default_rng(seed)
        W = random_ctd([5, 4, 6], 2, rng=rng)
        U = add(W, scale(random_ctd([5, 4, 6], 1, rng=rng), 1e-6))
        res = reduce(U, ReductionConfig(epsilon=1e-10, norm="snorm", algorithm="als"))
        assert res.tolerance_met
        assert s_norm(add(U, scale(res.ctd, -1.0))) <= 1e-10 * s_norm(U)


def flattening_norm(T):
    """Spectral norm of the dense T with its first floor(d/2) dimensions on
    the rows: the balanced flattening the s-norm bound reads."""
    h = T.ndim // 2
    return float(np.linalg.norm(T.reshape(int(np.prod(T.shape[:h])), -1), 2))


def dense_snorm(T, starts, sweeps=200):
    """The largest weight |<T, v_1 x ... x v_d>| that alternating updates on
    the dense T reach from any of ``starts``: a lower bound on the s-norm,
    and at least the weight of each start, since no update lowers it."""
    best = 0.0
    for start in starts:
        v = [x / np.linalg.norm(x) for x in start]
        for _ in range(sweeps):
            for j in range(T.ndim):
                t = T
                for k in reversed(range(T.ndim)):
                    if k != j:
                        t = np.tensordot(t, v[k], axes=([k], [0]))
                weight = float(np.linalg.norm(t))
                if weight == 0.0:
                    break
                v[j] = t / weight
            best = max(best, weight)
    return best


def cancelling_input(seed):
    """A small mixed-sign CTD (d = 2-5, modes 2-5) and an epsilon.

    It holds a random signed W with one or two copies at weights in
    (-2, 2); a pair of terms of weight a whose factors agree but for the
    first, negated, and the last, theta apart, so that they cancel to a
    term of norm about a * theta; and a small positive part whose terms are
    correlated, so its refit residual has a Frobenius norm above its
    flattening norm.  The goal falls between 1 and 1.5 times the small
    part's flattening norm.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    modes = tuple(int(m) for m in rng.integers(2, 6, size=d))
    W = random_signed_ctd(modes, int(rng.integers(1, 3)), rng)
    U = W
    for c in rng.uniform(-2.0, 2.0, size=int(rng.integers(1, 3))):
        U = add(U, scale(W, c))
    size = float(rng.choice([1e-3, 1e-5]))
    a = float(rng.uniform(0.5, 2.0))
    theta = size / a * float(rng.uniform(0.3, 1.0))
    first = [rng.uniform(-1.0, 1.0, M) for M in modes]
    first = [f / np.linalg.norm(f) for f in first]
    second = list(first)
    g = rng.standard_normal(modes[-1])
    g -= (g @ first[-1]) * first[-1]
    second[-1] = np.cos(theta) * first[-1] + np.sin(theta) * g / np.linalg.norm(g)
    second[0] = -first[0]
    U = add(U, CTD(np.array([a, a]), [np.column_stack(p) for p in zip(first, second)]))
    N = random_ctd(modes, int(rng.integers(2, 5)), low=0.0, high=1.0, rng=rng)
    U = add(U, scale(N, size / flattening_norm(to_dense(N))))
    return U, float(rng.uniform(1.0, 1.5)) * size / s_norm(U)


class TestSnormFlatteningBound:
    """The balanced-flattening bound against dense oracles.  For every
    skeleton it settles, ALS weight <= multi-start dense s-norm <= dense
    flattening norm <= the reported error; for every skeleton of the input,
    it does not settle a goal just below the dense flattening norm."""

    def test_within_dense_oracles(self):
        settled = 0
        for seed in range(80):
            U, epsilon = cancelling_input(seed)
            calls = []
            bound_of = reduction_mod._flattening_bound

            def recorded(U, L, w, goal):
                calls.append((w, bound_of(U, L, w, goal)))
                return calls[-1][1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reduction_mod, "_flattening_bound", recorded)
                res = reduce(U, ReductionConfig(epsilon=epsilon, norm="snorm",
                                                algorithm="id"))
            for w, bound in calls:
                if bound is None:
                    continue
                settled += 1
                R = CTD(w, U.factors, validate=False)
                T = to_dense(R)
                als = rank_one_approx(R)
                rng = np.random.default_rng(seed)
                starts = [als.factors] + [[rng.standard_normal(M) for M in U.modes]
                                          for _ in range(4)]
                dense = dense_snorm(T, starts)
                slack = 16 * np.finfo(float).eps * np.sum(np.abs(w))
                assert als.svalue <= dense + slack, seed
                assert dense <= flattening_norm(T) + slack, seed
                reported = res.rel_error * s_norm(U)
                assert flattening_norm(T) <= reported * (1 + 1e-12), seed
            half_factor, _ = reduction_mod._split_gram(U)
            pivots, _, C, indefinite = reduction_mod._pivoted_cholesky_lazy(U)
            assert half_factor is not None and not indefinite, seed
            for k in range(1, len(pivots) + 1):
                c = reduction_mod._skeleton_coefficients(C, pivots, k)
                w = reduction_mod._skeleton_residual(U, pivots[:k], c).svalues
                below = flattening_norm(to_dense(CTD(w, U.factors, validate=False)))
                below *= 1 - 1e-9
                bound = reduction_mod._flattening_bound(U, half_factor, w, below)
                assert bound is None, seed
        assert settled >= 5


class TestSnormSearchStops:
    """The interpolative s-norm search stops its Cholesky at the skeleton it
    accepts, so no Gram column past it is fetched, and no break past it can
    throw it away."""

    @staticmethod
    def fetched_columns(monkeypatch, poisoned=None):
        """Patch ``_gram_column`` to record the pivot of every call; the
        call numbered ``poisoned`` (from 1) returns its column times 1e6,
        which drives the updated diagonal far below zero."""
        fetched = []
        column = reduction_mod._gram_column

        def recorded(U, p):
            fetched.append(p)
            col = column(U, p)
            return col * 1e6 if len(fetched) == poisoned else col

        monkeypatch.setattr(reduction_mod, "_gram_column", recorded)
        return fetched

    @pytest.mark.parametrize("bound", ["split", "flattening"])
    def test_fetches_only_the_skeleton_columns(self, monkeypatch, bound):
        # Each skeleton leaves an unselected mass between 0.01 and 1 goal^2,
        # so it is read, and its bound settles it: the split refit residual
        # for W's two terms, the balanced flattening for the cancelling
        # input.  Nothing is measured.
        if bound == "split":
            epsilon = 1e-3
            U = noisy_repeats(2, 0.5, epsilon)
        else:
            U, epsilon = cancelling_input(0)
        verdicts = []
        flattening = reduction_mod._flattening_bound

        def recorded(*args):
            verdicts.append(flattening(*args))
            return verdicts[-1]

        monkeypatch.setattr(reduction_mod, "_flattening_bound", recorded)
        goals = goal_calls(monkeypatch)
        fetched = self.fetched_columns(monkeypatch)
        res = reduce(U, ReductionConfig(epsilon=epsilon, norm="snorm", algorithm="id"))
        assert res.algorithm == "id" and res.tolerance_met
        assert res.rank < U.rank
        assert goals == []
        assert (verdicts[-1] is not None) if bound == "flattening" else verdicts == []
        assert len(fetched) == res.rank

    def test_break_after_the_accepted_skeleton_keeps_it(self, monkeypatch):
        # The third pivot's column would break the factorization; the
        # skeleton of W's two terms is accepted before it is fetched.
        U = noisy_repeats(2, 0.5, 1e-3)
        cfg = ReductionConfig(epsilon=1e-3, norm="snorm", algorithm="id")
        want = reduce(U, cfg)
        assert want.rank == 2
        fetched = self.fetched_columns(monkeypatch, poisoned=3)
        res = reduce(U, cfg)
        assert res.algorithm == "id" and not res.fallback_to_als
        assert res.rank == 2 and res.tolerance_met
        assert len(fetched) == 2
        assert res.rel_error == want.rel_error
        assert np.array_equal(res.ctd.svalues, want.ctd.svalues)


class TestColumnCoordinates:
    """A measured skeleton's s-norm is fitted on each factor's coordinates in
    an orthonormal basis of its numerical column space, where that basis
    has at most half as many columns as the factor has rows."""

    def test_smooth_factor_compresses(self):
        # products exp(-a x^2) exp(-b x^2) of Gaussian columns on 124 points
        F = square(gaussian_sum(32, 2, 124, (1.0, 100.0))).factors[0]
        M = F.shape[0]
        Q, C = reduction_mod._column_coordinates(F)
        assert Q.shape[1] <= M // 2
        tol = M * np.finfo(float).eps
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= tol
        residual = np.linalg.norm(F - Q @ (Q.T @ F), axis=0).max()
        assert residual <= tol * np.linalg.norm(F, axis=0).max()
        assert np.array_equal(C, Q.T @ F)
        Q2, C2 = reduction_mod._column_coordinates(F)
        assert np.array_equal(Q2, Q) and np.array_equal(C2, C)

    def test_full_rank_factor_is_kept(self, rng):
        F = rng.standard_normal((32, 305))
        F /= np.linalg.norm(F, axis=0)
        Q, C = reduction_mod._column_coordinates(F)
        assert Q is None and C is F

    def test_same_decisions_as_the_full_factors(self, monkeypatch):
        # Every skeleton of these s-norm squares is measured, with the rank
        # gate at 0.  Each measurement is repeated on the full factors: the
        # weight moves by at most d tol sum|w|, for tol = M eps, and stays
        # on the same side of the goal.
        monkeypatch.setattr(reduction_mod, "_SNORM_GRAM_MAX_RANK", 0)
        calls = []
        measure = reduction_mod.rank_one_approx

        def recorded(U, max_sweeps=500, goal=None):
            out = measure(U, max_sweeps, goal)
            if goal is not None:
                calls.append((U, goal, out.svalue))
            return out

        monkeypatch.setattr(reduction_mod, "rank_one_approx", recorded)
        Y = gaussian_sum(12, 3, 80, (0.5, 200.0))
        compressed = 0
        for _ in range(3):
            Q = square(scale(Y, 1.0 / frobenius_norm(Y)))
            del calls[:]
            Y = reduce(Q, ReductionConfig(epsilon=1e-6, norm="snorm")).ctd
            assert calls
            for R, goal, weight in calls:
                compressed += R.modes != Q.modes
                full = measure(CTD(R.svalues, Q.factors, validate=False), goal=goal)
                assert (weight > goal) == (full.svalue > goal)
                tol = max(Q.modes) * np.finfo(float).eps
                assert abs(weight - full.svalue) <= Q.ndim * tol * np.abs(R.svalues).sum()
        assert compressed

    def test_cancelling_residual_measures_zero(self):
        X = gaussian_sum(12, 3, 80, (0.5, 200.0))
        Z = add(X, scale(X, -1.0))
        columns = [reduction_mod._column_coordinates(F)[1] for F in Z.factors]
        assert all(C.shape[0] < M for C, M in zip(columns, Z.modes))
        fit = rank_one_approx(CTD(Z.svalues, columns, validate=False))
        assert fit.svalue <= 1e-12 * frobenius_norm(X)
