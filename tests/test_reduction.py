"""Rank-reduction contract checks, dense-verified where shapes allow."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ctdopt import (
    ReductionConfig,
    add,
    als_sweep,
    frobenius_norm,
    inner,
    interpolative_reduce,
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
from ctdopt.experiments import background_instance, plant_spike
from conftest import random_signed_ctd


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

    def test_zero_and_rank_zero(self):
        Z = zero_ctd((4, 4))
        res = reduce(Z, ReductionConfig(epsilon=1e-6))
        assert res.rank == 0 and res.tolerance_met

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
        pivots, _, _, _, indefinite = reduction_mod._pivoted_cholesky_lazy(U)
        assert not indefinite
        assert pivots[0] == 0

    def test_snorm_contract_dense_verified_d2(self, rng):
        base = random_ctd((8, 8), 3, rng=rng)
        bump = scale(random_signed_ctd((8, 8), 3, rng), 1e-5)
        U = add(base, bump)
        cfg = ReductionConfig(epsilon=1e-3, norm="snorm", algorithm="id")
        res = interpolative_reduce(U, cfg)
        assert res.rank < U.rank
        sigma = np.linalg.svd(to_dense(U) - to_dense(res.ctd), compute_uv=False)
        assert sigma[0] <= 1e-3 * s_norm(U)

    def test_indefinite_gram_falls_back(self, rng, monkeypatch):
        U = random_signed_ctd((4, 4), 3, rng)
        bad = np.array(reduction_mod._gram_diag(U))
        bad[0] = -1.0  # force an indefinite diagonal
        monkeypatch.setattr(reduction_mod, "_gram_diag", lambda _: bad)
        res = interpolative_reduce(U, ReductionConfig(epsilon=1e-6))
        assert res.fallback_to_als
        assert res.tolerance_met

    def test_psd_gram_not_flagged_indefinite(self):
        # The first square of this spike-search instance has rank 10 and a
        # PSD term Gram of numerical rank 7.  Factored to exhaustion, the
        # roundoff left after the seventh pivot dipped below the negative
        # band and sent the reduction to ALS; the certificate accepts at 7.
        rng = np.random.default_rng(22)
        U, _ = plant_spike(background_instance(6, 32, 3, rng), rng, spike_to=3.5)
        Q = square(scale(U, 1.0 / frobenius_norm(U)))
        assert Q.rank == 10
        res = interpolative_reduce(Q, ReductionConfig(epsilon=1e-6))
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
    """``bound`` stops the pivoted Cholesky at the first certificate
    sqrt(max(remaining[k], 0)) <= bound, as a prefix of the full run."""

    @staticmethod
    def _bound(remaining, pick, factor):
        cert = np.sqrt(np.maximum(remaining, 0.0))
        return float(cert[pick % len(cert)] * factor), cert

    @settings(max_examples=80, deadline=None, derandomize=True)
    # factor 1.0 puts the bound exactly on a certificate, which must stop
    @given(_small_ctds, st.integers(0, 7), st.just(1.0) | st.floats(0.5, 2.0))
    def test_prefix_of_full_factorization(self, U, pick, factor):
        full = reduction_mod._pivoted_cholesky_lazy(U)
        piv, L, C, rem, indef = full
        assert indef or rem[-1] <= 0.0  # no bound: runs to exhaustion
        for got, want in zip(reduction_mod._pivoted_cholesky_lazy(U, None), full):
            assert np.array_equal(got, want)
        bound, cert = self._bound(rem, pick, factor)
        met = np.flatnonzero(cert <= bound)
        steps = met[0] + 1 if met.size else len(piv)
        s_piv, s_L, s_C, s_rem, s_indef = reduction_mod._pivoted_cholesky_lazy(U, bound)
        assert len(s_piv) == steps
        assert np.array_equal(s_piv, piv[:steps])
        assert np.array_equal(s_L, L[:, :steps])
        assert np.array_equal(s_C, C[:, :steps])
        assert np.array_equal(s_rem, rem[:steps])
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
        l_piv, l_L, l_C, l_rem, l_indef = reduction_mod._pivoted_cholesky_lazy(U, bound)
        assert not l_indef
        assert np.array_equal(l_piv, piv)
        assert_allclose(l_C, G[:, piv], rtol=0, atol=1e-12 * scale_)
        assert_allclose(l_L, L, rtol=0, atol=1e-10 * np.sqrt(scale_))
        assert_allclose(l_rem, rem, rtol=0, atol=1e-12 * scale_)
        S = l_piv
        assert_allclose(l_L[S] @ l_L[S].T, G[np.ix_(S, S)], rtol=0, atol=1e-12 * scale_)


class TestReductionResult:
    def test_metadata_round_trip(self, rng):
        U = random_signed_ctd((4, 4), 3, rng)
        res = reduce(U, ReductionConfig(epsilon=1e-3, norm="snorm"))
        meta = res.metadata()
        assert meta["achieved_rank"] == res.rank
        assert meta["algorithm"] in ("id", "als")
        assert isinstance(meta["tolerance_met"], bool)
