"""Tensor-core checks against the entry-by-entry dense oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ctdopt import (
    CTD,
    add,
    eval_entries,
    eval_entry,
    frobenius_norm,
    from_json,
    hadamard,
    inner,
    load_ctd,
    ones_ctd,
    random_ctd,
    renormalize,
    save_ctd,
    scale,
    spike_ctd,
    square,
    to_dense,
    to_json,
    zero_ctd,
)
from conftest import dense_oracle, random_signed_ctd


class TestConstruction:
    def test_uniform_rank_one_entries(self):
        # s=2 with all factor entries 1/sqrt(4) on a 4x4 grid: every entry
        # 2 * (1/2) * (1/2) = 0.5, squared Frobenius norm 16 * 0.25 = 4.
        F = np.full((4, 1), 0.5)
        U = CTD(np.array([2.0]), [F, F])
        assert U.rank == 1 and U.modes == (4, 4)
        for idx in [(0, 0), (1, 3), (3, 2)]:
            assert eval_entry(U, idx) == pytest.approx(0.5)
        assert inner(U, U) == pytest.approx(4.0)
        assert frobenius_norm(U) == pytest.approx(2.0)

    def test_validation_rejects_bad_columns(self):
        F = np.full((4, 1), 0.4)  # norm 0.8, not unit
        with pytest.raises(ValueError):
            CTD(np.array([1.0]), [F, F])
        with pytest.raises(ValueError):
            CTD(np.array([-1.0]), [np.full((4, 1), 0.5), np.full((4, 1), 0.5)])
        with pytest.raises(ValueError):
            CTD(np.array([1.0]), [np.full((4, 2), 0.5)])

    def test_validation_rejects_non_finite(self):
        col = np.array([[1.0], [0.0]])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                CTD(np.array([bad]), [col, col])
            with pytest.raises(ValueError, match="finite"):
                CTD(np.array([1.0]), [col, np.array([[bad], [0.0]])])

    def test_immutable(self):
        U = ones_ctd((3, 3))
        with pytest.raises(AttributeError):
            U.svalues = np.array([2.0])
        with pytest.raises(ValueError):
            U.factors[0][0, 0] = 7.0

    def test_zero_tensor(self):
        Z = zero_ctd((3, 4))
        assert Z.rank == 0
        assert eval_entry(Z, (1, 2)) == 0.0
        assert frobenius_norm(Z) == 0.0
        assert to_dense(Z).shape == (3, 4)
        assert np.all(to_dense(Z) == 0.0)

    def test_spike(self):
        S = spike_ctd((4, 5, 6), (1, 2, 3), -2.5)
        dense = to_dense(S)
        assert dense[1, 2, 3] == pytest.approx(-2.5)
        dense[1, 2, 3] = 0.0
        assert np.all(dense == 0.0)
        assert np.min(S.svalues) > 0  # sign lives in the factors
        assert spike_ctd((3, 3), (0, 0), 0.0).rank == 0


class TestDenseAgreement:
    def test_eval_entry_vs_oracle(self, rng):
        U = random_signed_ctd((5, 5, 5), 4, rng)
        dense = dense_oracle(U)
        idx = rng.integers(0, 5, size=(20, 3))
        vals = eval_entries(U, idx)
        for k, (i, j, m) in enumerate(idx):
            assert_allclose(eval_entry(U, (i, j, m)), dense[i, j, m], rtol=1e-13)
            assert_allclose(vals[k], dense[i, j, m], rtol=1e-13)

    def test_to_dense_vs_oracle(self, rng):
        U = random_signed_ctd((4, 3, 5), 3, rng)
        assert_allclose(to_dense(U), dense_oracle(U), rtol=1e-13, atol=1e-15)

    def test_dense_guard(self):
        U = ones_ctd((300, 300, 300))
        with pytest.raises(ValueError, match="guard"):
            to_dense(U)


class TestAlgebra:
    def test_spike_hadamard_and_add(self):
        A = spike_ctd((3, 3), (1, 1), 2.0)
        B = spike_ctd((3, 3), (1, 1), 3.0)
        assert eval_entry(hadamard(A, B), (1, 1)) == pytest.approx(6.0)
        assert eval_entry(add(A, B), (1, 1)) == pytest.approx(5.0)

    def test_hadamard_vs_dense(self, rng):
        for _ in range(5):
            U = random_signed_ctd((4, 3, 4), int(rng.integers(1, 7)), rng)
            V = random_signed_ctd((4, 3, 4), int(rng.integers(1, 7)), rng)
            W = hadamard(U, V)
            assert W.rank == U.rank * V.rank
            assert_allclose(
                to_dense(W), dense_oracle(U) * dense_oracle(V), rtol=1e-12, atol=1e-14
            )

    def test_hadamard_term_order(self, rng):
        # l-major: the pair (l, l') lands at column l * r_v + l'.
        U = random_signed_ctd((3, 3), 2, rng)
        V = random_signed_ctd((3, 3), 3, rng)
        W = hadamard(U, V)
        l, lp = 1, 2
        col = l * V.rank + lp
        expect = U.factors[0][:, l] * V.factors[0][:, lp]
        got = W.factors[0][:, col] * np.linalg.norm(expect)
        sign = np.sign(np.dot(got, expect)) or 1.0
        assert_allclose(sign * got, expect, atol=1e-14)

    def test_hadamard_capacity_guard(self, rng):
        U = random_signed_ctd((3, 3), 4, rng)
        with pytest.raises(ValueError, match="max_rank"):
            hadamard(U, U, max_rank=15)

    def test_square_vs_dense(self, rng):
        for r in range(7):
            U = random_signed_ctd((4, 3, 4), r, rng)
            W = square(U)
            assert W.rank == r * (r + 1) // 2
            expect = dense_oracle(U) ** 2
            assert_allclose(to_dense(W), expect, rtol=1e-12, atol=1e-14)
            assert_allclose(to_dense(hadamard(U, U)), to_dense(W), rtol=1e-12, atol=1e-14)

    def test_square_term_order(self, rng):
        # np.triu_indices order; the off-diagonal pair (a, b) carries both
        # (a, b) and (b, a) of the Hadamard product, so twice its weight.
        U = random_signed_ctd((3, 4), 3, rng)
        W = square(U)
        for k, (a, b) in enumerate(zip(*np.triu_indices(U.rank))):
            got = W.svalues[k] * np.outer(W.factors[0][:, k], W.factors[1][:, k])
            cols = [F[:, a] * F[:, b] for F in U.factors]
            expect = (1 + (a != b)) * U.svalues[a] * U.svalues[b] * np.outer(*cols)
            assert_allclose(got, expect, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("M", [1, 9])
    def test_square_bitwise_matches_rows(self, rng, M):
        # Reference: row a of the pair order built as its own Hadamard
        # product, term a times terms a.. with the weights past the first
        # doubled.  The one-pass square must reproduce it to the last bit.
        for r in range(9):
            U = random_signed_ctd((M, 4, M), r, rng)
            rows = []
            for a in range(r):
                head = CTD(U.svalues[a:a + 1], [F[:, a:a + 1] for F in U.factors],
                           validate=False)
                weights = U.svalues[a:].copy()
                weights[1:] *= 2.0
                rows.append(hadamard(head, CTD(weights, [F[:, a:] for F in U.factors],
                                               validate=False)))
            W = square(U)
            assert W.rank == sum(R.rank for R in rows)
            if r == 0:
                continue
            assert np.array_equal(W.svalues, np.concatenate([R.svalues for R in rows]))
            for j, F in enumerate(W.factors):
                assert np.array_equal(F, np.hstack([R.factors[j] for R in rows]))

    @pytest.mark.parametrize("svalues, rank", [
        ((1.0, 1e-200, 2.0), 5), ((1.0, 2.0, 1e-200), 5), ((1.0, -2.0, 0.5), 6)])
    def test_square_normalizes_as_hadamard(self, rng, svalues, rank):
        # As the rows built by hadamard: a pair weight below 1e-300 drops
        # the pair (the tiny term's square goes, its products with the
        # others stay; in the second case that empties the last pair's
        # column), and a negative pair weight moves its sign into the first
        # factor.
        U = CTD(np.array(svalues), random_signed_ctd((5, 4), 3, rng).factors,
                validate=False)
        rows = []
        for a in range(U.rank):
            head = CTD(U.svalues[a:a + 1], [F[:, a:a + 1] for F in U.factors],
                       validate=False)
            weights = U.svalues[a:].copy()
            weights[1:] *= 2.0
            rows.append(hadamard(head, CTD(weights, [F[:, a:] for F in U.factors],
                                           validate=False)))
        W = square(U)
        assert W.rank == rank
        assert np.array_equal(W.svalues, np.concatenate([R.svalues for R in rows]))
        for j, F in enumerate(W.factors):
            assert np.array_equal(F, np.hstack([R.factors[j] for R in rows]))

    def test_shape_mismatch(self, rng):
        U = random_signed_ctd((3, 3), 2, rng)
        V = random_signed_ctd((3, 4), 2, rng)
        for op in (hadamard, add, inner):
            with pytest.raises(ValueError, match="shape"):
                op(U, V)

    def test_index_errors(self, rng):
        U = random_signed_ctd((3, 3), 2, rng)
        with pytest.raises(IndexError):
            eval_entry(U, (0, 3))
        with pytest.raises(IndexError):
            eval_entry(U, (0, 0, 0))

    def test_add_vs_dense(self, rng):
        U = random_signed_ctd((4, 4, 3), 3, rng)
        V = random_signed_ctd((4, 4, 3), 2, rng)
        S = add(U, V)
        assert S.rank == 5
        assert_allclose(to_dense(S), dense_oracle(U) + dense_oracle(V), rtol=1e-13)

    def test_inner_vs_dense(self, rng):
        U = random_signed_ctd((4, 4, 3), 3, rng)
        V = random_signed_ctd((4, 4, 3), 2, rng)
        expect = float(np.sum(dense_oracle(U) * dense_oracle(V)))
        assert_allclose(inner(U, V), expect, rtol=1e-12)

    @pytest.mark.parametrize("rv", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("ru", [1, 70])
    def test_inner_across_column_blocks(self, rng, ru, rv):
        # inner sums V's terms 64 at a time.  Signed weights, as a skeleton
        # residual carries, are weighted as they stand.
        def signed(r):
            W = random_signed_ctd((3, 4, 5), r, rng)
            return CTD(W.svalues * rng.choice([-1.0, 1.0], r), W.factors, validate=False)

        U, V = signed(ru), signed(rv)
        expect = float(np.sum(to_dense(U) * to_dense(V)))
        assert inner(U, V) == pytest.approx(expect, rel=1e-12)
        assert inner(V, V) == pytest.approx(float(np.sum(to_dense(V) ** 2)), rel=1e-12)

    def test_inner_of_rank_zero(self, rng):
        U, Z = random_signed_ctd((3, 4), 2, rng), zero_ctd((3, 4))
        assert inner(U, Z) == inner(Z, U) == inner(Z, Z) == 0.0

    def test_cauchy_schwarz(self, rng):
        for _ in range(10):
            U = random_signed_ctd((4, 4), 3, rng)
            V = random_signed_ctd((4, 4), 3, rng)
            lhs = abs(inner(U, V))
            rhs = frobenius_norm(U) * frobenius_norm(V)
            assert lhs <= rhs * (1 + 1e-12)

    def test_scale(self, rng):
        U = random_signed_ctd((4, 4), 3, rng)
        for c in (2.5, -1.25):
            W = scale(U, c)
            assert np.min(W.svalues) > 0
            assert_allclose(to_dense(W), c * dense_oracle(U), rtol=1e-13)
        assert scale(U, 0.0).rank == 0

    def test_renormalize_preserves_entries(self, rng):
        U = random_signed_ctd((4, 5), 4, rng)
        # Build a raw (non-canonical) variant by smuggling scale into columns.
        raw = CTD.__new__(CTD)
        object.__setattr__(raw, "svalues", U.svalues * 0.5)
        object.__setattr__(raw, "factors", [U.factors[0] * 2.0, U.factors[1]])
        V = renormalize(raw)
        assert np.min(V.svalues) > 0
        for F in V.factors:
            assert_allclose(np.linalg.norm(F, axis=0), 1.0, atol=1e-12)
        assert_allclose(to_dense(V), dense_oracle(U), rtol=1e-12)


class TestSerialization:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        U = random_signed_ctd((4, 3, 5), 4, rng)
        V = from_json(to_json(U))
        assert V.modes == U.modes and V.rank == U.rank
        assert np.array_equal(V.svalues, U.svalues)
        for Fu, Fv in zip(U.factors, V.factors):
            assert np.array_equal(Fu, Fv)
        path = tmp_path / "u.json"
        save_ctd(U, path)
        W = load_ctd(path)
        assert np.array_equal(W.svalues, U.svalues)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            from_json('{"dims": 2, "modes": [3, 3], "svalues": [1.0]}')
        with pytest.raises(ValueError):
            from_json(
                '{"dims": 2, "modes": [3], "svalues": [], "factors": [[], []]}'
            )

    def test_rejects_non_finite(self, tmp_path):
        # Python's json reads NaN and Infinity; the CTD must not accept them.
        good = '{"dims": 2, "modes": [2, 2], "svalues": [%s], "factors": [[%s, 0.0], [1.0, 0.0]]}'
        assert from_json(good % ("1.0", "1.0")).rank == 1
        for bad in ("NaN", "Infinity", "-Infinity"):
            for text in (good % (bad, "1.0"), good % ("1.0", bad)):
                with pytest.raises(ValueError, match="finite"):
                    from_json(text)
                path = tmp_path / "bad.json"
                path.write_text(text)
                with pytest.raises(ValueError, match="finite"):
                    load_ctd(path)
