"""Memory checks on the squaring path: a step holds one unreduced square,
an inner product and a Frobenius reduction hold no r x r array, the
s-norm flattening test at most three, and a reduction that finds no
smaller rank no copy of its input.  An s-norm measurement fits on the
input's own factors, or, where a factor's numerical column space takes at
most half its rows, on a copy of it in that space's coordinates.

Each bound is assembled from the sizes of the arrays involved, and the peak
is read with ``tracemalloc``, which sees NumPy's data allocations.  Inputs
have long factor columns, so that the arrays that scale with the mode sizes
dominate the vectors that scale only with the rank.
"""

import tracemalloc

import numpy as np

from ctdopt import ReductionConfig, frobenius_norm, random_ctd, reduce, scale, square
from ctdopt import ctd, maxentry, reduction
from ctdopt.experiments import background_instance, plant_spike
from ctdopt.maxentry import FixedIterations, MaxEntrySearchConfig, squaring_max
from conftest import gaussian_sum, random_signed_ctd


def nbytes(U):
    return U.svalues.nbytes + sum(F.nbytes for F in U.factors)


def factor_bytes(U):
    return sum(F.nbytes for F in U.factors)


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes allocated while it ran, its result included)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_square_holds_its_output_and_one_scratch(rng):
    U = random_signed_ctd((400, 300, 200), 60, rng)
    Q, peak = traced_peak(square, U)
    # All pairs but the last are gathered together, through one scratch
    # array of the largest mode size by that many pairs.
    n = Q.rank - 1
    scratch = max(U.modes) * n * 8
    # Vectors over the pairs (indices, weights, norms, masks), at most 16
    # of them alive at once, and the buffers NumPy's ufuncs use on the
    # output's strided leading columns, one per operand.
    bookkeeping = 16 * n * 8 + 3 * np.getbufsize() * 8
    assert peak <= nbytes(Q) + scratch + bookkeeping


def snorm_square(steps):
    """A square of a squaring search on a spiked background, after
    ``steps`` s-norm reductions: rank 351 after two, rank 630 after
    three."""
    rng = np.random.default_rng(0)
    Y, _ = plant_spike(background_instance(3, 400, 4, rng), rng, spike_add=4.0)
    cfg = ReductionConfig(epsilon=1e-6, norm="snorm")
    for _ in range(steps):
        Y = reduce(square(scale(Y, 1.0 / frobenius_norm(Y))), cfg).ctd
    return square(scale(Y, 1.0 / frobenius_norm(Y))), cfg


def traced_snorm_reduce(monkeypatch, Q, cfg, key=lambda U: U.rank):
    """(result, peak bytes, ``key`` of each CTD rank_one_approx fitted, by
    default its rank) of the s-norm reduction of Q."""
    fitted = []
    fit = reduction.rank_one_approx

    def recording(U, *args, **kwargs):
        fitted.append(key(U))
        return fit(U, *args, **kwargs)

    monkeypatch.setattr(reduction, "rank_one_approx", recording)
    res, peak = traced_peak(reduce, Q, cfg)
    return res, peak, fitted


def test_snorm_reduce_holds_no_copy_of_its_input(monkeypatch):
    # Rank 351 is below the rank gate, so the skeleton is bounded from the
    # half Grams, two r x r arrays, without a rank-one measurement.
    Q, cfg = snorm_square(2)
    assert Q.rank <= reduction._SNORM_GRAM_MAX_RANK
    res, peak, fitted = traced_snorm_reduce(monkeypatch, Q, cfg)
    assert peak < factor_bytes(Q)
    # every fit is on Q's own terms and factors; the answer is a smaller
    # skeleton, not Q itself
    assert fitted and set(fitted) == {Q.rank}
    assert res.tolerance_met and res.rank < Q.rank


def test_snorm_measurement_holds_no_copy_of_its_input(monkeypatch):
    # Rank 630 is above the rank gate, so a skeleton's error is measured.
    Q, cfg = snorm_square(3)
    assert Q.rank > reduction._SNORM_GRAM_MAX_RANK
    res, peak, fitted = traced_snorm_reduce(monkeypatch, Q, cfg)
    assert peak < factor_bytes(Q)
    # s_norm(Q) first, then at least one measured skeleton, every fit on
    # Q's own terms
    assert len(fitted) >= 2 and set(fitted) == {Q.rank}
    assert res.tolerance_met and res.rank < Q.rank


def test_snorm_measurement_fits_in_the_column_spaces(monkeypatch):
    # A rank-528 square of a sum of Gaussians, above the rank gate, so a
    # skeleton's error is measured.  Its factor columns are products of
    # Gaussians, of numerical rank far below their 400 rows, so the
    # measurement fits on Q's terms in each factor's column-space
    # coordinates: a copy of under half of Q's factor bytes.
    Y = gaussian_sum(32, 3, 400, (1.0, 100.0))
    Q = square(scale(Y, 1.0 / frobenius_norm(Y)))
    cfg = ReductionConfig(epsilon=1e-6, norm="snorm")
    assert Q.rank > reduction._SNORM_GRAM_MAX_RANK
    res, peak, fitted = traced_snorm_reduce(monkeypatch, Q, cfg,
                                            key=lambda U: (U.rank, U.modes))
    assert peak < factor_bytes(Q)
    # s_norm(Q) first, on Q's factors, then at least one measured skeleton,
    # each on Q's terms and on at most half of each factor's rows
    assert len(fitted) >= 2 and fitted[0] == (Q.rank, Q.modes)
    for rank, modes in fitted[1:]:
        assert rank == Q.rank
        assert all(m <= M // 2 for m, M in zip(modes, Q.modes))
    assert res.tolerance_met and res.rank < Q.rank


def test_snorm_flattening_test_holds_three_term_arrays(monkeypatch):
    # A rank-496 square, just below the rank gate, whose skeleton only the
    # balanced-flattening test settles.  That test holds three r x r arrays
    # at once: the half-Gram factor L, W B W and its product with L, or
    # LAPACK's factor of g^2 I - L^T W B W L.  Next to them are the
    # Cholesky's Gram-column buffers, r x 64 each here.
    rng = np.random.default_rng(0)
    Y, _ = plant_spike(background_instance(4, 100, 4, rng), rng, spike_add=4.0)
    cfg = ReductionConfig(epsilon=1e-6, norm="snorm")
    for _ in range(2):
        Y = reduce(square(scale(Y, 1.0 / frobenius_norm(Y))), cfg).ctd
    Q = square(scale(Y, 1.0 / frobenius_norm(Y)))
    assert 400 < Q.rank <= reduction._SNORM_GRAM_MAX_RANK
    settled = []
    flattening = reduction._flattening_bound

    def recording(*args):
        settled.append(flattening(*args) is not None)
        return settled[-1]

    monkeypatch.setattr(reduction, "_flattening_bound", recording)
    res, peak = traced_peak(reduce, Q, cfg)
    assert settled and settled[-1]
    assert res.tolerance_met and res.rank < Q.rank
    assert peak < 3.5 * 8 * Q.rank ** 2


def test_frobenius_norm_holds_a_few_column_blocks(rng):
    # inner sums the term Gram one block of 64 columns at a time: the block,
    # the product it is multiplied by and the copied columns behind that,
    # where the whole Gram would take 72 MB.
    U = random_signed_ctd((40, 40, 40, 40), 3000, rng)
    _, peak = traced_peak(frobenius_norm, U)
    assert peak <= 3 * 8 * U.rank * ctd._BLOCK


def test_incompressible_reduce_returns_its_input():
    # The rank-210 square of a generic rank-20 CTD is 1e-6 from no smaller
    # rank in the s-norm, so the reduction returns the square itself and
    # makes no copy of its factors.
    Q = square(random_signed_ctd((400, 300, 200), 20, np.random.default_rng(0)))
    res, peak = traced_peak(reduce, Q, ReductionConfig(epsilon=1e-6, norm="snorm"))
    assert res.ctd is Q and res.tolerance_met
    assert peak < factor_bytes(Q)


def test_squaring_search_holds_one_unreduced_square(monkeypatch):
    # Under a rank cap the tolerance is never met, so every step squares a
    # rank-16 iterate into 136 terms and reduces it back to 16: all squares
    # have one size.
    U = random_signed_ctd((500, 500, 500), 16, np.random.default_rng(3))
    cfg = MaxEntrySearchConfig(
        reduction=ReductionConfig(epsilon=1e-8, max_rank=16),
        termination=FixedIterations(3),
    )
    squares = []

    def recording(Y):
        Q = square(Y)
        squares.append(nbytes(Q))
        return Q

    monkeypatch.setattr(maxentry, "square", recording)
    trace, peak = traced_peak(squaring_max, U, cfg)
    assert [rec.rank for rec in trace.records] == [16] * 4
    assert len(squares) == 3
    # Holding any two squares at once would take at least the two smallest.
    smallest = sorted(squares)[:2]
    assert peak < sum(smallest)


def test_frobenius_reduce_holds_no_term_gram():
    # The rank-3081 square of a max-entry search whose ranks run away (12 ->
    # 78 -> 3081 -> 388 -> ...).  Its term Gram would take 8 r^2 bytes, 72
    # MiB: the Frobenius ID search stays below that, summing <U, U> a column
    # block at a time.
    U = random_ctd([6] * 4, 12, rng=np.random.default_rng(3))
    cfg = ReductionConfig(epsilon=1e-6)
    Q = square(reduce(square(U), cfg).ctd)
    assert Q.rank == 3081
    gram = 8 * Q.rank ** 2
    res, peak = traced_peak(reduce, Q, cfg)
    assert res.rank == 388 and res.tolerance_met
    assert peak < gram
