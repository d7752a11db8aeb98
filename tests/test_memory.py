"""Memory checks on the squaring path: a step holds one unreduced square,
and a reduction holds no r x r array.

Each bound is assembled from the sizes of the arrays involved, and the peak
is read with ``tracemalloc``, which sees NumPy's data allocations.  Inputs
have long factor columns, so that the arrays that scale with the mode sizes
dominate the vectors that scale only with the rank.
"""

import tracemalloc

import numpy as np

from ctdopt import ReductionConfig, frobenius_norm, random_ctd, reduce, scale, square
from ctdopt import maxentry, reduction
from ctdopt.experiments import background_instance, plant_spike
from ctdopt.maxentry import FixedIterations, MaxEntrySearchConfig, squaring_max
from conftest import random_signed_ctd


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


def traced_snorm_reduce(monkeypatch, Q, cfg):
    """(result, peak bytes, the ranks of the CTDs rank_one_approx fitted)
    of the s-norm reduction of Q."""
    fitted = []
    fit = reduction.rank_one_approx

    def recording(U, *args, **kwargs):
        fitted.append(U.rank)
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
    # every fit is on Q's own terms; the answer is a smaller skeleton, not
    # Q itself
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
    # MiB: the Frobenius ID search and the ALS rank floor each stay below
    # that, summing <U, U> and the unfolding spectra a column block at a time.
    U = random_ctd([6] * 4, 12, rng=np.random.default_rng(3))
    cfg = ReductionConfig(epsilon=1e-6)
    Q = square(reduce(square(U), cfg).ctd)
    assert Q.rank == 3081
    gram = 8 * Q.rank ** 2
    res, peak = traced_peak(reduce, Q, cfg)
    assert res.rank == 388 and res.tolerance_met
    assert peak < gram
    _, peak = traced_peak(reduction._rank_floor, Q)
    assert peak < gram
