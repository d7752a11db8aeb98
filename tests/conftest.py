"""Shared test helpers: independent dense oracles and instance builders.

The dense oracle here deliberately does not call the library's ``to_dense``;
it loops over terms and indices straight from the defining sum so the library
paths are checked against a second implementation of the formula.
"""

import itertools

import numpy as np
import pytest

from ctdopt import CTD, add, eval_entry, random_ctd, scale, spike_ctd


def dense_oracle(U):
    """Materialize a CTD entry by entry from the defining sum."""
    out = np.zeros(U.modes)
    for idx in itertools.product(*(range(M) for M in U.modes)):
        val = 0.0
        for l in range(U.rank):
            term = U.svalues[l]
            for j, i in enumerate(idx):
                term *= U.factors[j][i, l]
            val += term
        out[idx] = val
    return out


def random_signed_ctd(modes, rank, rng):
    """Random CTD with mixed-sign factor entries (uniform on [-1, 1))."""
    return random_ctd(modes, rank, low=-1.0, high=1.0, rng=rng)


def gaussian_sum(terms, ndim, points, widths):
    """Equal-weight sum of ``terms`` separable Gaussians exp(-a x^2) on
    ``points`` points of [-1, 1] per dimension, with widths a spaced
    geometrically over ``widths``: numerically of low rank, and fitted by
    ALS in fewer terms than its Frobenius skeleton."""
    x = np.linspace(-1.0, 1.0, points)
    F = np.exp(-np.outer(x * x, np.geomspace(*widths, terms)))
    F /= np.linalg.norm(F, axis=0)
    return CTD(np.ones(terms), [F.copy() for _ in range(ndim)])


def random_modes(rng, d_choices=(2, 3, 4), max_mode=8):
    d = int(rng.choice(d_choices))
    return tuple(int(rng.integers(2, max_mode + 1)) for _ in range(d))


def background_plus_spike(d, M, bg_rank, rng, spike_to=None, spike_add=None,
                          n_spikes=1):
    """Uniform-[0.9, 1) background plus planted spike(s).

    Either ``spike_to`` (make the spiked entries equal that value) or
    ``spike_add`` (add that much on top of the background) must be given.
    Returns (ctd, locations) with each location a tuple of ints.
    """
    assert (spike_to is None) != (spike_add is None)
    bg = random_ctd([M] * d, bg_rank, low=0.9, high=1.0, rng=rng)
    locs = []
    while len(locs) < n_spikes:
        loc = tuple(int(i) for i in rng.integers(0, M, size=d))
        if loc not in locs:
            locs.append(loc)
    U = bg
    for loc in locs:
        base = eval_entry(bg, loc)
        mag = (spike_to - base) if spike_to is not None else spike_add
        U = add(U, spike_ctd([M] * d, loc, mag))
    return U, locs


def background_max_bound(U, n_background_terms):
    """Upper bound on the background's largest |entry|: sum over the first
    ``n_background_terms`` terms of s_l * prod_j max_i |u_j^(l)[i]|."""
    bound = 0.0
    for l in range(n_background_terms):
        t = U.svalues[l]
        for F in U.factors:
            t *= np.max(np.abs(F[:, l]))
        bound += t
    return float(bound)


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
