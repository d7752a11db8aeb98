"""Separation-rank reduction of CTDs.

Two algorithms sit behind one entry point, :func:`reduce`:

* alternating least squares (``"als"``): fit a lower-rank CTD by cycling over
  dimensions, each step solving the normal equations whose Gram matrix is the
  elementwise product of the other dimensions' factor Gram matrices;
* an interpolative variant (``"id"``): pick a skeleton of existing terms by
  pivoted Cholesky on the term Gram matrix and least-squares refit the
  weights.  This keeps original factor columns untouched and is the cheaper
  route when the input terms are nearly dependent.  In the Frobenius norm
  the Gram matrix is formed once, with <U, U>, and the factorization tracks
  the exact residual of the refit on its pivots; in the s-norm it is never
  formed: the factorization reads its diagonal and fetches the column of
  each pivot, so its cost grows with the skeleton size, not with the square
  of the input rank.

The reduction target can be measured in the Frobenius norm or in the s-norm
(the weight of the best rank-one separated approximation).  The s-norm never
exceeds the Frobenius norm and, unlike it, can certify tolerances below the
square root of machine precision, because it is not computed as a difference
of large inner products.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .ctd import (CTD, _cross_gram, _normalized, add, inner, renormalize, scale,
                  zero_ctd)

__all__ = [
    "ReductionConfig",
    "ReductionResult",
    "RankOneApprox",
    "reduce",
    "als_sweep",
    "interpolative_reduce",
    "s_norm",
    "rank_one_approx",
    "norm_of_difference",
]

_NORMS = ("frobenius", "snorm")
_ALGORITHMS = ("als", "id")
_ALS_MAX_SWEEPS = 200  # sweep budget per candidate rank
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ReductionConfig:
    """Settings for :func:`reduce`.

    Parameters
    ----------
    epsilon : float
        Relative tolerance: the output V satisfies ||U - V|| <= epsilon ||U||
        in the configured norm (when attainable below the input rank).
    norm : {"frobenius", "snorm"}
    algorithm : {"id", "als"}
    max_rank : int, optional
        Hard cap on the output rank.  If no rank within the cap meets the
        tolerance the best capped result is returned flagged as not met.

    The ALS path runs at most 200 sweeps per candidate rank, stops sweeping
    once the Frobenius residual improves by less than 1e-3 * epsilon *
    ||U||_F in a sweep, and adds a ridge of 1e-14 times the trace of the
    Gram matrix to each normal-equations solve.
    """

    epsilon: float
    norm: str = "frobenius"
    algorithm: str = "id"
    max_rank: int | None = None

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.norm not in _NORMS:
            raise ValueError(f"norm must be one of {_NORMS}")
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max_rank must be at least 1")


@dataclass
class ReductionResult:
    """A reduced CTD plus how it was obtained.

    ``rel_error`` is the error relative to the input, in the configured
    norm.  In the Frobenius norm it is the residual of the returned fit: for
    ALS the expanded <U-V, U-V>, for the interpolative path the exact
    residual of the skeleton's least-squares refit, ||U||^2 - ||P_S U||^2,
    from its Cholesky factor (0 when the remaining terms lie in the
    skeleton's span to working precision).  Both are differences of inner
    products, so they resolve errors only down to about sqrt(machine eps)
    relative.  In the s-norm the interpolative path may accept a skeleton on
    its Cholesky estimate without a measurement: then ``rel_error`` is that
    estimate, the square root of the unselected Cholesky mass.  That mass
    is the sum of the unselected terms' residual energies, while the
    residual of the refit is the norm of the sum of those residuals, which
    can be up to sqrt(r - k) times larger for r input terms and a skeleton
    of k.  So the estimate does not bound the s-norm error.  A measured
    s-norm ``rel_error`` is the weight of a single-start rank-one fit, a
    lower bound on the s-norm of the difference; the interpolative path
    measures it on the input's own terms (see
    :func:`interpolative_reduce`), ALS on the concatenated difference.

    ``sweeps`` counts the ALS sweeps of the candidate ranks that were
    fitted; a rank ALS skips unfitted adds none, and the interpolative path
    reports 0.  ``tolerance_met`` is False only when a max_rank cap forced a
    best-effort answer.  ``fallback_to_als`` marks interpolative runs that
    detected an indefinite Gram matrix and re-ran through ALS.
    """

    ctd: CTD
    rel_error: float
    sweeps: int
    tolerance_met: bool
    algorithm: str
    norm: str
    fallback_to_als: bool = False

    @property
    def rank(self):
        return self.ctd.rank

    def metadata(self):
        return {
            "achieved_rank": self.rank,
            "rel_error": self.rel_error,
            "sweeps": self.sweeps,
            "tolerance_met": self.tolerance_met,
            "algorithm": self.algorithm,
            "norm": self.norm,
            "fallback_to_als": self.fallback_to_als,
        }


@dataclass
class RankOneApprox:
    """Best rank-one separated approximation found by alternating solves.

    ``converged`` is False only when the sweep cap ended the fit; a fit that
    stopped on its weight, on a goal or on a zero input converged.
    """

    svalue: float
    factors: list = field(default_factory=list)
    sweeps: int = 0
    converged: bool = True

    def as_ctd(self):
        if self.svalue <= 0.0:
            raise ValueError("approximation is zero; no CTD form")
        return CTD(np.array([self.svalue]), [f.reshape(-1, 1) for f in self.factors],
                   validate=False)


def norm_of_difference(U, V, norm="frobenius"):
    """||U - V|| without forming the difference, where possible.

    The Frobenius case expands <U-V, U-V> into inner products of the factored
    forms; the s-norm case runs the rank-one fit on the concatenated
    difference CTD.
    """
    if norm == "frobenius":
        return _root(inner(U, U) - 2.0 * inner(U, V) + inner(V, V))
    if norm == "snorm":
        return rank_one_approx(add(U, scale(V, -1.0))).svalue
    raise ValueError(f"norm must be one of {_NORMS}")


def _root(sq):
    """Square root of a squared norm formed from inner products, clamped at
    zero against cancellation, as :func:`~ctdopt.ctd.frobenius_norm` does."""
    return float(np.sqrt(max(sq, 0.0)))


# ---------------------------------------------------------------------------
# s-norm (best rank-one weight)

def rank_one_approx(U, max_sweeps=500, goal=None):
    """Alternating fit of a single rank-one term, started from U's term of
    largest |s-value|.  Converged when the weight changes by less than 1e-14
    relatively between sweeps; otherwise it stops after ``max_sweeps``
    sweeps, with ``converged`` False.

    U may carry signed s-values (the s-norm error of an interpolative
    skeleton is measured on such a CTD).  The start is the same as the
    largest term's for positive s-values, and the fit is unchanged when
    every s-value flips sign, because the s-norm of -U is that of U.

    Every weight after an update is <U, v_1 x ... x v_d> for unit v_j, a
    lower bound on the s-norm.  So with a ``goal`` the fit returns as soon as
    that weight exceeds ``goal``: a measurement of ``s_norm(U) <= goal`` has
    failed by then, whatever further sweeps would find.  Below the goal it
    sweeps on, because a weight still rising there may yet cross it.

    An update whose norm is at most machine epsilon times the sum of |s_l|
    (or 1e-300) is taken as zero: that sum bounds the norm of every update,
    so such an update is rounding noise, as on an exactly cancelling input.
    The fit then restarts once from a uniform direction, and returns 0 if
    it meets zero again.
    """
    if U.rank == 0:
        return RankOneApprox(0.0, [np.zeros(M) for M in U.modes])
    start = int(np.argmax(np.abs(U.svalues)))
    v = [np.array(F[:, start]) for F in U.factors]
    # cross[j][l] = <u_j^(l), v_j>
    cross = [F.T @ vj for F, vj in zip(U.factors, v)]
    s = abs(float(U.svalues[start]))
    zero = max(np.finfo(float).eps * float(np.sum(np.abs(U.svalues))), 1e-300)
    d = U.ndim
    restarted = False
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        s_prev = s
        # pre holds the s-values times cross[0..j-1] (already updated this
        # sweep), multiplied left to right, so each p is bitwise the product
        # over k != j taken in index order
        pre = U.svalues
        for j in range(d):
            p = pre
            for k in range(j + 1, d):
                p = p * cross[k]
            b = U.factors[j] @ p
            nb = float(np.sqrt(b.dot(b)))  # np.linalg.norm(b), without its wrapper
            if nb <= zero:
                if restarted:
                    return RankOneApprox(0.0, v, sweeps)
                # One retry from a uniform direction before giving up.
                restarted = True
                v = [np.full(M, 1.0 / np.sqrt(M)) for M in U.modes]
                cross = [F.T @ vj for F, vj in zip(U.factors, v)]
                break
            v[j] = b / nb
            cross[j] = U.factors[j].T @ v[j]
            if j + 1 < d:
                pre = pre * cross[j]
            s = nb
            if goal is not None and s > goal:
                return RankOneApprox(s, v, sweeps)
        else:
            if abs(s - s_prev) < 1e-14 * max(s, 1e-300):
                return RankOneApprox(s, v, sweeps)
    return RankOneApprox(s, v, sweeps, converged=False)


def s_norm(U):
    """The s-norm: weight of the best single separated term.

    Always <= the Frobenius norm; equals it exactly for rank-one input.
    """
    return rank_one_approx(U).svalue


# ---------------------------------------------------------------------------
# ALS

def als_sweep(U, V, dim_index):
    """One least-squares update of V's factors along one dimension.

    Solves (Z + ridge I) B^T = W for the dimension's raw columns B, where Z
    is the elementwise product over the other dimensions of V's factor Gram
    matrices, the ridge is 1e-14 * trace(Z), and W holds the cross inner
    products with U's terms, then folds column norms back into the
    s-values.  This is the step :func:`reduce` takes with ALS, on a fresh
    state.

    Returns the updated CTD; U and V are unchanged.
    """
    if U.modes != V.modes:
        raise ValueError(f"shape mismatch: {U.modes} vs {V.modes}")
    j = int(dim_index)
    if not 0 <= j < U.ndim:
        raise IndexError(f"dimension {j} out of range")
    if V.rank == 0:
        return V
    state = _AlsState(U, V.svalues, V.factors)
    state.sweep_dim(j)
    return state.to_ctd()


class _AlsState:
    """Working state for the full ALS fit with cached Gram matrices."""

    def __init__(self, U, svalues, factors):
        self.U = U
        self.sv = np.asarray(svalues, dtype=float)  # positive weights of V
        self.factors = [np.array(F) for F in factors]  # unit columns
        self.cross = [Fu.T @ Fv for Fu, Fv in zip(U.factors, self.factors)]
        self.gram = [Fv.T @ Fv for Fv in self.factors]

    @property
    def rank(self):
        return self.sv.shape[0]

    def drop(self, keep):
        self.sv = self.sv[keep]
        self.factors = [F[:, keep] for F in self.factors]
        self.cross = [C[:, keep] for C in self.cross]
        self.gram = [G[np.ix_(keep, keep)] for G in self.gram]

    def inner_uv(self):
        G = np.ones((self.U.rank, self.rank))
        for C in self.cross:
            G *= C
        return float(self.U.svalues @ G @ self.sv)

    def inner_vv(self):
        G = np.ones((self.rank, self.rank))
        for Z in self.gram:
            G *= Z
        return float(self.sv @ G @ self.sv)

    def residual(self, uu):
        return float(np.sqrt(max(uu - 2.0 * self.inner_uv() + self.inner_vv(), 0.0)))

    def sweep_dim(self, j):
        rv = self.rank
        Z = np.ones((rv, rv))
        P = np.ones((self.U.rank, rv))
        for k in range(len(self.factors)):
            if k == j:
                continue
            Z *= self.gram[k]
            P *= self.cross[k]
        lam = 1e-14 * float(np.trace(Z))
        W = (self.U.factors[j] @ (self.U.svalues[:, None] * P)).T
        try:
            B = np.linalg.solve(Z + lam * np.eye(rv), W).T  # (M_j, rv)
        except np.linalg.LinAlgError as err:
            raise np.linalg.LinAlgError(
                f"normal equations singular in dimension {j} (ridge {lam:.3e})"
            ) from err
        norms = np.linalg.norm(B, axis=0)
        alive = norms > 1e-300
        if not np.all(alive):
            self.drop(alive)
            B = B[:, alive]
            norms = norms[alive]
            if self.rank == 0:
                return
        Fj = B / norms
        self.sv = norms  # other dims have unit columns, so the weight is the norm
        self.factors[j] = Fj
        self.cross[j] = self.U.factors[j].T @ Fj
        self.gram[j] = Fj.T @ Fj

    def to_ctd(self):
        if self.rank == 0:
            return zero_ctd(self.U.modes)
        return _normalized(self.sv, self.factors)


def _distinct_term_order(U, tol=1e-10):
    """Indices of U's terms, largest s-value first, with terms whose direction
    repeats an earlier pick deferred to the end.

    Two terms share a direction when the product over dimensions of
    |<u_j^(a), u_j^(b)>| exceeds 1 - tol.  The products are formed for every
    pair at once, one r x r factor Gram per dimension multiplied in
    dimension order, and the sorted terms are then scanned against them.
    """
    order = np.argsort(-U.svalues, kind="stable")
    cos = np.ones((U.rank, U.rank))
    for F in U.factors:
        cos *= np.abs(F.T @ F)
    same = cos > 1.0 - tol
    picked, deferred = [], []
    for idx in order:
        (deferred if same[idx, picked].any() else picked).append(idx)
    return picked + deferred


def _unfolding_spectra(U):
    """Squared singular values of each mode-j unfolding U_(j), largest first,
    one array of length M_j per dimension.

    They are the eigenvalues of U_(j) U_(j)^T = X_j H_j X_j^T, where X_j is
    F_j scaled by the s-values and H_j the elementwise product of the other
    dimensions' factor Grams F_l^T F_l, so each costs an M_j x M_j
    eigenproblem and no entry of U is formed.  Eigenvalues that roundoff
    pushes below zero are clipped to zero.
    """
    grams = [F.T @ F for F in U.factors]
    spectra = []
    for j, F in enumerate(U.factors):
        H = np.ones((U.rank, U.rank))
        for l, G in enumerate(grams):
            if l != j:
                H *= G
        X = F * U.svalues
        lam = np.linalg.eigvalsh(X @ H @ X.T)
        spectra.append(np.maximum(lam[::-1], 0.0))
    return spectra


def _rank_floor(U):
    """``floor[k]`` for k = 0..r: the squared Frobenius error below which no
    rank-k CTD comes to U, less a rounding allowance.

    A rank-k CTD has mode-j unfoldings of matrix rank at most k, so by
    Eckart-Young its squared error is at least the energy of each U_(j)'s
    spectrum past its k largest values (:func:`_unfolding_spectra`); the
    floor takes the largest such tail over j.  The allowance, eps * (d *
    max M_j + r) * (sum of s-values)^2, estimates the rounding in those
    tails: every entry of U_(j) U_(j)^T is a sum of terms no larger than
    (sum s)^2, formed through d Gram products of length up to M_j and an
    r x r contraction.  It is an estimate, not a proved bound.
    """
    floor = np.zeros(U.rank + 1)
    for lam in _unfolding_spectra(U):
        tails = np.cumsum(lam[::-1])[::-1]  # tails[k] = sum(lam[k:])
        k = min(len(tails), len(floor))
        floor[:k] = np.maximum(floor[:k], tails[:k])
    allowance = (np.finfo(float).eps * (U.ndim * max(U.modes) + U.rank)
                 * float(np.sum(U.svalues)) ** 2)
    return floor - allowance


def _als_fit(U, terms, cfg, uu, norm_target):
    """Fit a rank-``len(terms)`` CTD to U by ALS, started from U's terms
    ``terms``; returns (state, fro_residual, sweeps).

    Every candidate rank of one reduction starts from a prefix of the same
    duplicate-aware term order (:func:`_distinct_term_order`), which
    :func:`_als_reduce` computes once.
    """
    state = _AlsState(U, U.svalues[terms], [F[:, terms] for F in U.factors])
    goal = cfg.epsilon * norm_target
    stall = 1e-3 * cfg.epsilon * max(np.sqrt(uu), 1e-300)
    res_prev = state.residual(uu)
    sweeps = 0
    for _ in range(_ALS_MAX_SWEEPS):
        sweeps += 1
        for j in range(U.ndim):
            state.sweep_dim(j)
            if state.rank == 0:
                return state, float(np.sqrt(uu)), sweeps
        res = state.residual(uu)
        if res <= goal or res_prev - res < stall:
            return state, res, sweeps
        res_prev = res
    return state, res_prev, sweeps


def _candidate_ranks(r_in, cap):
    limit = r_in - 1 if cap is None else min(r_in - 1, cap)
    ranks = []
    r = 1
    while r < limit:
        ranks.append(r)
        r *= 2
    if limit >= 1:
        ranks.append(limit)
    return ranks


def _result(U, cfg, algorithm, norm_target, accepted, best=None, sweeps=0,
            fallback=False):
    """The :class:`ReductionResult` of a search on U.

    It holds the search's ``accepted`` (error, V); else, under a ``max_rank``
    cap below rank(U), the least-error candidate ``best`` (error, V), or zero
    if there is none, flagged as not met; else U itself, renormalized.  The
    errors are absolute, in the configured norm, and are reported relative
    to ``norm_target``.
    """
    met = True
    if accepted is not None:
        err, V = accepted
    elif cfg.max_rank is not None and cfg.max_rank < U.rank:
        err, V = best if best is not None else (norm_target, zero_ctd(U.modes))
        met = False
    else:
        err, V = 0.0, renormalize(U)
    return ReductionResult(V, err / max(norm_target, 1e-300), sweeps, met,
                           algorithm, cfg.norm, fallback_to_als=fallback)


def _als_reduce(U, cfg, fallback=False):
    """ALS reduction: fit candidate ranks 1, 2, 4, ... until one meets the
    tolerance, then bisect down to the smallest rank that does.

    In the Frobenius norm and without a ``max_rank`` cap, a candidate rank
    that the unfolding spectra prove too small (:func:`_rank_floor` above
    goal^2) is counted as failed without being fitted: no ALS fit of that
    rank could meet the goal.  The floor is formed once, before the first
    candidate.  The s-norm is not bounded below by it, and a capped reduction
    compares the fitted errors of its failures, so both fit every rank.
    """
    uu = inner(U, U)
    if _root(uu) <= 1e-300:
        return _result(U, cfg, "als", 0.0, (0.0, zero_ctd(U.modes)), fallback=fallback)
    norm_target = _root(uu) if cfg.norm == "frobenius" else s_norm(U)
    goal = cfg.epsilon * norm_target
    order = _distinct_term_order(U)
    floor = None  # formed only where there is a candidate rank to rule out
    if cfg.norm == "frobenius" and cfg.max_rank is None and U.rank > 1:
        floor = _rank_floor(U)
    total_sweeps = 0
    best = None  # the least-error (error, V) under a max_rank cap

    def try_rank(r):
        """(error, V) of the fit at rank r, or None if the floor rules r out."""
        nonlocal total_sweeps, best
        if floor is not None and floor[r] > goal * goal:
            return None
        state, fro_res, sweeps = _als_fit(U, order[:r], cfg, uu, norm_target)
        total_sweeps += sweeps
        V = state.to_ctd()
        # The Frobenius residual bounds the s-norm from above, so meeting the
        # goal in Frobenius settles either norm; otherwise re-measure in the
        # configured norm before giving up on this rank.
        err = fro_res
        if err > goal and cfg.norm == "snorm":
            err = norm_of_difference(U, V, "snorm")
        if cfg.max_rank is not None and (best is None or err < best[0]):
            best = (err, V)
        return err, V

    # Binary ascent: double the candidate rank until the tolerance is met,
    # then bisect between the last failure and the first success so exactly
    # dependent inputs land on their minimal rank.
    accepted = None
    lo = 0
    for r in _candidate_ranks(U.rank, cfg.max_rank):
        fit = try_rank(r)
        if fit is not None and fit[0] <= goal:
            accepted, hi = fit, r
            break
        lo = r
    while accepted is not None and hi - lo > 1:
        mid = (lo + hi) // 2
        fit = try_rank(mid)
        if fit is not None and fit[0] <= goal:
            accepted, hi = fit, mid
        else:
            lo = mid
    return _result(U, cfg, "als", norm_target, accepted, best, total_sweeps, fallback)


# ---------------------------------------------------------------------------
# Interpolative reduction

def _gram_diag(U):
    """Diagonal of the term Gram matrix <s_a u_a, s_b u_b>."""
    d = np.ones(U.rank)
    for F in U.factors:
        d *= np.einsum("ij,ij->j", F, F)
    return d * (U.svalues * U.svalues)


def _gram_column(U, p):
    """Column ``p`` of the term Gram matrix, computed on demand."""
    col = np.ones(U.rank)
    for F in U.factors:
        col *= F.T @ F[:, p]
    return col * (U.svalues * U.svalues[p])


def _pivoted_cholesky_lazy(U, bound=None, gram=None, uu=None, max_pivots=None):
    """Diagonal-pivoted Cholesky of U's term Gram matrix.  It starts from
    the diagonal (:func:`_gram_diag`) and reads the Gram column of a pivot
    only when that column is pivoted.  It is the only Cholesky here and
    keeps its ``_lazy`` name because ``perfbench/tracer.py`` counts its calls
    under that name.

    Returns (pivots, L, C, remaining, indefinite): ``C[:, k]`` is the Gram
    column of the k-th pivot, for the skeleton refit, and ``L[:, :k]``
    reproduces the Gram on the pivot block exactly.  Ties in the pivot
    choice resolve to the lowest index.  ``indefinite`` flags an updated
    diagonal dipping below the negative roundoff band.

    Without a ``gram`` the matrix is never formed: each pivot's column is
    fetched from the factors, so the cost scales with the skeleton size
    times r rather than with r^2, and ``remaining[k]`` is the sum of the
    updated diagonal over unselected indices after eliminating pivot k.

    With ``gram``, the unweighted term Gram (:func:`~ctdopt.ctd._cross_gram`
    of U with itself), and ``uu`` = <U, U> formed from it, the columns are
    read from that matrix, and ``remaining[k]`` is
    ``uu - sum_{i <= k} (1^T L[:, i])^2``: L[:, :k+1] L[:, :k+1]^T is the
    Gram projected onto the first k+1 pivots, so this is the squared
    Frobenius residual of the least-squares refit of U on those terms.  A
    diagonal exhausted after k pivots leaves nothing outside their span
    beyond roundoff, so ``remaining[k-1]`` is then set to 0.  Here the
    diagonal counts as exhausted also when every unselected entry is at most
    8 (k + 1) eps times its initial value: each is that value less k
    squares whose sum is at most that value, so this is their rounding, and
    every unselected term lies in the skeleton's span to working precision.
    ``max_pivots`` caps the number of pivots.

    Without a ``bound`` it factors until the diagonal is exhausted.  With one
    it stops after the first pivot k with ``sqrt(max(remaining[k], 0))`` at
    most ``bound``; the output is then a bitwise prefix of the full
    factorization.  Past that point the unselected mass is roundoff, which
    can dip below the negative band of a PSD Gram and would flag it as
    indefinite.
    """
    r = U.rank
    d = _gram_diag(U)
    if gram is not None:
        d0 = d.copy()
        d0_max = float(d0.max(initial=0.0))
    tol_neg = -1e-10 * max(float(d.max(initial=0.0)), 1e-300)
    cap = 64
    L = np.zeros((r, cap))
    C = np.zeros((r, cap))
    pivots = np.zeros(r, dtype=int)
    remaining = np.zeros(r)
    active = np.ones(r, dtype=bool)
    indefinite = False
    proj = 0.0
    steps_taken = 0
    for k in range(r):
        dm = np.where(active, d, -np.inf)
        p = int(np.argmax(dm))
        if d[p] < tol_neg:
            indefinite = True
            break
        exhausted = d[p] <= 0.0
        tau = 8 * (k + 1) * _EPS
        if gram is not None and not exhausted and d[p] <= tau * d0_max:
            # d[p] is the largest unselected entry, so the test above is
            # necessary for this one and spares its cost at most pivots
            exhausted = bool(np.all(d[active] <= tau * d0[active]))
        if exhausted:
            # what is left is numerically zero mass
            remaining[k:] = 0.0
            if gram is not None and k:
                remaining[k - 1] = 0.0
            break
        if k == max_pivots:
            break
        if k == cap:
            grow = cap
            cap *= 2
            L = np.concatenate([L, np.zeros((r, grow))], axis=1)
            C = np.concatenate([C, np.zeros((r, grow))], axis=1)
        if gram is None:
            col = _gram_column(U, p)
        else:
            col = gram[p] * (U.svalues * U.svalues[p])  # gram is symmetric
        pivots[k] = p
        lk = (col - L[:, :k] @ L[p, :k]) / np.sqrt(d[p])
        lk[~active] = 0.0
        lk[p] = np.sqrt(d[p])
        L[:, k] = lk
        C[:, k] = col
        active[p] = False
        d -= lk * lk
        d[p] = 0.0
        if np.min(d[active], initial=0.0) < tol_neg:
            indefinite = True
            break
        if gram is None:
            remaining[k] = float(np.sum(d[active], initial=0.0))
        else:
            proj += float(np.sum(lk)) ** 2
            remaining[k] = uu - proj
        steps_taken = k + 1
        if bound is not None and np.sqrt(max(remaining[k], 0.0)) <= bound:
            break
    return (pivots[:steps_taken], L[:, :steps_taken], C[:, :steps_taken],
            remaining[:steps_taken], indefinite)


def _skeleton_coefficients(C, pivots, k):
    """Least-squares refit weights c of U onto its terms ``pivots[:k]``,
    from the Gram columns ``C``: the skeleton term for pivot i is then
    c_i s_i u_i.

    The weights solve the normal equations G_SS c = G_S 1 by a least-squares
    solve on the skeleton's Gram block G_SS.  Both sides are read from the
    columns (the symmetric images of the skeleton's Gram rows).
    """
    S = pivots[:k]
    b = C[:, :k].sum(axis=0)
    c, *_ = np.linalg.lstsq(C[S, :k], b, rcond=None)
    return c


def _skeleton_ctd_from_cols(U, C, pivots, k):
    """The refit of U onto ``pivots[:k]`` (:func:`_skeleton_coefficients`)
    as a CTD; returns (V, c).  The skeleton's columns are gathered one
    dimension at a time, so only one dimension's gathered copy is alive next
    to the result."""
    S = pivots[:k]
    c = _skeleton_coefficients(C, pivots, k)
    return _normalized(c * U.svalues[S], (F[:, S] for F in U.factors)), c


def _skeleton_residual(U, S, c):
    """U - V for the refit V of U onto its terms ``S`` with coefficients
    ``c``, on U's own terms: the weights are U's s-values, less c_i s_i on
    each i in S.

    The weights are signed, so this is a CTD only for
    :func:`rank_one_approx`, which accepts them.  It shares U's read-only
    factor arrays, so it costs one vector of length rank(U), where the
    concatenated difference copies every factor.
    """
    w = np.array(U.svalues)
    w[S] -= c * U.svalues[S]
    return CTD(w, U.factors, validate=False)


def interpolative_reduce(U, cfg):
    """Skeleton-based reduction via pivoted Cholesky on the term Gram matrix.

    In the Frobenius norm the unweighted term Gram is formed once, and
    <U, U> from it as :func:`~ctdopt.ctd.inner` forms it.  The Cholesky
    reads its pivot columns from that matrix and tracks the exact squared
    residual of the least-squares refit on its pivots so far, ||U||^2 -
    ||P_S U||^2 (the Nystrom identity ||P_S U||^2 = ||L^T 1||^2, see
    :func:`_pivoted_cholesky_lazy`).  It stops at the first skeleton whose
    residual meets the tolerance, or at the ``max_rank`` cap, or when its
    diagonal is exhausted, which accepts too: exactly dependent terms leave
    a residual of roundoff.  That skeleton is refit once, and ``rel_error``
    is its residual, relative to ||U||.  Because the residual falls as the
    skeleton grows, a capped search keeps the largest skeleton within the
    cap.  The residual is a difference of two sums of size ||U||^2, so it is
    exact only down to about sqrt(machine eps) relative.

    In the s-norm the Gram matrix is never formed: the Cholesky fetches only
    the Gram columns it pivots on, so its cost scales with the skeleton size
    times r.  The search starts at the first skeleton whose unselected
    diagonal mass is at most (epsilon * ||U||_s)^2.  A skeleton whose
    unselected mass meets the tolerance with a tenfold margin is accepted
    on that estimate (see :class:`ReductionResult` for why it is not a
    bound); otherwise its error is measured, and the skeleton grows further
    if it still exceeds the tolerance.  The Cholesky stops at that estimate,
    because no skeleton past it is ever tried.  The error is measured on the
    input's own terms (:func:`_skeleton_residual`): the skeleton's terms are
    input terms, so U - V is U with the weights s_i - c_i s_i on the
    skeleton, where c is the refit's solution, and a measurement holds no
    second copy of U.  Under a ``max_rank`` cap the best skeleton is chosen
    by measured error.  A measurement stops once it exceeds the goal, so
    these errors are lower bounds, and so is the ``rel_error`` reported
    with a capped result.

    In both norms only the returned skeleton is built as a CTD, and an
    indefinite Gram matrix falls back to the ALS path with a warning flag.
    """
    if cfg.norm == "frobenius":
        G = _cross_gram(U, U)
        uu = float(U.svalues @ G @ U.svalues)
        norm_target = _root(uu)
    else:
        norm_target = s_norm(U)
    if norm_target <= 1e-300:
        return _result(U, cfg, "id", 0.0, (0.0, zero_ctd(U.modes)))
    goal = cfg.epsilon * norm_target
    if cfg.norm == "frobenius":
        search = _frobenius_skeleton(U, cfg, goal, G, uu)
        del G  # r x r, released before the skeleton is built
    else:
        search = _snorm_skeleton(U, cfg, goal)
    if search is None:
        return _als_reduce(U, cfg, fallback=True)
    pivots, C, accepted, best = search

    def built(found):
        """(error, V) for a skeleton (error, k) of the search."""
        if found is None:
            return None
        return found[0], _skeleton_ctd_from_cols(U, C, pivots, found[1])[0]

    capped = cfg.max_rank is not None and cfg.max_rank < U.rank
    return _result(U, cfg, "id", norm_target, built(accepted),
                   built(best) if accepted is None and capped else None)


def _frobenius_skeleton(U, cfg, goal, G, uu):
    """The Frobenius skeleton search of :func:`interpolative_reduce`, on the
    unweighted term Gram ``G`` and ``uu`` = <U, U>.

    Returns None for an indefinite Gram, else (pivots, C, accepted, best)
    with each of the last two a skeleton (error, k) or None.
    """
    cap = U.rank - 1 if cfg.max_rank is None else min(U.rank - 1, cfg.max_rank)
    pivots, _, C, residual, indefinite = _pivoted_cholesky_lazy(
        U, goal, gram=G, uu=uu, max_pivots=cap)
    if indefinite:
        return None
    if not len(pivots):
        return pivots, C, None, None
    found = (_root(residual[-1]), len(pivots))
    return (pivots, C, found, None) if found[0] <= goal else (pivots, C, None, found)


def _snorm_skeleton(U, cfg, goal):
    """The s-norm skeleton search of :func:`interpolative_reduce`.

    Returns None for an indefinite Gram, else (pivots, C, accepted, best)
    with each of the last two a skeleton (error, k) or None; ``best`` is
    kept only under a ``max_rank`` cap.
    """
    # The search accepts at the first k whose Cholesky estimate meets this,
    # so no later pivot is read.
    cert_goal = 0.1 * goal
    pivots, _, C, remaining, indefinite = _pivoted_cholesky_lazy(U, cert_goal)
    if indefinite:
        return None
    mass_goal = goal * goal
    k0 = 1
    while k0 < len(pivots) and remaining[k0 - 1] > mass_goal:
        k0 += 1
    cap = len(pivots) if cfg.max_rank is None else min(len(pivots), cfg.max_rank)
    accepted = best = None
    for k in range(min(k0, cap), cap + 1):
        if k >= U.rank:
            break
        c = _skeleton_coefficients(C, pivots, k)
        # The unselected diagonal mass is the sum of the unselected terms'
        # residual energies.  The squared Frobenius residual of the
        # least-squares fit is the energy of their sum, up to r - k times
        # more, and it bounds the s-norm error from above, so the mass is an
        # estimate of the error, not a bound on it.  It costs nothing, so it
        # is taken as the error when it meets the goal with a tenfold
        # margin, and measured otherwise.
        err = np.sqrt(max(remaining[k - 1], 0.0))
        if err > cert_goal:
            err = rank_one_approx(_skeleton_residual(U, pivots[:k], c),
                                  goal=goal).svalue
        if err <= goal:
            accepted = (err, k)
            break
        if cfg.max_rank is not None and (best is None or err < best[0]):
            best = (err, k)
    return pivots, C, accepted, best


def reduce(U, cfg):
    """Reduce the separation rank of U subject to the configured tolerance.

    Contract: the result V satisfies ||U - V|| <= epsilon * ||U|| in the
    configured norm, with rank(V) <= rank(U); when no strictly smaller rank
    achieves the bound (and no cap intervenes), U itself is returned
    renormalized.  See :class:`ReductionResult` for the attached metadata.
    """
    if not isinstance(cfg, ReductionConfig):
        raise TypeError("cfg must be a ReductionConfig")
    if cfg.norm == "frobenius" and cfg.epsilon < 1e-8:
        warnings.warn(
            "Frobenius-norm reduction below 1e-8 relative tolerance is not "
            "certifiable in double precision; consider norm='snorm'",
            stacklevel=2,
        )
    # Both paths catch a zero input, rank 0 included, from the norm they
    # form anyway.
    if cfg.algorithm == "id":
        return interpolative_reduce(U, cfg)
    return _als_reduce(U, cfg)
