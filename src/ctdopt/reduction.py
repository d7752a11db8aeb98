"""Separation-rank reduction of CTDs.

Two algorithms sit behind one entry point, :func:`reduce`:

* alternating least squares (``"als"``): fit a lower-rank CTD by cycling over
  dimensions, each step solving the normal equations whose Gram matrix is the
  elementwise product of the other dimensions' factor Gram matrices;
* an interpolative variant (``"id"``): pick a skeleton of existing terms by
  pivoted Cholesky on the term Gram matrix and least-squares refit the
  weights.  This keeps original factor columns untouched and is the cheaper
  route when the input terms are nearly dependent.  The Gram matrix is never
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
from scipy.linalg import solve_triangular

from .ctd import CTD, _normalized, add, inner, renormalize, scale, zero_ctd

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
    als_max_sweeps : int
        Sweep budget per candidate rank in the ALS path.
    als_stall_tol : float, optional
        Stop sweeping when the residual improves by less than this fraction
        of ||U||_F per sweep.  Defaults to 1e-3 * epsilon.
    regularization : float, optional
        Ridge added to the ALS normal equations, as an absolute value.
        Defaults to 1e-14 * trace of the Gram matrix being solved.
    """

    epsilon: float
    norm: str = "frobenius"
    algorithm: str = "id"
    max_rank: int | None = None
    als_max_sweeps: int = 200
    als_stall_tol: float | None = None
    regularization: float | None = None

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.norm not in _NORMS:
            raise ValueError(f"norm must be one of {_NORMS}")
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max_rank must be at least 1")
        if self.als_max_sweeps < 1:
            raise ValueError("als_max_sweeps must be at least 1")

    @property
    def stall_tol(self):
        return self.als_stall_tol if self.als_stall_tol is not None else 1e-3 * self.epsilon


@dataclass
class ReductionResult:
    """A reduced CTD plus how it was obtained.

    ``rel_error`` is the error relative to the input.  It is measured in the
    configured norm, except where the interpolative path accepts a skeleton
    on its Frobenius certificate without a measurement: then it is that
    certificate, the square root of the unselected Cholesky mass, which is
    the Frobenius residual of the least-squares refit and so also bounds
    the s-norm error from above.  ``tolerance_met`` is False only when a
    max_rank cap forced a best-effort answer.  ``fallback_to_als`` marks
    interpolative runs that detected an indefinite Gram matrix and re-ran
    through ALS.
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
    """Best rank-one separated approximation found by alternating solves."""

    svalue: float
    factors: list = field(default_factory=list)
    sweeps: int = 0

    def as_ctd(self):
        if self.svalue <= 0.0:
            raise ValueError("approximation is zero; no CTD form")
        return CTD(np.array([self.svalue]), [f.reshape(-1, 1) for f in self.factors],
                   validate=False)


def norm_of_difference(U, V, norm="frobenius", goal=None):
    """||U - V|| without forming the difference, where possible.

    The Frobenius case expands <U-V, U-V> into inner products of the factored
    forms; the s-norm case runs the rank-one fit on the concatenated
    difference CTD.  With a ``goal``, the s-norm fit stops as soon as its
    lower bound exceeds it (see :func:`rank_one_approx`), so a result above
    ``goal`` may be an underestimate; one at or below it is not affected.
    """
    if norm == "frobenius":
        return _frobenius_difference(U, V, inner(U, U))
    if norm == "snorm":
        return rank_one_approx(add(U, scale(V, -1.0)), goal=goal).svalue
    raise ValueError(f"norm must be one of {_NORMS}")


def _root(sq):
    """Square root of a squared norm formed from inner products, clamped at
    zero against cancellation, as :func:`~ctdopt.ctd.frobenius_norm` does."""
    return float(np.sqrt(max(sq, 0.0)))


def _frobenius_difference(U, V, uu):
    """||U - V||_F from <U-V, U-V> expanded, given ``uu`` = <U, U>, so a
    caller measuring many V against one U forms <U, U> once."""
    return _root(uu - 2.0 * inner(U, V) + inner(V, V))


# ---------------------------------------------------------------------------
# s-norm (best rank-one weight)

def rank_one_approx(U, max_sweeps=500, rel_tol=1e-14, goal=None):
    """Alternating fit of a single rank-one term, started from U's largest
    term.  Converged when the weight changes by less than ``rel_tol``
    relatively between sweeps.

    Every weight after an update is <U, v_1 x ... x v_d> for unit v_j, a
    lower bound on the s-norm.  So with a ``goal`` the fit returns as soon as
    that weight exceeds ``goal``: a measurement of ``s_norm(U) <= goal`` has
    failed by then, whatever further sweeps would find.  Below the goal it
    sweeps on, because a weight still rising there may yet cross it.
    """
    if U.rank == 0:
        return RankOneApprox(0.0, [np.zeros(M) for M in U.modes])
    start = int(np.argmax(U.svalues))
    v = [np.array(F[:, start]) for F in U.factors]
    # cross[j][l] = <u_j^(l), v_j>
    cross = [F.T @ vj for F, vj in zip(U.factors, v)]
    s = float(U.svalues[start])
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
            nb = float(np.sqrt(b.dot(b)))  # np.linalg.norm(b), without its wrapper
            if nb < 1e-300:
                if restarted:
                    return RankOneApprox(0.0, v, sweeps)
                # One retry from a uniform direction before giving up.
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
            if abs(s - s_prev) < rel_tol * max(s, 1e-300):
                break
    return RankOneApprox(s, v, sweeps)


def s_norm(U):
    """The s-norm: weight of the best single separated term.

    Always <= the Frobenius norm; equals it exactly for rank-one input.
    """
    return rank_one_approx(U).svalue


# ---------------------------------------------------------------------------
# ALS

def als_sweep(U, V, dim_index, ridge=None):
    """One least-squares update of V's factors along one dimension.

    Solves (Z + ridge I) B^T = W for the dimension's raw columns B, where Z
    is the elementwise product over the other dimensions of V's factor Gram
    matrices and W holds the cross inner products with U's terms, then folds
    column norms back into the s-values.  This is the step
    :func:`reduce` takes with ALS, on a fresh state.

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
    state.sweep_dim(j, ridge)
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

    def sweep_dim(self, j, reg):
        rv = self.rank
        Z = np.ones((rv, rv))
        P = np.ones((self.U.rank, rv))
        for k in range(len(self.factors)):
            if k == j:
                continue
            Z *= self.gram[k]
            P *= self.cross[k]
        lam = reg if reg is not None else 1e-14 * float(np.trace(Z))
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
    repeats an earlier pick deferred to the end."""
    order = np.argsort(-U.svalues, kind="stable")
    picked, deferred = [], []
    for idx in order:
        dup = False
        for p in picked:
            c = 1.0
            for F in U.factors:
                c *= abs(float(F[:, idx] @ F[:, p]))
            if c > 1.0 - tol:
                dup = True
                break
        (deferred if dup else picked).append(idx)
    return picked + deferred


def _als_fit(U, rank, cfg, uu, norm_target):
    """Fit a rank-``rank`` CTD to U by ALS; returns (state, fro_residual, sweeps)."""
    order = _distinct_term_order(U)[:rank]
    state = _AlsState(U, U.svalues[order], [F[:, order] for F in U.factors])
    goal = cfg.epsilon * norm_target
    stall = cfg.stall_tol * max(np.sqrt(uu), 1e-300)
    res_prev = state.residual(uu)
    sweeps = 0
    for _ in range(cfg.als_max_sweeps):
        sweeps += 1
        for j in range(U.ndim):
            state.sweep_dim(j, cfg.regularization)
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


def _als_reduce(U, cfg, fallback=False):
    uu = inner(U, U)
    if _root(uu) <= 1e-300:
        return ReductionResult(zero_ctd(U.modes), 0.0, 0, True, "als", cfg.norm,
                               fallback_to_als=fallback)
    norm_target = _root(uu) if cfg.norm == "frobenius" else s_norm(U)
    goal = cfg.epsilon * norm_target
    total_sweeps = 0
    best = None  # (rel_error_estimate, ctd) under a max_rank cap

    def try_rank(r):
        nonlocal total_sweeps, best
        state, fro_res, sweeps = _als_fit(U, r, cfg, uu, norm_target)
        total_sweeps += sweeps
        V = state.to_ctd()
        # The Frobenius residual bounds the s-norm from above, so meeting the
        # goal in Frobenius settles either norm; otherwise re-measure in the
        # configured norm before giving up on this rank.
        err = fro_res
        if err > goal and cfg.norm == "snorm":
            err = norm_of_difference(U, V, "snorm")
        if best is None or err < best[0]:
            best = (err, V)
        return err, V

    # Binary ascent: double the candidate rank until the tolerance is met,
    # then bisect between the last failure and the first success so exactly
    # dependent inputs land on their minimal rank.
    success = None
    last_fail = 0
    for r in _candidate_ranks(U.rank, cfg.max_rank):
        err, V = try_rank(r)
        if err <= goal:
            success = (r, err, V)
            break
        last_fail = r
    if success is not None:
        hi, err, V = success
        lo = last_fail
        while hi - lo > 1:
            mid = (lo + hi) // 2
            err_mid, V_mid = try_rank(mid)
            if err_mid <= goal:
                hi, err, V = mid, err_mid, V_mid
            else:
                lo = mid
        return ReductionResult(
            V, err / max(norm_target, 1e-300), total_sweeps, True,
            "als", cfg.norm, fallback_to_als=fallback,
        )
    if cfg.max_rank is not None and cfg.max_rank < U.rank:
        err, V = best if best is not None else (norm_target, zero_ctd(U.modes))
        return ReductionResult(
            V, err / max(norm_target, 1e-300), total_sweeps, False,
            "als", cfg.norm, fallback_to_als=fallback,
        )
    return ReductionResult(
        renormalize(U), 0.0, total_sweeps, True, "als", cfg.norm,
        fallback_to_als=fallback,
    )


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


def _pivoted_cholesky_lazy(U, bound=None):
    """Diagonal-pivoted Cholesky of U's term Gram matrix, which it never
    forms: it starts from the diagonal and fetches a Gram column only when
    that column is pivoted, so the cost scales with the skeleton size times
    r rather than with r^2.  It is the only Cholesky here and keeps its
    ``_lazy`` name because ``perfbench/tracer.py`` counts its calls under
    that name.

    Returns (pivots, L, C, remaining, indefinite): ``C[:, k]`` is the fetched
    Gram column of the k-th pivot, for the skeleton refit; ``remaining[k]``
    is the sum of the updated diagonal over unselected indices after
    eliminating that pivot, and ``L[:, :k]`` reproduces the Gram on the
    pivot block exactly.  Ties in the pivot choice resolve to the lowest
    index.  ``indefinite`` flags an updated diagonal dipping below the
    negative roundoff band.

    Without a ``bound`` it factors until the diagonal is exhausted.  With one
    it stops after the first pivot k whose certificate
    ``sqrt(max(remaining[k], 0))`` is at most ``bound``; the output is then
    a bitwise prefix of the full factorization.  Past that point the
    unselected mass is roundoff, which can dip below the negative band of a
    PSD Gram and would flag it as indefinite.
    """
    r = U.rank
    d = _gram_diag(U)
    tol_neg = -1e-10 * max(float(d.max(initial=0.0)), 1e-300)
    cap = 64
    L = np.zeros((r, cap))
    C = np.zeros((r, cap))
    pivots = np.zeros(r, dtype=int)
    remaining = np.zeros(r)
    active = np.ones(r, dtype=bool)
    indefinite = False
    steps = 0
    for k in range(r):
        dm = np.where(active, d, -np.inf)
        p = int(np.argmax(dm))
        if d[p] < tol_neg:
            indefinite = True
            break
        if d[p] <= 0.0:
            # exhausted: what is left is numerically zero mass
            remaining[k:] = 0.0
            steps = k
            break
        if k == cap:
            grow = cap
            cap *= 2
            L = np.concatenate([L, np.zeros((r, grow))], axis=1)
            C = np.concatenate([C, np.zeros((r, grow))], axis=1)
        col = _gram_column(U, p)
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
        remaining[k] = float(np.sum(d[active], initial=0.0))
        steps = k + 1
        if bound is not None and np.sqrt(max(remaining[k], 0.0)) <= bound:
            break
    return pivots[:steps], L[:, :steps], C[:, :steps], remaining[:steps], indefinite


def _skeleton_ctd_from_cols(U, C, pivots, L, k):
    """Least-squares refit of U onto the terms ``pivots[:k]``, from the
    fetched Gram columns ``C``.

    The normal equations G_SS c = G_S 1 are solved through the Cholesky
    factor restricted to the skeleton block, which is exact there; a
    degenerate block falls back to lstsq.  Both sides are read from the
    columns (the symmetric images of the skeleton's Gram rows).
    """
    S = pivots[:k]
    b = C[:, :k].sum(axis=0)
    T = L[S, :k]  # lower triangular in pivot order
    diag = np.abs(np.diag(T))
    if diag.min(initial=0.0) > 1e-300:
        y = solve_triangular(T, b, lower=True)
        c = solve_triangular(T.T, y, lower=False)
    else:
        c, *_ = np.linalg.lstsq(C[S, :k], b, rcond=None)
    factors = [np.array(F[:, S]) for F in U.factors]
    return _normalized(c * U.svalues[S], factors)


def interpolative_reduce(U, cfg):
    """Skeleton-based reduction via pivoted Cholesky on the term Gram matrix.

    The search starts at the first skeleton whose unselected diagonal mass
    is at most (epsilon * ||U||)^2 and least-squares refits its weights.  A
    skeleton whose unselected mass certifies the tolerance with a tenfold
    margin is accepted as it is; otherwise the actual error is measured in
    the configured norm, and the skeleton grows further if it still exceeds
    the tolerance.  The Cholesky stops at that certificate, because no
    skeleton past it is ever built, and it fetches only the Gram columns it
    pivots on, so the r x r term Gram is never formed, at any rank or in
    either norm.  An indefinite Gram matrix falls back to the ALS path with
    a warning flag.  In the Frobenius norm, <U, U> is formed once and gives
    both ||U|| and every measurement.

    Under a ``max_rank`` cap the best skeleton is chosen by measured error.
    An s-norm measurement stops once it exceeds the goal, so there these
    errors are lower bounds, and so is the ``rel_error`` reported with a
    capped result.
    """
    if U.rank == 0:
        return ReductionResult(U, 0.0, 0, True, "id", cfg.norm)
    if cfg.norm == "frobenius":
        uu = inner(U, U)
        norm_target = _root(uu)
    else:
        norm_target = s_norm(U)
    if norm_target <= 1e-300:
        return ReductionResult(zero_ctd(U.modes), 0.0, 0, True, "id", cfg.norm)
    goal = cfg.epsilon * norm_target
    # The skeleton search below accepts at the first k whose certificate
    # meets this, so no later pivot is read.
    cert_goal = 0.1 * goal
    pivots, L, C, remaining, indefinite = _pivoted_cholesky_lazy(U, cert_goal)
    if indefinite:
        return _als_reduce(U, cfg, fallback=True)
    mass_goal = goal * goal
    k0 = 1
    while k0 < len(pivots) and remaining[k0 - 1] > mass_goal:
        k0 += 1
    cap = len(pivots) if cfg.max_rank is None else min(len(pivots), cfg.max_rank)
    best = None
    for k in range(min(k0, cap), cap + 1):
        if k >= U.rank:
            break
        V = _skeleton_ctd_from_cols(U, C, pivots, L, k)
        # The unselected diagonal mass is the squared Frobenius residual of
        # the least-squares fit, and the Frobenius norm bounds the s-norm;
        # with a tenfold margin for the refit solve it certifies the
        # tolerance on its own, at no cost, so it is checked first.  It is
        # also the only check for sharply dependent terms: measuring the
        # difference of two nearly equal CTDs cancels, so the computed norm
        # cannot fall much below sqrt(machine eps) times the input norm, no
        # matter how good the skeleton is.
        cert = np.sqrt(max(remaining[k - 1], 0.0))
        if cert <= cert_goal:
            return ReductionResult(V, cert / norm_target, 0, True, "id", cfg.norm)
        if cfg.norm == "frobenius":
            err = _frobenius_difference(U, V, uu)
        else:
            err = norm_of_difference(U, V, "snorm", goal=goal)
        if err <= goal:
            return ReductionResult(V, err / norm_target, 0, True, "id", cfg.norm)
        if best is None or err < best[0]:
            best = (err, V)
    if cfg.max_rank is not None and cfg.max_rank < U.rank:
        err, V = best if best is not None else (norm_target, zero_ctd(U.modes))
        return ReductionResult(V, err / norm_target, 0, False, "id", cfg.norm)
    return ReductionResult(renormalize(U), 0.0, 0, True, "id", cfg.norm)


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
    if U.rank == 0:
        return ReductionResult(U, 0.0, 0, True, cfg.algorithm, cfg.norm)
    # Both paths catch a zero input inside, from the norm they form anyway.
    if cfg.algorithm == "id":
        return interpolative_reduce(U, cfg)
    return _als_reduce(U, cfg)
