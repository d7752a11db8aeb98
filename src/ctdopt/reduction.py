"""Separation-rank reduction of CTDs.

One entry point, :func:`reduce`, forms the norm target, runs one skeleton
search and hands it to one of two algorithms:

* the search (:func:`_skeleton_search`) picks a skeleton of existing terms
  by one pivoted Cholesky on the term Gram matrix and reads the weights of
  the least-squares refit off its factor.  The Gram is never formed: the
  Cholesky reads its diagonal and fetches only the columns it pivots on.
  In the Frobenius norm and for ALS the search tracks the exact residual
  of that refit, from <U, U> summed a column block at a time; in the
  interpolative s-norm it bounds its skeletons below input rank 512 from
  the half Grams of a balanced split;
* the interpolative variant (``"id"``) returns that skeleton, whose factor
  columns are input columns, untouched;
* alternating least squares (``"als"``) fits lower-rank CTDs below it,
  started from the search's pivots, by cycling over dimensions, each step
  solving the normal equations whose Gram matrix is the elementwise product
  of the other dimensions' factor Gram matrices.

The reduction target can be measured in the Frobenius norm or in the s-norm
(the weight of the best rank-one separated approximation).  The s-norm never
exceeds the Frobenius norm and, unlike it, can certify tolerances below the
square root of machine precision, because it is not computed as a difference
of large inner products.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .ctd import _BLOCK, CTD, _gram_cols, _normalized, add, inner, scale, zero_ctd

__all__ = [
    "ReductionConfig",
    "ReductionResult",
    "RankOneApprox",
    "reduce",
    "s_norm",
    "rank_one_approx",
    "norm_of_difference",
]

_NORMS = ("frobenius", "snorm")
_ALGORITHMS = ("als", "id")
_ALS_MAX_SWEEPS = 200  # sweep budget per candidate rank
_EPS = np.finfo(float).eps
# The s-norm interpolative search bounds a skeleton's error from its half
# Grams only up to this input rank, so that the r x r arrays it holds, at
# most three at once, take at most 2 MiB each; above it every skeleton is
# measured.
_SNORM_GRAM_MAX_RANK = 512
# Samples per block of the range finder that compresses a measured factor.
_SAMPLES = 8


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
    Gram matrix to each normal-equations solve.  A sweep forms each
    update's Gram and cross products as a running prefix over the
    dimensions already updated times a suffix over the rest, so it costs
    O(d) elementwise products, and it reads its residual off the last
    prefix.  It solves through the Cholesky factor of the ridged Gram, or by
    LU where that factorization fails; a less accurate solve can only slow
    a fit, never pass one, because every fit is judged on the expanded
    <U-V, U-V> of the factors it returns (see :class:`_AlsState`).  In the
    Frobenius norm without a ``max_rank`` cap it also gives up on a
    candidate rank once the fit, at twice its last sweep's gain, would not
    meet the tolerance within the 200 sweeps; the factor 2 is an estimate,
    not a bound (see :func:`_als_fit`).
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
    an ALS fit the expanded <U-V, U-V>, for a skeleton the exact residual of
    its least-squares refit, ||U||^2 - ||P_S U||^2, from its Cholesky factor
    (0 when the remaining terms lie in the skeleton's span to working
    precision).  Both are differences of inner products, so they resolve
    errors only down to about sqrt(machine eps) relative.  ALS returns the
    search's skeleton, still as ``"als"``, where no smaller fit meets the
    tolerance.

    An s-norm ``rel_error`` is one of four kinds:

    * A Frobenius bound: where the Frobenius residual of the fit, plus its
      rounding allowance, is within the tolerance, it is the root of that
      sum, an upper bound on the s-norm error (up to the allowance, an
      estimate; see :func:`_frobenius_bound`).  The interpolative path
      reads it only below input rank 512; ALS reads it for its fits and for
      the skeletons of its search.
    * A flattening bound: the interpolative path, below input rank 512,
      also accepts a skeleton whose residual's balanced flattening has
      spectral norm within the tolerance less a rounding allowance (see
      :func:`_flattening_bound`).  The test proves only that, so
      ``rel_error`` is then epsilon itself, an upper bound.
    * An ALS lower bound: otherwise a measured error is the weight of a
      single-start rank-one fit, a lower bound on the s-norm of the
      difference.  The interpolative path measures it on the input's own
      terms, with each factor in the coordinates of its numerical column
      space where that space takes at most half its rows, so the copy takes
      at most half the factor bytes (see :func:`_skeleton_search`); ALS
      measures it on the concatenated difference.
    * A mass estimate: the interpolative path accepts a skeleton on its
      Cholesky estimate without a bound or a measurement where that meets
      the tolerance with a tenfold margin, and ``rel_error`` is that
      estimate, the square root of the unselected Cholesky mass.  That mass
      is the sum of the unselected terms' residual energies, while the
      residual of the refit is the norm of the sum of those residuals,
      which can be up to sqrt(r - k) times larger for r input terms and a
      skeleton of k.  So the estimate does not bound the s-norm error.  An
      estimate of 0, as for a skeleton that exhausts the Cholesky's
      diagonal (see :func:`_pivoted_cholesky_lazy`), is not taken as an
      error: exhaustion resolves a term's distance to the skeleton's span
      only to about sqrt(eps) of its norm, so such a skeleton is bounded
      or measured like any other.

    ``sweeps`` counts the ALS sweeps of every candidate rank fitted, also
    when the skeleton is returned; the interpolative path reports 0.
    ``tolerance_met`` is False only when a max_rank cap forced a best-effort
    answer.
    ``fallback_to_als`` marks interpolative runs that detected an indefinite
    Gram matrix and fell back to ALS, started from the pivots found before
    the break.
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


def _frobenius_bound(sq, U, goal):
    """An upper bound on ||U - V||_s from the squared Frobenius residual
    ``sq`` of a fit V to U, formed as a difference of inner products, or
    None if that bound exceeds ``goal``.

    The s-norm never exceeds the Frobenius norm, so sqrt(sq) bounds the
    s-norm error up to the rounding of the difference.  The allowance
    r * eps * (sum |s|)^2, for U's r terms and s-values s, estimates that
    rounding: every term of those sums is at most the product of two
    s-values, and their sum can be far larger than ||U||^2 where terms
    cancel.  It is an estimate, not a proved bound.  Where it alone exceeds
    goal^2, as at tolerances below about sqrt(eps), the Frobenius residual
    cannot resolve the goal, and this returns None whatever ``sq`` is.
    """
    size = float(np.sum(np.abs(U.svalues)))
    bound_sq = max(sq, 0.0) + U.rank * _EPS * size * size
    return float(np.sqrt(bound_sq)) if bound_sq <= goal * goal else None


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

class _AlsState:
    """Working state for the full ALS fit with cached Gram matrices.

    ``cross[j]`` is U's factor j against V's, and ``gram[j]`` V's factor
    Gram, formed as ``F.T @ F`` (a SYRK).  It stays a SYRK, not a GEMM on a
    copy as in :func:`~ctdopt.ctd._gram_cols`, until the Frobenius accept
    has a proved rounding allowance: as a GEMM on a copy it sends ALS on the
    stored Ackley sample at 1e-6 to a rank-13 fit whose true error misses
    the tolerance, where the SYRK gives rank 14.  A :meth:`sweep` updates
    dimensions 0..d-1 in turn.  Each update's Z (rv x rv), the elementwise
    product of the other dimensions' Grams, and P (r x rv), that of their
    cross blocks, are a running prefix over the dimensions already updated
    times a suffix over the rest, formed once per sweep from right to left:
    about 3d products per array per sweep, not (d-1)^2.  The prefix over
    all d dimensions is the product :meth:`residual` forms, in the same
    left-to-right order, so the sweep reads its residual off it.

    :meth:`update` solves the ridged normal equations through the Cholesky
    factor L of Z + ridge I, as B = (W^T L^-T) L^-1: the inverse of the
    rv x rv triangle and two small products, in place of an LU solve with
    M_j right-hand sides.  Where the Cholesky fails, it runs that LU solve
    on the same matrix.  Z + ridge I itself is never inverted.  A less
    accurate solve can only slow a fit, never pass one: every residual a fit
    is judged on is the expanded <U-V, U-V> of the factors it returns.
    """

    def __init__(self, U, svalues, factors):
        self.U = U
        self.sv = np.asarray(svalues, dtype=float)  # positive weights of V
        self.factors = [np.array(F) for F in factors]  # unit columns
        self.cross = [Fu.T @ Fv for Fu, Fv in zip(U.factors, self.factors)]
        self.gram = [Fv.T @ Fv for Fv in self.factors]

    @property
    def rank(self):
        return self.sv.shape[0]

    def residual(self, uu, Z=None, P=None):
        """The Frobenius residual ||U - V|| from <U, U> = ``uu`` and the
        elementwise products ``Z`` and ``P`` of every dimension's Gram and
        cross blocks, formed here, left to right, if not given."""
        if Z is None:
            Z = np.ones((self.rank, self.rank))
            P = np.ones((self.U.rank, self.rank))
            for G, C in zip(self.gram, self.cross):
                Z *= G
                P *= C
        uv = float(self.U.svalues @ P @ self.sv)
        vv = float(self.sv @ Z @ self.sv)
        return float(np.sqrt(max(uu - 2.0 * uv + vv, 0.0)))

    def update(self, j, Z, P):
        """Refit dimension j from the other dimensions' products ``Z`` and
        ``P``.  Returns the mask of the terms kept, or None where every
        column of the solution is nonzero; with a mask, the zero columns'
        terms have been dropped."""
        lam = 1e-14 * float(Z.trace())
        A = Z.copy()
        A.flat[::self.rank + 1] += lam  # Z + lam I
        Wt = self.U.factors[j] @ (self.U.svalues[:, None] * P)  # (M_j, rv)
        try:
            Linv = np.linalg.inv(np.linalg.cholesky(A))
        except np.linalg.LinAlgError:
            try:
                B = np.linalg.solve(A, Wt.T).T
            except np.linalg.LinAlgError as err:
                raise np.linalg.LinAlgError(
                    f"normal equations singular in dimension {j} (ridge {lam:.3e})"
                ) from err
        else:
            B = (Wt @ Linv.T) @ Linv  # (M_j, rv)
        # np.linalg.norm(B, axis=0), without its wrapper
        norms = np.sqrt(np.add.reduce(B * B, axis=0))
        keep = norms > 1e-300
        if keep.all():
            keep = None
        else:
            self.sv = self.sv[keep]
            self.factors = [F[:, keep] for F in self.factors]
            self.cross = [C[:, keep] for C in self.cross]
            self.gram = [G[np.ix_(keep, keep)] for G in self.gram]
            B = B[:, keep]
            norms = norms[keep]
            if self.rank == 0:
                return keep
        Fj = B / norms
        self.sv = norms  # other dims have unit columns, so the weight is the norm
        self.factors[j] = Fj
        self.cross[j] = self.U.factors[j].T @ Fj
        self.gram[j] = Fj.T @ Fj
        return keep

    def sweep(self, uu):
        """Update dimensions 0..d-1 in order; returns the Frobenius residual
        of the result (see :meth:`residual`), or sqrt(uu) if every term has
        been dropped."""
        d = len(self.factors)
        # sz[j], sp[j]: products over dimensions j+1..d-1.  The empty ones
        # are ones, and a product with 1.0 is exact.
        sz = [np.ones((self.rank, self.rank))] * d
        sp = [np.ones((self.U.rank, self.rank))] * d
        for k in range(d - 2, -1, -1):
            sz[k] = self.gram[k + 1] * sz[k + 1]
            sp[k] = self.cross[k + 1] * sp[k + 1]
        z = np.ones((self.rank, self.rank))  # prefixes over dimensions 0..j-1
        p = np.ones((self.U.rank, self.rank))
        for j in range(d):
            keep = self.update(j, z * sz[j], p * sp[j])
            if keep is not None:
                if self.rank == 0:
                    return float(np.sqrt(uu))
                z, p = z[np.ix_(keep, keep)], p[:, keep]
                sz = [S[np.ix_(keep, keep)] for S in sz]
                sp = [S[:, keep] for S in sp]
            z = z * self.gram[j]
            p = p * self.cross[j]
        return self.residual(uu, z, p)

    def to_ctd(self):
        if self.rank == 0:
            return zero_ctd(self.U.modes)
        return _normalized(self.sv, self.factors)


def _als_fit(U, terms, cfg, uu, goal):
    """Fit a rank-``len(terms)`` CTD to U by ALS, started from U's terms
    ``terms``, until its Frobenius residual meets ``goal``, stalls, or, in
    an uncapped Frobenius reduction, is out of reach; returns (state,
    fro_residual, sweeps).

    Every candidate rank of one reduction starts from a prefix of the same
    term order, the pivot order of the search's Cholesky (see
    :func:`_als_reduce`).

    Out of reach: after sweep n, with gain = previous residual - residual,
    the fit ends as failed once residual - goal > 2 * gain * (200 - n), that
    is, once even at twice its current rate it would not meet the goal
    within its sweep budget.  The factor 2 is an estimate, not a bound: a
    fit can sit in a swamp and then speed up by more (Mohlenkamp, Linear
    Algebra Appl. 438, 2013), and such a fit is then counted as failed.
    The stop applies only in the Frobenius norm without a ``max_rank`` cap,
    where a failed fit is used only for the fact that it failed, and it is
    the one rule there that gives up on a candidate rank: every rank the
    ascent and bisection reach is fitted.  In the s-norm a fit that misses
    the goal in the Frobenius norm can still pass its s-norm measurement,
    and under a cap the errors of failed fits are compared, so both run
    every fit to the goal, a stall or the budget.
    """
    state = _AlsState(U, U.svalues[terms], [F[:, terms] for F in U.factors])
    stall = 1e-3 * cfg.epsilon * max(np.sqrt(uu), 1e-300)
    out_of_reach_stop = cfg.norm == "frobenius" and cfg.max_rank is None
    res_prev = state.residual(uu)
    for sweeps in range(1, _ALS_MAX_SWEEPS + 1):
        res = state.sweep(uu)
        if state.rank == 0:
            return state, res, sweeps
        gain = res_prev - res
        if res <= goal or gain < stall or (
                out_of_reach_stop and res - goal > 2.0 * gain * (_ALS_MAX_SWEEPS - sweeps)):
            return state, res, sweeps
        res_prev = res
    return state, res_prev, sweeps


def _result(U, cfg, algorithm, norm_target, accepted, best=None, sweeps=0,
            fallback=False):
    """The :class:`ReductionResult` of a search on U.

    It holds the search's ``accepted`` (error, V); else, under a ``max_rank``
    cap below rank(U), the least-error candidate ``best`` (error, V), or zero
    if there is none, flagged as not met; else the input U itself, which is
    already canonical, so no copy of it is made.  The errors are absolute,
    in the configured norm, and are reported relative to ``norm_target``.
    """
    met = True
    if accepted is not None:
        err, V = accepted
    elif cfg.max_rank is not None and cfg.max_rank < U.rank:
        err, V = best if best is not None else (norm_target, zero_ctd(U.modes))
        met = False
    else:
        err, V = 0.0, U
    return ReductionResult(V, err / max(norm_target, 1e-300), sweeps, met,
                           algorithm, cfg.norm, fallback_to_als=fallback)


def _als_reduce(U, cfg, uu, goal, pivots, skeleton, k):
    """ALS fits below the search's skeleton: fit candidate ranks 1, 2, 4,
    ... until one meets the tolerance, then bisect down to the smallest rank
    that does.  Returns (accepted, best, sweeps) for :func:`_result`.

    ``skeleton`` is the (error, V) of the skeleton of rank ``k`` that the
    search (:func:`_skeleton_search`) accepted, or None where it accepted
    none.  Only ranks below k, and within the ``max_rank`` cap, are fitted,
    and the skeleton is accepted where no smaller fit meets the tolerance.
    Every fit starts from a prefix of the search's pivots, then of the other
    terms, largest s-value first; a near-duplicate of a pivot has an updated
    diagonal of about 0, so it comes late.  A fit below k reads only pivots,
    so a search stopped at k gives the same fits as one run to exhaustion.
    ``uu`` is <U, U> (:func:`~ctdopt.ctd.inner`), and ``goal`` the absolute
    tolerance.
    """
    rest = np.setdiff1d(np.arange(U.rank), pivots)
    order = np.concatenate([pivots, rest[np.argsort(-U.svalues[rest], kind="stable")]])
    limit = U.rank - 1 if cfg.max_rank is None else min(U.rank - 1, cfg.max_rank)
    accepted = skeleton
    hi = limit + 1 if skeleton is None else k  # every candidate rank is below it
    total_sweeps = 0
    best = None  # the least-error (error, V) under a max_rank cap

    def try_rank(r):
        """(error, V) of the fit at rank r."""
        nonlocal total_sweeps, best
        state, fro_res, sweeps = _als_fit(U, order[:r], cfg, uu, goal)
        total_sweeps += sweeps
        V = state.to_ctd()
        # In the s-norm the Frobenius residual, an upper bound, settles the
        # fit where it is within the goal with its rounding allowance;
        # otherwise the s-norm is measured before giving up on this rank.
        err = fro_res
        if cfg.norm == "snorm":
            err = _frobenius_bound(fro_res * fro_res, U, goal)
            if err is None:
                err = norm_of_difference(U, V, "snorm")
        if cfg.max_rank is not None and (best is None or err < best[0]):
            best = (err, V)
        return err, V

    # Binary ascent: double the candidate rank, up to the limit and below
    # the skeleton's, until the tolerance is met, then bisect between the
    # last failure and the first success so exactly dependent inputs land on
    # their minimal rank.
    lo, r = 0, 1
    while r < hi:
        fit = try_rank(r)
        if fit[0] <= goal:
            accepted, hi = fit, r
            break
        lo, r = r, (min(2 * r, limit) if r < limit else hi)
    while accepted is not None and hi - lo > 1:
        mid = (lo + hi) // 2
        fit = try_rank(mid)
        if fit[0] <= goal:
            accepted, hi = fit, mid
        else:
            lo = mid
    return accepted, best, total_sweeps


# ---------------------------------------------------------------------------
# Interpolative reduction

def _gram_diag(U):
    """Diagonal of the term Gram matrix <s_a u_a, s_b u_b>."""
    d = np.ones(U.rank)
    for F in U.factors:
        d *= np.einsum("ij,ij->j", F, F)
    return d * (U.svalues * U.svalues)


def _gram_column(U, p):
    """Column ``p`` of the term Gram matrix, computed on demand: a
    one-column block of :func:`~ctdopt.ctd._gram_cols`, weighted."""
    return _gram_cols(U, U, p, p + 1)[:, 0] * (U.svalues * U.svalues[p])


def _pivoted_cholesky_lazy(U, accept=None, uu=None, max_pivots=None):
    """Diagonal-pivoted Cholesky of U's term Gram matrix, which is never
    formed.  It starts from the diagonal (:func:`_gram_diag`) and fetches
    the Gram column of a pivot from the factors (:func:`_gram_column`) only
    when that column is pivoted, so its cost scales with the skeleton size
    times r, not with r^2.  It is the only Cholesky here and keeps its
    ``_lazy`` name because ``perfbench/tracer.py`` counts its calls under
    that name.

    Returns (pivots, L, indefinite): ``L[:, :k]`` reproduces the Gram
    columns of the first k pivots exactly, and L[:, :k] L[:, :k]^T is the
    Gram projected onto them, so ||L[:, :k]^T 1||^2 is ||P_S U||^2, the
    squared norm of the refit of U on them, whose weights L also gives
    (:func:`_skeleton_coefficients`).  Ties in the pivot choice resolve to
    the lowest index.  ``indefinite`` flags an updated diagonal dipping
    below the negative roundoff band; the pivot that made it dip is left
    out.

    After each pivot k it offers the skeleton of the first k + 1 pivots to
    ``accept(pivots, L, res)``, with views of the arrays above, and stops
    at the first True.  ``res`` is the skeleton's squared residual:
    with ``uu`` = <U, U>, as :func:`_skeleton_search` passes it in the
    Frobenius norm and for ALS, ``uu - ||L^T 1||^2``, the squared Frobenius
    residual of the least-squares refit of U on the pivots; without it, the
    sum of the updated diagonal over unselected indices.

    One exhaustion rule serves both modes: after k pivots the diagonal is
    exhausted once every unselected entry is at most 8 (k + 1) eps times its
    initial value, an entry at most 0 included.  Each is that value less k
    squares whose sum is at most that value, so this is their rounding: the
    diagonal resolves no more.  The last skeleton is then offered once more,
    with ``res`` 0.  That says only that each unselected term lies within
    about sqrt(8 (k + 1) eps) of its norm of the skeleton's span, about
    what the Frobenius residual resolves too; the interpolative s-norm
    search bounds or measures such a skeleton (:func:`_skeleton_search`).
    A pivot's entry of the updated diagonal is set to -inf, so the next
    pivot is the diagonal's argmax.

    Without ``accept`` it factors until the diagonal is exhausted or the
    ``max_pivots`` cap is reached.  A capped or accepted run is a bitwise
    prefix of the full factorization.  Past the exhausted point the
    unselected mass is roundoff, which can dip below the negative band of a
    PSD Gram and would flag it as indefinite.
    """
    r = U.rank
    d = _gram_diag(U)
    d0 = d.copy()
    d0_max = float(d0.max(initial=0.0))
    tol_neg = -1e-10 * max(d0_max, 1e-300)
    cap = 64
    L = np.zeros((r, cap))
    pivots = np.zeros(r, dtype=int)
    active = np.ones(r, dtype=bool)
    proj = 0.0
    n = 0  # pivots taken
    for k in range(r):
        p = int(np.argmax(d))
        tau = 8 * (k + 1) * _EPS
        # d[p] is the largest unselected entry, so its test is necessary for
        # the full one and spares that one's cost at most pivots
        if d[p] <= tau * d0_max and np.all(d <= tau * d0):
            # what is left is numerically zero mass
            if accept is not None and k:
                accept(pivots[:k], L[:, :k], 0.0)
            break
        if k == max_pivots:
            break
        if k == cap:
            L = np.concatenate([L, np.zeros((r, cap))], axis=1)
            cap *= 2
        pivots[k] = p
        lk = (_gram_column(U, p) - L[:, :k] @ L[p, :k]) / np.sqrt(d[p])
        lk[~active] = 0.0
        lk[p] = np.sqrt(d[p])
        L[:, k] = lk
        active[p] = False
        d -= lk * lk
        d[p] = -np.inf
        if np.min(d[active], initial=0.0) < tol_neg:
            return pivots[:k], L[:, :k], True
        n = k + 1
        if uu is None:
            res = float(np.sum(d[active], initial=0.0))
        else:
            proj += float(np.sum(lk)) ** 2
            res = uu - proj
        if accept is not None and accept(pivots[:n], L[:, :n], res):
            break
    return pivots[:n], L[:, :n], False


def _skeleton_coefficients(L, pivots, k):
    """Least-squares refit weights c of U onto its terms ``pivots[:k]``,
    read off the Cholesky factor ``L`` of :func:`_pivoted_cholesky_lazy`:
    the skeleton term for pivot i is then c_i s_i u_i.

    The weights solve the normal equations G_SS c = G_S^T 1.  With
    G_S = L[:, :k] L_S^T, for L_S = L[pivots[:k], :k], they are
    c = L_S^-T (L[:, :k]^T 1), the refit whose squared residual the
    Cholesky reports, ||U||^2 - ||L[:, :k]^T 1||^2.  L_S is lower
    triangular in pivot order, with diagonal sqrt(d_p) > 0, since a pivot
    is taken only above the exhaustion band, so the solve cannot fail, and
    its partial pivoting swaps no row of the triangle.
    """
    return np.linalg.solve(L[pivots[:k], :k].T, L[:, :k].sum(axis=0))


def _skeleton_ctd(U, L, pivots, k, c=None):
    """The refit of U onto ``pivots[:k]`` (:func:`_skeleton_coefficients`,
    unless its weights ``c`` are given) as a CTD.  The skeleton's columns
    are gathered one dimension at a time, so only one dimension's gathered
    copy is alive next to the result."""
    S = pivots[:k]
    if c is None:
        c = _skeleton_coefficients(L, pivots, k)
    return _normalized(c * U.svalues[S], (F[:, S] for F in U.factors))


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


def _split_gram(U):
    """(L, uu) for the balanced split of U's dimensions at h = floor(d / 2):
    L from A, the unweighted term Gram over dimensions 0..h-1, and uu =
    <U, U>, both from one pass over column blocks
    (:func:`~ctdopt.ctd._gram_cols`).
    The term Gram is A o B, for B the Gram over the rest, so uu = s^T (A o B)
    s, summed a block at a time; B is never held.  A is numerically singular
    wherever the first half holds fewer than r independent directions, so L
    is the Cholesky factor of A + delta I, with delta = n eps max_l A_ll for
    n = sum_j M_j + r; L is None if even that is not numerically positive
    definite.
    """
    r, h, s = U.rank, U.ndim // 2, U.svalues
    A = np.empty((r, r))
    uu = 0.0
    for c in range(0, r, _BLOCK):
        e = min(c + _BLOCK, r)
        A[:, c:e] = _gram_cols(U, U, c, e, slice(h))
        uu += float(s @ (A[:, c:e] * _gram_cols(U, U, c, e, slice(h, None))) @ s[c:e])
    A.flat[::r + 1] += (sum(U.modes) + r) * _EPS * float(A.diagonal().max())
    try:
        return np.linalg.cholesky(A), uu
    except np.linalg.LinAlgError:
        return None, uu


def _flattening_bound(U, L, w, goal):
    """``goal`` if the balanced flattening proves that the CTD R with U's
    factors and the signed weights ``w`` has s-norm within ``goal``, else
    None; L is the shifted half-Gram factor of :func:`_split_gram`.

    Let R_(S) be R's matricization with dimensions 0..h-1 on its rows, X
    the Khatri-Rao product of their factors, W = diag(w), A = X^T X and B
    the other half's Gram.  Then R_(S) R_(S)^T = X W B W X^T, so
    ||R_(S)||_2^2 = lambda_max(W B W A), at most lambda_max(L^T W B W L)
    since L L^T = A + delta I: the shift only raises it.  The s-norm is at
    most the spectral norm of any matricization (S. Hu, Linear Algebra Appl.
    478, 2015), so R is within ``goal`` when g^2 I - L^T W B W L is positive
    definite, one Cholesky, for g^2 = goal^2 less an allowance.  The test
    settles only that, so the bound it reports is ``goal`` itself.

    The allowance n eps max|w| sum|w|, for n = sum_j M_j + r, estimates the
    rounding of that matrix: max|w| sum|w| bounds ||W L||_2^2 by
    Gershgorin, and n eps the relative rounding of the Gram entries, formed
    through products of length M_j, and of the r-long contractions.  It is
    an estimate, not a proved bound.  Where it alone exceeds goal^2 this
    returns None.

    W B W is written into one r x r array, a column block of B at a time
    (:func:`~ctdopt.ctd._gram_cols`), and multiplied by L on both sides.
    """
    r = U.rank
    aw = np.abs(w)
    g2 = goal * goal - (sum(U.modes) + r) * _EPS * float(aw.max()) * float(aw.sum())
    if g2 <= 0.0:
        return None
    X = np.empty((r, r))
    for c in range(0, r, _BLOCK):
        e = min(c + _BLOCK, r)
        X[:, c:e] = _gram_cols(U, U, c, e, slice(U.ndim // 2, None))
    X *= w
    X *= w[:, None]
    X = X @ L  # rebinding X frees each product once the next is formed
    X = L.T @ X
    X *= -1.0
    X.flat[::r + 1] += g2
    try:
        np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        return None
    return goal


def _max_sq_column(F):
    """The largest squared column norm of F."""
    return float(np.max(np.einsum("ij,ij->j", F, F)))


def _column_coordinates(F):
    """(Q, Q^T F) for an orthonormal basis Q of the numerical column space of
    the M x r factor F, where Q has at most M / 2 columns; else (None, F),
    with F the same array.

    Q comes from an adaptive randomized range finder (Halko, Martinsson &
    Tropp, SIAM Rev. 53, 2011) with a fixed seed, so it is the same on every
    call.  Each block of 8 samples F Omega is projected off Q and
    orthonormalized by a QR, twice, so that it is orthogonal to Q to working
    precision.  Q is kept once the explicit residual max_l ||f_l - Q Q^T
    f_l||, formed a column block of F at a time, is at most tol = M eps
    max_l ||f_l||.  That residual is formed only where the next block's
    samples, projected off Q, are each within 10 sqrt(r) tol: the expected
    square of each is the residual's squared Frobenius norm, at most r tol^2
    where the residual is within tol.
    """
    M, r = F.shape
    tol_sq = (M * _EPS) ** 2 * _max_sq_column(F)
    rng = np.random.default_rng(0)
    Q = np.empty((M, 0))
    while True:
        Y = F @ rng.standard_normal((r, _SAMPLES))
        Y -= Q @ (Q.T @ Y)
        if Q.shape[1] and _max_sq_column(Y) <= 100.0 * r * tol_sq:
            residual = max(_max_sq_column(F[:, c:c + _BLOCK] - Q @ (Q.T @ F[:, c:c + _BLOCK]))
                           for c in range(0, r, _BLOCK))
            if residual <= tol_sq:
                return Q, Q.T @ F
        if Q.shape[1] + _SAMPLES > M // 2:
            return None, F
        Y = np.linalg.qr(Y)[0]
        Y -= Q @ (Q.T @ Y)
        Q = np.hstack([Q, np.linalg.qr(Y)[0]])


def _skeleton_search(U, cfg, goal, uu=None):
    """The one skeleton search of :func:`reduce`, for both algorithms and
    both norms.

    One pivoted Cholesky (:func:`_pivoted_cholesky_lazy`) of at most
    min(r - 1, max_rank) pivots picks the skeleton.  It offers each new
    skeleton k to this search, which reads its error and stops the
    Cholesky at the first that meets the goal, so no Gram column past the
    accepted skeleton is fetched.  Only the reading of the error depends on
    whether uu = <U, U> is given.

    * With ``uu``, in the Frobenius norm and for ALS, the Cholesky offers
      the exact squared residual of the least-squares refit on its pivots,
      ||U||^2 - ||P_S U||^2, and an exhausted diagonal a residual of 0.  In
      the Frobenius norm the error is the residual's root; in the s-norm it
      is the bound :func:`_frobenius_bound` makes of the residual.
    * Without ``uu``, in the interpolative s-norm, the Cholesky offers the
      unselected diagonal mass.  A skeleton is read only where that mass is
      at most goal^2, or at the cap.  A skeleton whose mass is positive and
      within 0.1 * goal is accepted on that estimate (see
      :class:`ReductionResult` for why it is not a bound); an exhausted
      diagonal's mass of 0 is below the Cholesky's resolution, so that
      skeleton is read like the rest.  Otherwise, up to input rank 512
      (``_SNORM_GRAM_MAX_RANK``), it is bounded from the half Grams of U's
      balanced split (:func:`_split_gram`), formed once at the first such
      skeleton: first by its refit's Frobenius residual, <U, U> - ||L^T
      1||^2, then by the spectral norm of its residual's balanced
      flattening (:func:`_flattening_bound`).  Since ALS weight <= s-norm
      <= flattening norm <= Frobenius norm, a skeleton either bound settles
      is one ALS would accept too.  Above the gate, and where neither bound
      settles it, its error is measured on the input's own terms
      (:func:`_skeleton_residual`).  A measurement stops once it exceeds
      the goal, so a measured error is a lower bound.
    * The measurement fits in the coordinates of each factor's numerical
      column space (:func:`_column_coordinates`), formed once at the first
      measured skeleton: Q_j^T F_j where the basis Q_j has at most M_j / 2
      columns, else F_j itself, so the copy takes at most half of U's
      factor bytes.  The s-norm does not change under an isometry in each
      mode, and the fit's iterates map one to one (v_j = Q_j v~_j), with
      two differences.  Each column moves by at most tol = M_j eps, which
      moves a weight by at most d tol sum|w| for the weights w, the order of
      the fit's own rounding.  And the fit's uniform restart, reached only
      when an update falls below eps sum|w|, runs in the compressed
      coordinates.

    Under a ``max_rank`` cap below rank(U), where no skeleton is accepted,
    the least-error one is kept as ``best``, ties going to the larger.

    Every skeleton's weights, and the residual it is read by, come from
    the one refit the Cholesky factor L defines
    (:func:`_skeleton_coefficients`).

    Returns (pivots, L, accepted, best, indefinite), each of ``accepted``
    and ``best`` a skeleton (error, k, c) or None, with c its refit weights
    where the search computed them, else None.  An indefinite Gram gives
    the pivots found before the break, and no accepted skeleton: the
    Cholesky stops at the one it accepts, so it breaks only before it.
    """
    frobenius = cfg.norm == "frobenius"
    capped = cfg.max_rank is not None and cfg.max_rank < U.rank
    # split is _split_gram(U), and columns U's factors in the coordinates of
    # their column spaces, each formed when first read
    accepted = best = split = columns = None

    def offer(pivots, L, res):
        nonlocal accepted, best, split, columns
        k, c = len(pivots), None
        err = _root(res)
        if uu is not None and not frobenius:
            err = _frobenius_bound(res, U, goal)
        elif uu is None and res > goal * goal and k != cfg.max_rank:
            return False
        elif uu is None and not 0.0 < err <= 0.1 * goal:
            c = _skeleton_coefficients(L, pivots, k)
            R = _skeleton_residual(U, pivots, c)
            err = None
            if U.rank <= _SNORM_GRAM_MAX_RANK:
                if split is None:
                    split = _split_gram(U)
                half_factor, split_uu = split
                # ||L^T 1||^2, each column summed in row order
                proj = np.cumsum(np.cumsum(L, axis=0)[-1] ** 2)[-1]
                err = _frobenius_bound(split_uu - proj, U, goal)
                if err is None and half_factor is not None:
                    err = _flattening_bound(U, half_factor, R.svalues, goal)
            if err is None:
                if columns is None:
                    columns = [_column_coordinates(F)[1] for F in U.factors]
                R = CTD(R.svalues, columns, validate=False)
                err = rank_one_approx(R, goal=goal).svalue
        if err is not None and err <= goal:
            accepted = (err, k, c)
            return True
        if capped and err is not None and (best is None or err <= best[0]):
            best = (err, k, c)
        return False

    pivots, L, indefinite = _pivoted_cholesky_lazy(
        U, offer, uu=uu, max_pivots=min(U.rank - 1, cfg.max_rank or U.rank))
    return pivots, L, accepted, best, indefinite


def _built(U, L, pivots, found):
    """(error, V) for a skeleton (error, k, c) of a search, or None; the
    refit weights are read off L only where the search left c None."""
    if found is None:
        return None
    err, k, c = found
    return err, _skeleton_ctd(U, L, pivots, k, c)


def reduce(U, cfg):
    """Reduce the separation rank of U subject to the configured tolerance.

    Contract: the result V satisfies ||U - V|| <= epsilon * ||U|| in the
    configured norm, with rank(V) <= rank(U); when no strictly smaller rank
    achieves the bound (and no cap intervenes), the input U itself is
    returned.  See :class:`ReductionResult` for the attached metadata.

    Both algorithms share this front end: it forms the norm target ||U||
    (from <U, U>, summed a column block at a time by
    :func:`~ctdopt.ctd.inner`, in the Frobenius norm), exits on a zero input
    (rank 0 included), sets the goal epsilon * ||U|| and runs the skeleton
    search (:func:`_skeleton_search`) once, with <U, U> in the Frobenius norm
    and for ALS.  No r x r term Gram is formed.  The interpolative path
    returns the search's skeleton, with the refit weights read off the
    search's Cholesky factor, whose residual the search reported; ALS fits
    only below it (:func:`_als_reduce`).
    An interpolative search that meets an indefinite Gram falls back to
    ALS, flagged, with no skeleton: the fits start from the pivots found
    before the break, and the s-norm first sums <U, U> for them.  The
    search stops at the skeleton it accepts, so a break can only come
    before it.
    """
    if not isinstance(cfg, ReductionConfig):
        raise TypeError("cfg must be a ReductionConfig")
    frobenius, als = cfg.norm == "frobenius", cfg.algorithm == "als"
    if frobenius and cfg.epsilon < 1e-8:
        warnings.warn(
            "Frobenius-norm reduction below 1e-8 relative tolerance is not "
            "certifiable in double precision; consider norm='snorm'",
            stacklevel=2,
        )
    uu = inner(U, U) if frobenius or als else None
    norm_target = _root(uu) if frobenius else s_norm(U)
    if norm_target <= 1e-300:  # a zero input, rank 0 included
        return _result(U, cfg, cfg.algorithm, 0.0, (0.0, zero_ctd(U.modes)))
    goal = cfg.epsilon * norm_target
    pivots, L, accepted, best, indefinite = _skeleton_search(U, cfg, goal, uu)
    if not (als or indefinite):
        return _result(U, cfg, "id", norm_target, _built(U, L, pivots, accepted),
                       _built(U, L, pivots, best))
    if uu is None:  # the s-norm ID, fallen back to ALS
        uu = inner(U, U)
    skeleton = _built(U, L, pivots, accepted)
    del L  # the Cholesky factor, needed only for the skeleton's weights
    k = None if accepted is None else accepted[1]
    return _result(U, cfg, "als", norm_target,
                   *_als_reduce(U, cfg, uu, goal, pivots, skeleton, k),
                   fallback=not als)
