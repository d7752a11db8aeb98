"""Locating maximum-magnitude entries of a CTD without materializing it.

Two fixed-point iterations drive entry mass toward the largest-|entry|
locations, with a rank reduction after every step to keep the iterate
representable:

* :func:`power_method_max` repeatedly multiplies the iterate entrywise by the
  input tensor, so after k steps the iterate follows U^k; convergence is
  linear in the ratio of the second-largest to largest magnitude.
* :func:`squaring_max` squares the iterate entrywise, so after k steps it
  follows U^(2^k); the magnitude ratio squares each iteration and convergence
  is quadratic.  :func:`iteration_bound` gives the step count needed for a
  target ratio.

Both return a :class:`MaxEntryTrace` recording per-iteration rank, the
convergence estimate lambda, per-term factor-maxima products, and the final
candidate locations with values re-evaluated on the original input.
"""

import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np

from .ctd import eval_entry, frobenius_norm, hadamard, inner, ones_ctd, scale, square
from .reduction import ReductionConfig, reduce

__all__ = [
    "FixedIterations",
    "LambdaStall",
    "RankThreshold",
    "MaxEntrySearchConfig",
    "IterationRecord",
    "Candidate",
    "MaxEntryTrace",
    "DegenerateIterateError",
    "power_method_max",
    "squaring_max",
    "iteration_bound",
    "extract_candidates",
]


class DegenerateIterateError(RuntimeError):
    """Raised when an iterate's norm collapses to zero and no progress is
    possible."""


@dataclass(frozen=True)
class FixedIterations:
    """Run exactly ``n`` iterations (still capped by ``k_max``)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")


@dataclass(frozen=True)
class LambdaStall:
    """Stop when lambda's relative change per iteration falls below delta."""

    delta: float = 1e-4

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class RankThreshold:
    """Stop when the iterate's separation rank falls to ``rank`` or below."""

    rank: int = 1

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")


@dataclass(frozen=True)
class MaxEntrySearchConfig:
    """Settings shared by both search iterations.

    ``reduction=None`` disables the per-step rank reduction entirely (useful
    for convergence studies on small inputs; ranks then grow unchecked).
    """

    reduction: ReductionConfig | None
    termination: object = RankThreshold(1)
    k_max: int = 100
    max_candidates_per_term: int = 1

    def __post_init__(self):
        if self.reduction is not None and not isinstance(self.reduction, ReductionConfig):
            raise TypeError("reduction must be a ReductionConfig or None")
        if not isinstance(self.termination, (FixedIterations, LambdaStall, RankThreshold)):
            raise TypeError("unknown termination rule")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.max_candidates_per_term < 1:
            raise ValueError("max_candidates_per_term must be at least 1")


@dataclass
class IterationRecord:
    k: int
    rank: int
    lam: float
    term_maxima: np.ndarray
    wall_time: float
    reduction_tolerance_met: bool = True


@dataclass
class Candidate:
    index: tuple
    value: float


@dataclass
class MaxEntryTrace:
    """Per-iteration history plus final candidates of one search run.

    ``records[0]`` describes the initial iterate (k=0); its lambda is NaN for
    the power method, whose estimate only exists from the first iteration.
    ``final_iterate`` is the last normalized iterate, the CTD the candidates
    were read from.
    """

    method: str
    records: list = field(default_factory=list)
    candidates: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    final_iterate: object = None

    @property
    def iterations(self):
        return self.records[-1].k if self.records else 0

    @property
    def final_rank(self):
        return self.records[-1].rank if self.records else 0

    def to_csv(self):
        """Iteration table: one row per k, per-term maxima padded to the
        widest rank seen (the layout used for the convergence figures)."""
        width = max((len(rec.term_maxima) for rec in self.records), default=0)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["k", "rank", "lambda"] + [f"term_max_{i + 1}" for i in range(width)]
        )
        for rec in self.records:
            lam = "" if np.isnan(rec.lam) else repr(float(rec.lam))
            row = [rec.k, rec.rank, lam]
            row += [repr(float(v)) for v in rec.term_maxima]
            row += [""] * (width - len(rec.term_maxima))
            writer.writerow(row)
        return buf.getvalue()


def _term_maxima(Y):
    """Per-term products s_l * prod_j max_i |u_j^(l)[i]|.

    An upper bound on each term's largest entry magnitude; exact when the
    per-dimension maxima are attained with consistent signs.
    """
    if Y.rank == 0:
        return np.zeros(0)
    out = np.array(Y.svalues)
    for F in Y.factors:
        out *= np.max(np.abs(F), axis=0)
    return out


def extract_candidates(Y, U, max_per_term=1):
    """Read candidate locations off Y's terms and evaluate them on U.

    For each rank-one term the primary candidate takes the argmax of |column|
    in every dimension.  Additional candidates per term (if requested) flip
    single dimensions to their runner-up position, ordered by how close the
    runner-up magnitude is to the winner.  Duplicates collapse; the result is
    sorted by |value| descending.
    """
    if Y.modes != U.modes:
        raise ValueError(f"shape mismatch: {Y.modes} vs {U.modes}")
    seen = {}
    for l in range(Y.rank):
        cols = [np.abs(F[:, l]) for F in Y.factors]
        primary = tuple(int(np.argmax(c)) for c in cols)
        indices = [primary]
        if max_per_term > 1:
            ratios = []
            for j, c in enumerate(cols):
                if c.shape[0] < 2:
                    continue
                order = np.argsort(-c)
                ratios.append((c[order[1]] / max(c[order[0]], 1e-300), j, int(order[1])))
            ratios.sort(key=lambda t: -t[0])
            for _, j, second in ratios[: max_per_term - 1]:
                alt = list(primary)
                alt[j] = second
                indices.append(tuple(alt))
        for idx in indices:
            if idx not in seen:
                seen[idx] = eval_entry(U, idx)
    cands = [Candidate(idx, val) for idx, val in seen.items()]
    cands.sort(key=lambda c: -abs(c.value))
    return cands


def iteration_bound(a, b, eps):
    """Smallest j such that (b/a)^(2^j) <= eps.

    Requires 0 < b < a and 0 < eps < 1.  This is the squaring-iteration count
    needed to suppress an entry of magnitude b below eps relative to the
    leading magnitude a.
    """
    a, b, eps = float(a), float(b), float(eps)
    if not 0 < b < a:
        raise ValueError("need 0 < b < a")
    if not 0 < eps < 1:
        raise ValueError("need 0 < eps < 1")
    log_ratio = np.log(b) - np.log(a)  # negative
    log_eps = np.log(eps)

    def suppressed(j):
        return (2.0**j) * log_ratio <= log_eps

    j = max(0, int(np.ceil(np.log2(log_eps / log_ratio))))
    while not suppressed(j):
        j += 1
    while j > 0 and suppressed(j - 1):
        j -= 1
    return j


def _apply_reduction(Q, red_cfg):
    if red_cfg is None:
        return Q, True
    res = reduce(Q, red_cfg)
    return res.ctd, res.tolerance_met


def _terminate(rule, k, rank, lam, lam_prev):
    if isinstance(rule, FixedIterations):
        return k >= rule.n
    if isinstance(rule, RankThreshold):
        return rank <= rule.rank
    if lam_prev is None or np.isnan(lam_prev) or lam_prev == 0.0:
        return False
    return abs(lam - lam_prev) < rule.delta * abs(lam_prev)


def _flag_plateau(trace, Y_new, Y_old, k):
    """Mark a first-iteration fixed point (an input with no contrast, such as
    a constant tensor).  Later near-fixed points are left alone: a tie that
    is about to be broken by amplified truncation noise looks stationary for
    many iterations first, and stopping early would hide the eventual collapse."""
    if k == 1 and inner(Y_new, Y_old) >= 1.0 - 1e-13:
        trace.flags.append("degenerate plateau")


def _unit(Y, message):
    """Y scaled to unit Frobenius norm; a collapsed norm raises ``message``."""
    n = frobenius_norm(Y)
    if n <= 1e-300:
        raise DegenerateIterateError(message)
    return scale(Y, 1.0 / n)


def _search(method, U, cfg, Y, lam0, step):
    """The iteration both searches share, from the unit start ``Y`` whose
    lambda is ``lam0``.

    ``step(Y, k)`` returns the unreduced next iterate and, for the power
    method, its lambda; where it returns None, lambda is <Y_k, U> of the
    reduced, normalized iterate.  Every iterate is reduced, normalized and
    recorded, until the termination rule fires or ``k_max`` is used up; the
    latter is flagged as ``"k_max reached"``.  A step holds one unreduced
    iterate at a time: each is released once its reduction returns.
    """
    trace = MaxEntryTrace(method=method)
    t0 = time.perf_counter()
    trace.records.append(IterationRecord(0, Y.rank, lam0, _term_maxima(Y),
                                         time.perf_counter() - t0))
    lam_prev = lam0
    for k in range(1, cfg.k_max + 1):
        t0 = time.perf_counter()
        Q, lam = step(Y, k)
        Y_new, tol_met = _apply_reduction(Q, cfg.reduction)
        # The unreduced iterate is the largest array of a step; without this
        # it would stay alive while the next step builds its successor.
        del Q
        Y_new = _unit(Y_new, f"iterate norm collapsed to zero at iteration {k}")
        if lam is None:
            lam = inner(Y_new, U)
        _flag_plateau(trace, Y_new, Y, k)
        Y = Y_new
        trace.records.append(
            IterationRecord(
                k, Y.rank, lam, _term_maxima(Y), time.perf_counter() - t0, tol_met
            )
        )
        if _terminate(cfg.termination, k, Y.rank, lam, lam_prev):
            break
        lam_prev = lam
    else:
        trace.flags.append("k_max reached")
    trace.final_iterate = Y
    trace.candidates = extract_candidates(Y, U, cfg.max_candidates_per_term)
    return trace


def power_method_max(U, cfg):
    """Entrywise power iteration toward the max-|entry| location.

    Starts from the uniform rank-one tensor with entries prod_j 1/M_j, then
    repeats: multiply by U entrywise, record lambda = <Y, U*Y>, normalize,
    reduce, renormalize.  Linear convergence; candidates are read off the
    final iterate and evaluated on U.
    """
    if U.rank == 0:
        raise ValueError("input tensor is identically zero")

    def step(Y, k):
        Q = hadamard(U, Y)
        lam = inner(Y, Q)
        return _unit(Q, f"product U*Y collapsed to zero at iteration {k}"), lam

    ones = ones_ctd(U.modes)
    Y = scale(ones, 1.0 / frobenius_norm(ones))
    return _search("power", U, cfg, Y, np.nan, step)


def squaring_max(U, cfg):
    """Entrywise squaring iteration toward the max-|entry| location.

    Starts from U / ||U||_F and repeats: square entrywise, reduce,
    normalize.  The square of a rank-r iterate keeps one term per unordered
    pair of its terms, r (r + 1) / 2 in all (:func:`~ctdopt.ctd.square`),
    not the r^2 of a Hadamard product with itself, so the reduction never
    sees duplicate off-diagonal products.  After k steps the iterate
    follows U^(2^k), so the second-to-first magnitude ratio squares every
    iteration.  The convergence estimate is lambda_k = <Y_k, U>, which
    starts at ||U||_F and decreases toward the leading entry's magnitude.
    """
    if U.rank == 0:
        raise ValueError("input tensor is identically zero")
    Y = _unit(U, "input tensor has zero Frobenius norm")
    return _search("squaring", U, cfg, Y, inner(Y, U), lambda Y, k: (square(Y), None))
