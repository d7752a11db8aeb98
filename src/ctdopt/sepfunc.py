"""Separated representations of smooth functions and grid-based maximization.

A separated representation writes a multivariate function as a short sum of
products of univariate factors, the continuous counterpart of a CTD.  This
module provides:

* the Gaussian expansion of a radial exponential exp(-beta*x), turning the
  non-separable radial term of Ackley's function into a sum of separable
  Gaussians, with a certified sup-norm error bound;
* adaptive per-dimension grids (dense geometric sampling near the origin for
  the Gaussians, uniform oversampling for the oscillatory factor) and their
  merge;
* sampling a separated function onto a grid as a CTD, so the discrete
  max-entry search can locate the function's near-maximum;
* compass search for derivative-free local refinement, and
  :func:`optimize_function` chaining all stages.

Functions with mixed-sign values should be shifted positive before sampling:
the entry search targets largest magnitude, not largest value.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .ctd import eval_entry
from .ctd import _normalized as _normalized_ctd
from .maxentry import _apply_reduction, squaring_max

__all__ = [
    "AckleyParams",
    "ExpansionError",
    "GaussianExpansion",
    "Grid",
    "OptimizationReport",
    "SeparatedFunction",
    "ackley_eval",
    "ackley_gradient",
    "ackley_separated",
    "build_cosine_grid",
    "build_gaussian_expansion",
    "build_radial_grid",
    "certify_expansion",
    "compass_search",
    "index_to_point",
    "merge_grids",
    "optimize_function",
    "sample_to_ctd",
]


class ExpansionError(RuntimeError):
    """Raised when no certified Gaussian expansion exists within budget."""


@dataclass(frozen=True)
class AckleyParams:
    """Parameters of the (maximization form of the) Ackley test function."""

    d: int = 10
    a: float = 20.0
    b: float = 0.2
    c: float = 2.0 * math.pi

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if not (self.a > 0 and self.b >= 0 and self.c > 0):
            raise ValueError("a and c must be positive, b non-negative")


def ackley_eval(p, x):
    """Evaluate a*exp(-b*sqrt(mean(x^2))) + exp(mean(cos(c*x))).

    The global maximum sits at the origin with value a + e.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (p.d,):
        raise ValueError(f"expected a point of dimension {p.d}, got shape {x.shape}")
    radial = p.a * np.exp(-p.b * np.sqrt(np.mean(x * x)))
    return float(radial + np.exp(np.mean(np.cos(p.c * x))))


def ackley_gradient(p, x):
    """Analytic gradient of :func:`ackley_eval` away from the origin.

    The radial term forms a cone at 0 where its gradient is undefined; there
    the cosine part alone is returned (a valid subgradient choice).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (p.d,):
        raise ValueError(f"expected a point of dimension {p.d}, got shape {x.shape}")
    rho = np.sqrt(np.mean(x * x))
    cos_part = np.exp(np.mean(np.cos(p.c * x)))
    grad = cos_part * (-p.c * np.sin(p.c * x) / p.d)
    if rho > 0.0:
        grad = grad + p.a * np.exp(-p.b * rho) * (-p.b) * x / (p.d * rho)
    return grad


@dataclass(frozen=True)
class GaussianExpansion:
    """Sum of Gaussians approximating exp(-(b/sqrt(d))*x) on [delta, x_max].

    Nodes are s_j = s_start + j*h for j = 0..R; the j-th term is
    w_j * exp(-x^2 * e^{s_j}) with weight
    w_j = (h*b / (2*sqrt(pi*d))) * exp(-(b^2/(4d)) * e^{-s_j} - s_j/2),
    the trapezoid discretization of the subordinator integral representation
    of the radial exponential.
    """

    h: float
    s_start: float
    R: int
    b: float
    d: int
    eps: float
    delta: float
    x_max: float

    def __post_init__(self):
        if self.R < 0:
            raise ValueError("R must be non-negative")
        if not self.h > 0:
            raise ValueError("h must be positive")
        if not 0 < self.delta < self.x_max:
            raise ValueError("need 0 < delta < x_max")

    @property
    def terms(self):
        return self.R + 1

    @property
    def nodes(self):
        return self.s_start + self.h * np.arange(self.R + 1)

    @property
    def weights(self):
        return self.h * _weight_density(self.nodes, self.b, self.d)

    def value(self, x):
        """Evaluate the expansion at x (scalar or array)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for sj, wj in zip(self.nodes, self.weights):
            out += wj * np.exp(-(x * x) * np.exp(sj))
        return out

    def target(self, x):
        """The radial exponential exp(-(b/sqrt(d))*x) being approximated."""
        x = np.asarray(x, dtype=float)
        return np.exp(-(self.b / np.sqrt(self.d)) * x)


def certify_expansion(g, probes):
    """Measured sup-error of the expansion against its target on a probe set."""
    probes = np.asarray(probes, dtype=float)
    return float(np.max(np.abs(g.value(probes) - g.target(probes))))


def _certification_probes(delta, x_max, n=100_000):
    return np.geomspace(delta, x_max, n)


def _weight_density(s, b, d):
    # per-unit-s weight; a node's weight is h times this at the node
    return (b / (2.0 * np.sqrt(np.pi * d))) * np.exp(
        -(b * b / (4.0 * d)) * np.exp(-s) - s / 2.0
    )


def build_gaussian_expansion(b, d, eps, delta, x_max, max_terms=10_000):
    """Search for a certified expansion: halve the step, extend the node range.

    For each step h the node range [s_start, s_start + R*h] grows outward from
    0 until marginal terms contribute less than eps/100 anywhere on the
    domain: upward (sharp Gaussians) the contribution is damped by
    exp(-delta^2 e^s) since sharp terms only matter near the inner cutoff,
    downward (wide Gaussians) the weight itself is the bound.  The candidate
    is then certified on 10^5 log-spaced probes; on failure h is halved.

    Raises :class:`ExpansionError` when the term budget or a step-size floor
    is exceeded.
    """
    return _certified_expansion(b, d, eps, delta, x_max, max_terms)[0]


def _certified_expansion(b, d, eps, delta, x_max, max_terms=10_000):
    """(g, err): the expansion g :func:`build_gaussian_expansion` returns and
    its sup-error err on the 10^5 probes that certified it."""
    if not (b > 0 and d >= 1):
        raise ValueError("need b > 0 and d >= 1")
    if not (0 < eps < 1):
        raise ValueError("need 0 < eps < 1")
    if not 0 < delta < x_max:
        raise ValueError("need 0 < delta < x_max")
    probes = _certification_probes(delta, x_max)
    h = 1.0
    for _ in range(16):
        threshold = 0.01 * eps
        lo = hi = 0.0
        while (
            h * _weight_density(hi + h, b, d) * np.exp(-(delta**2) * np.exp(hi + h))
            >= threshold
        ):
            hi += h
            if (hi - lo) / h > max_terms:
                raise ExpansionError(f"term budget {max_terms} exceeded at h={h}")
        while h * _weight_density(lo - h, b, d) >= threshold:
            lo -= h
            if (hi - lo) / h > max_terms:
                raise ExpansionError(f"term budget {max_terms} exceeded at h={h}")
        g = GaussianExpansion(
            h=h, s_start=lo, R=int(round((hi - lo) / h)), b=b, d=d,
            eps=eps, delta=delta, x_max=x_max,
        )
        err = certify_expansion(g, probes)
        if err <= eps:
            return g, err
        h /= 2.0
    raise ExpansionError("no certified expansion before step-size floor 2^-16")


@dataclass
class SeparatedFunction:
    """Sum over terms l of svalues[l] * prod_j evaluators[j][l](x_j).

    ``evaluators`` is dimension-major, mirroring CTD factor layout:
    ``evaluators[j][l]`` is the univariate factor of term l in dimension j
    and must accept numpy arrays.  ``box`` lists per-dimension (lo, hi).
    """

    svalues: np.ndarray
    evaluators: list
    box: list

    def __post_init__(self):
        self.svalues = np.asarray(self.svalues, dtype=float)
        if self.svalues.ndim != 1:
            raise ValueError("svalues must be a vector")
        r = self.svalues.shape[0]
        if len(self.evaluators) == 0:
            raise ValueError("need at least one dimension")
        for evs in self.evaluators:
            if len(evs) != r:
                raise ValueError("every dimension needs one evaluator per term")
        if len(self.box) != len(self.evaluators):
            raise ValueError("box must list one (lo, hi) pair per dimension")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError("box bounds must satisfy lo < hi")

    @property
    def rank(self):
        return self.svalues.shape[0]

    @property
    def ndim(self):
        return len(self.evaluators)

    def value(self, x):
        """Evaluate at one point (sequence of ndim coordinates)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ndim,):
            raise ValueError(f"expected {self.ndim} coordinates, got shape {x.shape}")
        total = 0.0
        for l in range(self.rank):
            term = self.svalues[l]
            for j in range(self.ndim):
                term *= float(self.evaluators[j][l](x[j]))
            total += term
        return float(total)


def ackley_separated(p, g, box=(-1.0, 1.0)):
    """Separated form of Ackley: expansion terms plus one cosine-product term.

    Term j < terms carries weight a*w_j with factors exp(-x^2 e^{s_j}) in
    every dimension; the last term has weight 1 and factors
    exp(cos(c*x)/d), the exact factorization of the oscillatory part.  The
    result approximates :func:`ackley_eval` within a*eps wherever
    sqrt(sum x_i^2) lies in the expansion's certified interval.
    """
    if g.d != p.d or g.b != p.b:
        raise ValueError("expansion was built for different (b, d) parameters")

    def gaussian_factor(sj):
        e = math.exp(sj)
        return lambda t: np.exp(-(np.asarray(t, dtype=float) ** 2) * e)

    def cosine_factor(t):
        return np.exp(np.cos(p.c * np.asarray(t, dtype=float)) / p.d)

    svalues = np.concatenate([p.a * g.weights, [1.0]])
    per_dim = [gaussian_factor(sj) for sj in g.nodes] + [cosine_factor]
    evaluators = [list(per_dim) for _ in range(p.d)]
    return SeparatedFunction(svalues, evaluators, [tuple(box)] * p.d)


_CANONICAL_GAUSS_POINTS = 10
_CANONICAL_GAUSS_RADIUS = 3.0


def build_radial_grid(g, points_per_gaussian=_CANONICAL_GAUSS_POINTS):
    """Coordinates sampling every Gaussian of the expansion at its own scale.

    The canonical stencil is ``points_per_gaussian`` equally spaced points on
    [-3, 3] (covering exp(-x^2) down to 1.2e-4), scaled by e^{-s_j/2} so each
    Gaussian exp(-x^2 e^{s_j}) is sampled identically.  Batches are laid down
    sharpest Gaussian first; each later (wider) batch keeps only points
    strictly outside the radius already covered, so the result is a symmetric
    geometrically-graded point set, dense near 0.
    """
    if points_per_gaussian < 2:
        raise ValueError("need at least 2 points per Gaussian")
    canonical = np.linspace(
        -_CANONICAL_GAUSS_RADIUS, _CANONICAL_GAUSS_RADIUS, points_per_gaussian
    )
    covered = 0.0
    kept = []
    for sj in sorted(g.nodes, reverse=True):
        batch = canonical * math.exp(-sj / 2.0)
        outside = batch[np.abs(batch) > covered]
        if outside.size:
            kept.append(outside)
            covered = float(np.max(np.abs(outside)))
    coords = np.unique(np.concatenate(kept))
    return coords


def build_cosine_grid(c, box=(-1.0, 1.0), samples_per_oscillation=16):
    """Uniform grid with ``samples_per_oscillation`` points per cosine period.

    Anchored at 0: points are integer multiples of the spacing that fall
    inside the box, so the grid contains 0 whenever the box does.
    """
    if samples_per_oscillation < 2:
        raise ValueError("need at least 2 samples per oscillation")
    lo, hi = box
    if not lo < hi:
        raise ValueError("box bounds must satisfy lo < hi")
    spacing = (2.0 * np.pi / c) / samples_per_oscillation
    k_lo = math.ceil(lo / spacing - 1e-12)
    k_hi = math.floor(hi / spacing + 1e-12)
    return spacing * np.arange(k_lo, k_hi + 1)


def merge_grids(radial, cosine):
    """Radial points inside the crossover radius, cosine points outside.

    The crossover is the last radius at which the radial grid's local spacing
    is still no coarser than the cosine spacing; beyond it the radial batches
    grow geometrically sparse and the uniform cosine grid takes over.  The
    merged coordinates are deduplicated within 1e-12 and clipped to the
    cosine grid's span (the box).
    """
    radial = np.asarray(radial, dtype=float)
    cosine = np.asarray(cosine, dtype=float)
    if cosine.size < 2:
        raise ValueError("cosine grid needs at least 2 points")
    spacing = float(cosine[1] - cosine[0])
    pos = np.sort(np.unique(np.abs(radial)))
    pos = pos[pos > 0]
    crossover = 0.0
    for i in range(pos.size):
        gap = pos[i] - (pos[i - 1] if i > 0 else 0.0)
        if gap > spacing:
            break
        crossover = pos[i]
    lo, hi = float(cosine[0]), float(cosine[-1])
    if crossover == 0.0:
        inner = radial[:0]
        outer = cosine
    else:
        inner = radial[(np.abs(radial) <= crossover) & (radial >= lo) & (radial <= hi)]
        outer = cosine[np.abs(cosine) > crossover]
    merged = np.sort(np.concatenate([inner, outer]))
    if merged.size == 0:
        return merged
    keep = np.ones(merged.size, dtype=bool)
    keep[1:] = np.diff(merged) > 1e-12
    return merged[keep]


@dataclass
class Grid:
    """Per-dimension strictly increasing coordinate arrays with box bounds."""

    coords: list
    box: list

    def __post_init__(self):
        if len(self.coords) == 0:
            raise ValueError("need at least one dimension")
        if len(self.box) != len(self.coords):
            raise ValueError("box must list one (lo, hi) pair per dimension")
        self.coords = [np.asarray(c, dtype=float) for c in self.coords]
        for c, (lo, hi) in zip(self.coords, self.box):
            if c.ndim != 1 or c.size == 0:
                raise ValueError("each dimension needs a non-empty coordinate vector")
            if np.any(np.diff(c) <= 0):
                raise ValueError("coordinates must be strictly increasing")
            if c[0] < lo or c[-1] > hi:
                raise ValueError("coordinates must lie within the box")

    @property
    def ndim(self):
        return len(self.coords)

    @property
    def modes(self):
        return tuple(c.size for c in self.coords)

    @classmethod
    def uniform_product(cls, coords, d, box1d):
        """The same 1-D coordinate set replicated over d dimensions."""
        return cls([np.asarray(coords, dtype=float)] * d, [tuple(box1d)] * d)

    def to_json_dict(self):
        return {
            "box": [[float(lo), float(hi)] for lo, hi in self.box],
            "coords": [[float(v) for v in c] for c in self.coords],
        }


def sample_to_ctd(f, grid):
    """Tabulate each univariate factor on its grid, producing a CTD.

    Rank is preserved term for term; factor columns are the evaluator values
    at the grid coordinates, renormalized into the s-values by the CTD
    constructor.  Entry (i_1..i_d) of the result equals f at the corresponding
    grid point.
    """
    if grid.ndim != f.ndim:
        raise ValueError(f"grid has {grid.ndim} dimensions, function has {f.ndim}")
    factors = []
    for j in range(f.ndim):
        cols = [np.asarray(ev(grid.coords[j]), dtype=float) for ev in f.evaluators[j]]
        factors.append(np.column_stack(cols))
    return _normalized_ctd(f.svalues.copy(), factors)


def index_to_point(grid, index):
    """Grid coordinates of a multi-index."""
    if len(index) != grid.ndim:
        raise ValueError(f"index has {len(index)} entries, grid has {grid.ndim}")
    out = np.empty(grid.ndim)
    for j, i in enumerate(index):
        i = int(i)
        if not 0 <= i < grid.coords[j].size:
            raise IndexError(f"index {i} out of range for dimension {j}")
        out[j] = grid.coords[j][i]
    return out


def compass_search(f, x0, step0, shrink=0.5, tol=1e-8, max_steps=100_000):
    """Derivative-free coordinate search maximizing f.

    Probes x ± step*e_j in cyclic dimension order, accepts the first
    improvement and restarts the cycle; when no direction improves, the step
    shrinks by ``shrink``.  Stops when the step drops below ``tol`` (or at
    ``max_steps`` evaluations as a safety valve).  Accepted values are
    non-decreasing by construction; returns (point, value).
    """
    if not 0 < shrink < 1:
        raise ValueError("shrink must be in (0, 1)")
    if not 0 < tol <= step0:
        raise ValueError("need 0 < tol <= step0")
    x = np.array(x0, dtype=float)
    best = float(f(x))
    step = float(step0)
    evals = 0
    while step >= tol and evals < max_steps:
        improved = False
        for j in range(x.size):
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[j] += sign * step
                val = float(f(trial))
                evals += 1
                if val > best:
                    x, best = trial, val
                    improved = True
                    break
            if improved:
                break
        if not improved:
            step *= shrink
    return x, best


@dataclass
class OptimizationReport:
    """Everything the grid-based maximization pipeline produced."""

    sampled_rank: int
    reduced_rank: int
    initial_reduction_tolerance_met: bool
    trace: object
    candidates: list = field(default_factory=list)
    tensor_index: tuple = ()
    tensor_point: np.ndarray = None
    tensor_value: float = np.nan
    refined_point: np.ndarray = None
    refined_value: float = np.nan

    @property
    def squaring_iterations(self):
        return self.trace.iterations

    def to_json_dict(self):
        return {
            "sampled_rank": self.sampled_rank,
            "reduced_rank": self.reduced_rank,
            "initial_reduction_tolerance_met": self.initial_reduction_tolerance_met,
            "squaring_iterations": self.squaring_iterations,
            "candidates": [
                {"index": [i + 1 for i in idx], "value": val}
                for idx, val in self.candidates
            ],
            "tensor_index": [i + 1 for i in self.tensor_index],
            "tensor_point": [float(v) for v in self.tensor_point],
            "tensor_value": self.tensor_value,
            "refined_point": [float(v) for v in self.refined_point],
            "refined_value": self.refined_value,
            "search_flags": list(self.trace.flags),
        }


def _coarsest_spacing(grid):
    return max(float(np.max(np.diff(c))) if c.size > 1 else 0.0 for c in grid.coords)


def optimize_function(f, grid, search, exact=None):
    """Locate the maximum of a separated function via its sampled CTD.

    Pipeline: sample onto the grid, reduce the sampled CTD with the search's
    own reduction config (if any), run the squaring search, re-evaluate its
    candidate locations on the unreduced sampled CTD, map the best index to
    coordinates, and polish with compass search on ``exact`` (the true
    objective; defaults to f itself) down to a step of 1e-8.  The compass
    search starts from the coarsest grid spacing, so the continuous maximum
    near the winning grid point stays within its first reach.
    """
    U0 = sample_to_ctd(f, grid)
    U, tol_met = _apply_reduction(U0, search.reduction)
    trace = squaring_max(U, search)

    rescored = [(c.index, eval_entry(U0, c.index)) for c in trace.candidates]
    rescored.sort(key=lambda t: -abs(t[1]))
    best_idx, best_val = rescored[0]
    point = index_to_point(grid, best_idx)

    objective = exact if exact is not None else f.value
    refined_point, refined_value = compass_search(
        objective, point, _coarsest_spacing(grid), tol=1e-8
    )
    return OptimizationReport(
        sampled_rank=U0.rank,
        reduced_rank=U.rank,
        initial_reduction_tolerance_met=tol_met,
        trace=trace,
        candidates=rescored,
        tensor_index=best_idx,
        tensor_point=point,
        tensor_value=best_val,
        refined_point=refined_point,
        refined_value=refined_value,
    )
