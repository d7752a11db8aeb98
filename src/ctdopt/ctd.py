"""Canonical tensor decompositions and their multilinear algebra.

A canonical tensor decomposition (CTD) represents a d-dimensional tensor as a
sum of rank-one outer products,

    U(i_1, ..., i_d) = sum_l  s_l * u_1^(l)[i_1] * ... * u_d^(l)[i_d],

with strictly positive weights ``s_l`` (s-values) and factor columns of unit
Euclidean norm.  Signs live in the factor columns, never in the s-values.
Everything here works directly on the factored representation; dense arrays
only appear through :func:`to_dense`, which is guarded by an entry-count cap
and exists for oracles and small-problem checks.
"""

import json

import numpy as np

__all__ = [
    "CTD",
    "eval_entry",
    "eval_entries",
    "inner",
    "frobenius_norm",
    "hadamard",
    "square",
    "add",
    "scale",
    "renormalize",
    "to_dense",
    "zero_ctd",
    "ones_ctd",
    "random_ctd",
    "spike_ctd",
    "to_json",
    "from_json",
    "save_ctd",
    "load_ctd",
]

# Columns whose norm falls below this are treated as numerically zero and the
# whole term is dropped during renormalization.
_DROP_THRESHOLD = 1e-300

# Unit-norm validation slack for factor columns.
_COLUMN_NORM_TOL = 1e-12

# to_dense refuses to materialize more entries than this.
_DENSE_GUARD = 10**7


class CTD:
    """A tensor in canonical (separated) form.

    Parameters
    ----------
    svalues : array_like, shape (r,)
        Strictly positive weights, one per rank-one term.
    factors : sequence of ndarray
        One matrix per dimension; ``factors[j]`` has shape ``(M_j, r)`` and
        every column has unit Euclidean norm.
    validate : bool
        Check the invariants above, and that every s-value and factor entry
        is finite, on construction.  Internal callers that guarantee them
        pass False.

    Notes
    -----
    Instances are immutable: the stored arrays are marked read-only.  The
    rank-zero tensor (empty ``svalues``) is the canonical zero.
    """

    __slots__ = ("svalues", "factors")

    def __init__(self, svalues, factors, validate=True):
        svalues = np.ascontiguousarray(svalues, dtype=float)
        factors = [np.ascontiguousarray(F, dtype=float) for F in factors]
        if validate:
            if svalues.ndim != 1:
                raise ValueError("svalues must be a 1-D array")
            if not factors:
                raise ValueError("need at least one dimension")
            r = svalues.shape[0]
            # NaN compares False, so the norm and sign checks below would
            # let it through.
            if not np.all(np.isfinite(svalues)):
                raise ValueError("s-values must be finite")
            for j, F in enumerate(factors):
                if F.ndim != 2 or F.shape[1] != r:
                    raise ValueError(
                        f"factor {j} has shape {F.shape}, expected (M_{j}, {r})"
                    )
                if F.shape[0] < 1:
                    raise ValueError(f"dimension {j} has zero mode size")
                if not np.all(np.isfinite(F)):
                    raise ValueError(f"factor {j} has non-finite entries")
                if r:
                    norms = np.linalg.norm(F, axis=0)
                    if np.max(np.abs(norms - 1.0)) > _COLUMN_NORM_TOL:
                        raise ValueError(
                            f"factor {j} columns are not unit-norm "
                            f"(max deviation {np.max(np.abs(norms - 1.0)):.3e})"
                        )
            if r and np.min(svalues) <= 0.0:
                raise ValueError("s-values must be strictly positive")
        for arr in (svalues, *factors):
            arr.flags.writeable = False
        object.__setattr__(self, "svalues", svalues)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("CTD instances are immutable")

    @property
    def ndim(self):
        return len(self.factors)

    @property
    def modes(self):
        return tuple(F.shape[0] for F in self.factors)

    @property
    def rank(self):
        return self.svalues.shape[0]

    def __repr__(self):
        return f"CTD(ndim={self.ndim}, modes={self.modes}, rank={self.rank})"


def _check_same_shape(U, V):
    if U.modes != V.modes:
        raise ValueError(f"shape mismatch: {U.modes} vs {V.modes}")


def _check_index(U, index):
    index = tuple(int(i) for i in index)
    if len(index) != U.ndim:
        raise IndexError(f"index has {len(index)} entries, tensor has {U.ndim} dims")
    for j, (i, M) in enumerate(zip(index, U.modes)):
        if not 0 <= i < M:
            raise IndexError(f"index {i} out of range for dimension {j} (size {M})")
    return index


def _normalized(svalues, factors):
    """Build a canonical CTD from possibly signed s-values and raw columns.

    Column norms are folded into the s-values, a negative resulting weight has
    its sign absorbed into the first-dimension column, and terms whose weight
    or column norm underflows ``1e-300`` are dropped.  ``factors`` may be any
    iterable; given a generator of fresh arrays, each is released once it is
    divided, so no two copies of all the factors are alive at once.
    """
    svalues = np.asarray(svalues, dtype=float).copy()
    r = svalues.shape[0]
    if r == 0:
        return CTD(svalues, [np.array(F, dtype=float) for F in factors], validate=False)
    keep = np.abs(svalues) > _DROP_THRESHOLD
    total = np.abs(svalues)
    unit = []
    for F in factors:
        # Not copied: each factor is divided into a new array below.
        F = np.asarray(F, dtype=float)
        norms = np.linalg.norm(F, axis=0)
        keep &= norms > _DROP_THRESHOLD
        safe = np.where(norms > _DROP_THRESHOLD, norms, 1.0)
        unit.append(F / safe)
        total = total * norms
    keep &= total > _DROP_THRESHOLD
    neg = svalues < 0
    if np.any(neg):
        unit[0] = unit[0].copy()
        unit[0][:, neg] *= -1.0
    if not np.all(keep):
        total = total[keep]
        unit = [F[:, keep] for F in unit]
    return CTD(total if len(total) else np.zeros(0), unit, validate=False)


def eval_entry(U, index):
    """Evaluate a single tensor entry.

    Parameters
    ----------
    U : CTD
    index : sequence of int
        0-based multi-index, one entry per dimension.

    Returns
    -------
    float
    """
    index = _check_index(U, index)
    if U.rank == 0:
        return 0.0
    prod = np.ones(U.rank)
    for j, i in enumerate(index):
        prod *= U.factors[j][i, :]
    return float(np.dot(U.svalues, prod))


def eval_entries(U, indices):
    """Evaluate many entries at once.

    Parameters
    ----------
    U : CTD
    indices : ndarray, shape (n, d)
        0-based multi-indices, one row per entry.

    Returns
    -------
    ndarray, shape (n,)
    """
    indices = np.asarray(indices, dtype=int)
    if indices.ndim != 2 or indices.shape[1] != U.ndim:
        raise IndexError(f"indices must have shape (n, {U.ndim})")
    for j, M in enumerate(U.modes):
        col = indices[:, j]
        if col.size and (col.min() < 0 or col.max() >= M):
            raise IndexError(f"index out of range for dimension {j} (size {M})")
    if U.rank == 0:
        return np.zeros(indices.shape[0])
    prod = np.ones((indices.shape[0], U.rank))
    for j in range(U.ndim):
        prod *= U.factors[j][indices[:, j], :]
    return prod @ U.svalues


def inner(U, V):
    """Frobenius inner product <U, V> computed from the factored forms.

    Cost is O(r_u * r_v * sum_j M_j): one cross-Gram matrix per dimension,
    combined by an elementwise (Hadamard) product over dimensions.
    """
    _check_same_shape(U, V)
    if U.rank == 0 or V.rank == 0:
        return 0.0
    return float(U.svalues @ _cross_gram(U, V) @ V.svalues)


def _cross_gram(U, V):
    """The r_u x r_v matrix of unweighted term inner products
    prod_j <u_j^(a), v_j^(b)>: one cross-Gram per dimension, multiplied
    elementwise in dimension order.  :func:`inner` weights it by the
    s-values."""
    G = np.ones((U.rank, V.rank))
    for Fu, Fv in zip(U.factors, V.factors):
        G *= Fu.T @ Fv
    return G


def frobenius_norm(U):
    """Frobenius norm of the represented tensor.

    Computed as sqrt(<U, U>); the inner product is clamped at zero because
    cancellation between terms can drive it slightly negative in floating
    point.
    """
    return float(np.sqrt(max(inner(U, U), 0.0)))


def hadamard(U, V, max_rank=None):
    """Entrywise (Hadamard) product of two CTDs.

    The result has one term per ordered pair of input terms, in l-major order
    (all pairs of U's first term before U's second), with rank r_u * r_v.
    Columns of pointwise products are renormalized so the result is canonical.

    Parameters
    ----------
    U, V : CTD
    max_rank : int, optional
        Capacity guard; a product rank above this raises ValueError before any
        work is done.
    """
    _check_same_shape(U, V)
    r = U.rank * V.rank
    if max_rank is not None and r > max_rank:
        raise ValueError(
            f"hadamard product rank {U.rank}*{V.rank}={r} exceeds max_rank={max_rank}"
        )
    if r == 0:
        return zero_ctd(U.modes)
    svalues = np.outer(U.svalues, V.svalues).ravel()
    factors = []
    for Fu, Fv in zip(U.factors, V.factors):
        M = Fu.shape[0]
        prod = np.einsum("il,im->ilm", Fu, Fv).reshape(M, r)
        factors.append(prod)
    return _normalized(svalues, factors)


def square(U):
    """Entrywise square U * U with one term per unordered pair of terms.

    The pair a <= b gets weight s_a * s_b, doubled when a != b, so the result
    has rank r (r + 1) / 2 where ``hadamard(U, U)`` has r^2: the off-diagonal
    products appear once instead of twice.  Terms are in ``np.triu_indices``
    order (all pairs of U's first term before U's second), and the result is
    canonical.

    All pairs but the last, (r - 1, r - 1), are gathered in one pass and
    normalized together, as :func:`_normalized` does; the last is
    ``hadamard`` of term r - 1 with itself.  The result is bit for bit what
    building row a, the pairs (a, a), ..., (a, r - 1), as ``hadamard(term
    a, terms a.. with the weights past the first doubled)`` would give:
    NumPy sums the column norms of a C-ordered array with two or more
    columns row by row, as it does each of those rows, but those of a
    single column pairwise, as it does the last row.

    Each dimension's output array is allocated once, and the pair products
    are formed, normalized and followed by the last pair's column in place,
    so the peak memory is the output plus one scratch array of the largest
    mode size by the number of pairs.  The gathers go through that scratch
    because ``take`` copies into a temporary when its ``out`` is not
    C-contiguous, as the output's leading columns are not.
    """
    r = U.rank
    if r == 0:
        return zero_ctd(U.modes)
    last = CTD(U.svalues[r - 1:], [F[:, r - 1:] for F in U.factors], validate=False)
    tail = hadamard(last, last)
    if r == 1:
        return tail
    ia, ib = np.triu_indices(r)
    ia, ib = ia[:-1], ib[:-1]
    n = len(ia)
    s = U.svalues
    weights = s[ia] * (s[ib] * np.where(ia == ib, 1.0, 2.0))
    total = np.abs(weights)
    keep = total > _DROP_THRESHOLD
    scratch = np.empty((max(U.modes), n))
    factors = []
    for F, T in zip(U.factors, tail.factors):
        out = np.empty((F.shape[0], n + tail.rank))
        body, buf = out[:, :n], scratch[:F.shape[0]]
        body[...] = F.take(ia, axis=1, out=buf, mode="clip")
        body *= F.take(ib, axis=1, out=buf, mode="clip")
        # np.linalg.norm(body, axis=0), without its two temporaries
        norms = np.sqrt(np.add.reduce(np.multiply(body, body, out=buf), axis=0))
        keep &= norms > _DROP_THRESHOLD
        body /= np.where(norms > _DROP_THRESHOLD, norms, 1.0)
        total = total * norms
        out[:, n:] = T
        factors.append(out)
    keep &= total > _DROP_THRESHOLD
    neg = weights < 0
    if np.any(neg):
        factors[0][:, np.flatnonzero(neg)] *= -1.0
    if not np.all(keep):
        cols = np.concatenate([np.flatnonzero(keep), np.arange(n, n + tail.rank)])
        factors = [F[:, cols] for F in factors]
        total = total[keep]
    return CTD(np.concatenate([total, tail.svalues]), factors, validate=False)


def add(U, V):
    """Sum of two CTDs by term concatenation; rank adds, no reduction."""
    _check_same_shape(U, V)
    if U.rank == 0:
        return V
    if V.rank == 0:
        return U
    svalues = np.concatenate([U.svalues, V.svalues])
    factors = [np.hstack([Fu, Fv]) for Fu, Fv in zip(U.factors, V.factors)]
    return CTD(svalues, factors, validate=False)


def scale(U, c):
    """Scale by a real number.

    ``|c|`` multiplies the s-values; a negative sign is absorbed into the
    first-dimension factor columns.  Scaling by zero gives the rank-0 tensor.
    """
    c = float(c)
    if c == 0.0 or U.rank == 0:
        return zero_ctd(U.modes)
    svalues = U.svalues * abs(c)
    factors = list(U.factors)
    if c < 0:
        factors[0] = -factors[0]
    return CTD(svalues, factors, validate=False)


def renormalize(U):
    """Restore the canonical normalization (unit columns, positive s-values).

    For an already-canonical CTD this is an exact no-op up to roundoff; it is
    also the entry point for internal builders that carry raw columns.
    """
    return _normalized(U.svalues, U.factors)


def to_dense(U):
    """Materialize the full tensor as a dense ndarray.

    Refuses shapes with more than 1e7 entries; this exists for oracles and
    small-problem verification, not as a computational path.
    """
    n_entries = 1
    for M in U.modes:
        n_entries *= M
    if n_entries > _DENSE_GUARD:
        raise ValueError(
            f"dense materialization of {U.modes} would need {n_entries} entries "
            f"(guard: {_DENSE_GUARD})"
        )
    dense = np.zeros(U.modes)
    for l in range(U.rank):
        term = np.array(U.svalues[l])
        for j in range(U.ndim):
            term = np.multiply.outer(term, U.factors[j][:, l])
        dense += term
    return dense


def zero_ctd(modes):
    """The rank-0 (identically zero) tensor on the given mode sizes."""
    modes = tuple(int(M) for M in modes)
    if not modes or min(modes) < 1:
        raise ValueError(f"invalid modes {modes}")
    return CTD(np.zeros(0), [np.zeros((M, 0)) for M in modes], validate=False)


def ones_ctd(modes):
    """Rank-1 tensor with every entry equal to 1."""
    modes = tuple(int(M) for M in modes)
    if not modes or min(modes) < 1:
        raise ValueError(f"invalid modes {modes}")
    svalue = 1.0
    factors = []
    for M in modes:
        factors.append(np.full((M, 1), 1.0 / np.sqrt(M)))
        svalue *= np.sqrt(M)
    return CTD(np.array([svalue]), factors, validate=False)


def random_ctd(modes, rank, low=0.9, high=1.0, rng=None):
    """Random CTD with factor entries drawn uniform on [low, high).

    Raw s-values are 1 before normalization, so the returned s-values are the
    products of the raw column norms.  ``rng`` may be a seed or a Generator.
    """
    rng = np.random.default_rng(rng)
    modes = tuple(int(M) for M in modes)
    rank = int(rank)
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    if rank == 0:
        return zero_ctd(modes)
    factors = [rng.uniform(low, high, size=(M, rank)) for M in modes]
    return _normalized(np.ones(rank), factors)


def spike_ctd(modes, loc, magnitude):
    """Rank-1 tensor with a single nonzero entry.

    ``U[loc] == magnitude``; all other entries are 0.  A zero magnitude gives
    the rank-0 tensor.
    """
    modes = tuple(int(M) for M in modes)
    if len(loc) != len(modes):
        raise IndexError(f"location has {len(loc)} entries, expected {len(modes)}")
    for j, (i, M) in enumerate(zip(loc, modes)):
        if not 0 <= int(i) < M:
            raise IndexError(f"location {i} out of range for dimension {j}")
    factors = []
    for i, M in zip(loc, modes):
        col = np.zeros((M, 1))
        col[int(i), 0] = 1.0
        factors.append(col)
    return _normalized(np.array([float(magnitude)]), factors)


def _fmt(x):
    """17-significant-digit decimal rendering; exact double round trip."""
    return format(float(x), ".17g")


def to_json(U):
    """Serialize to the interchange JSON format.

    Reals carry 17 significant digits; each factor matrix is stored as a flat
    column-major array.
    """
    parts = ['{"dims": %d, "modes": [%s], ' % (U.ndim, ", ".join(str(M) for M in U.modes))]
    parts.append('"svalues": [%s], ' % ", ".join(_fmt(s) for s in U.svalues))
    facs = []
    for F in U.factors:
        flat = F.ravel(order="F")
        facs.append("[%s]" % ", ".join(_fmt(v) for v in flat))
    parts.append('"factors": [%s]}' % ", ".join(facs))
    return "".join(parts)


def from_json(text):
    """Parse the interchange JSON format back into a validated CTD."""
    doc = json.loads(text)
    for key in ("dims", "modes", "svalues", "factors"):
        if key not in doc:
            raise ValueError(f"missing field {key!r}")
    d = int(doc["dims"])
    modes = [int(M) for M in doc["modes"]]
    if len(modes) != d:
        raise ValueError(f"dims={d} but {len(modes)} mode sizes given")
    svalues = np.asarray(doc["svalues"], dtype=float)
    r = svalues.shape[0]
    if len(doc["factors"]) != d:
        raise ValueError(f"dims={d} but {len(doc['factors'])} factor blocks given")
    factors = []
    for j, (flat, M) in enumerate(zip(doc["factors"], modes)):
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (M * r,):
            raise ValueError(
                f"factor {j} has {flat.shape[0]} entries, expected {M}*{r}"
            )
        factors.append(flat.reshape((M, r), order="F"))
    return CTD(svalues, factors, validate=True)


def save_ctd(U, path):
    with open(path, "w") as fh:
        fh.write(to_json(U))
        fh.write("\n")


def load_ctd(path):
    with open(path) as fh:
        return from_json(fh.read())
