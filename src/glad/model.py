"""Shared domain types and numerical kernels for the GLAD model family.

Every inference backend works on the same value objects: dataset containers
(:class:`Dataset`, :class:`ActivityDataset`, :class:`DynamicDataset`), each
holding its graph as an edge list of int32 ids and never as an N x N matrix
(positions among the 2E linked ordered pairs, such as the CSR indptr, are
int64), the generative parameters (:class:`ModelParams`), and the
variational state of the static model (:class:`GladVariational`).  An
activity dataset holds its activities as the neighbour lists are held,
stacked people ascending with an indptr; the generators, the files and
glad0 all use that one layout.  The log-domain primitives the update
equations are built from live here as well, so the variational and Monte
Carlo modules share one set of conventions:

* Bernoulli block probabilities are kept inside ``[PROB_EPS, 1 - PROB_EPS]``.
* Simplex parameters may contain exact zeros; logs are taken through
  :func:`floored_log`, which clamps at ``SIMPLEX_FLOOR`` first.
* Self-links are never modelled: an edge list holds no self-pair, and the
  diagonal of a dense ``links`` matrix given to a dataset is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Bernoulli block probabilities are clamped to this band after every M-step.
PROB_EPS = 1e-6

# Floor applied inside logarithms of simplex entries (theta, beta, lambda, ...).
SIMPLEX_FLOOR = 1e-12

# Tolerance used when checking that rows/columns sum to one.
SIMPLEX_ATOL = 1e-9

__all__ = [
    "PROB_EPS",
    "SIMPLEX_FLOOR",
    "SIMPLEX_ATOL",
    "Dataset",
    "ActivityDataset",
    "DynamicDataset",
    "ModelParams",
    "GladVariational",
    "GladNumericsError",
    "digamma",
    "gammaln",
    "logsumexp",
    "floored_log",
    "softmax",
    "log_softmax",
    "validate_params",
]


class GladNumericsError(RuntimeError):
    """Raised when an inference routine hits NaN/Inf and cannot continue."""


def _readonly(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only in place and return it."""
    a.flags.writeable = False
    return a


def _frozen(a: np.ndarray, dtype=None) -> np.ndarray:
    """Return a C-contiguous read-only copy of ``a``."""
    return _readonly(np.array(a, dtype=dtype, order="C", copy=True))


def _checked_links(links) -> np.ndarray:
    """An int8 copy of ``links`` after checking that it is a square,
    symmetric 0/1 matrix."""
    y = np.array(links, dtype=np.int8)
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise ValueError("links must be a square matrix")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("links must be 0/1")
    if not np.array_equal(y, y.T):
        raise ValueError("links must be symmetric")
    return y


class _EdgeList(tuple):
    """``(u, v)`` as :func:`_checked_edges` returns it: canonical, read-only
    and made by that call, so datasets on as many people or more share it
    instead of checking and copying it again."""


def _checked_edges(edges, n_nodes: int) -> _EdgeList:
    """Read-only int32 ``(u, v)`` of an undirected graph on ``n_nodes``
    people: each linked pair once, u < v, row-major.

    ``edges`` is a pair of id arrays, each pair in either orientation and in
    any order.  An id outside [0, n_nodes), a person paired with themselves
    or a pair listed twice raises ``ValueError``.  The checks run on the ids
    as given if they are int32, else on an int64 copy, so an id too large for
    int32 is rejected before the ids are narrowed, never wrapped.
    """
    if isinstance(edges, _EdgeList) and not (edges[1].size and edges[1].max() >= n_nodes):
        return edges
    u, v = (a if isinstance(a, np.ndarray) and a.dtype == np.int32
            else np.asarray(a, dtype=np.int64) for a in edges)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError("edges must be two 1-D id arrays of one length")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if lo.size and (lo.min() < 0 or hi.max() >= n_nodes):
        raise ValueError(f"edge ids must lie in [0, {n_nodes})")
    if np.any(lo == hi):
        raise ValueError("an edge pairs a person with themselves")
    key = lo.astype(np.int64)
    key *= n_nodes
    key += hi
    # already canonical, as every reader and generator writes it: one pass
    if np.any(key[1:] <= key[:-1]):
        order = np.argsort(key, kind="stable")
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("an unordered pair is listed twice")
        lo, hi = lo[order], hi[order]
    return _EdgeList(_readonly(a.astype(np.int32, copy=False)) for a in (lo, hi))


def _graph_edges(links, edges, n_nodes: int, rows: str) -> tuple:
    """The checked edge list of a graph given as a dense ``links`` matrix
    (its diagonal ignored) or as ``edges``, exactly one of the two, on the
    ``n_nodes`` people of the dataset's ``rows``."""
    if (links is None) == (edges is None):
        raise TypeError("give the graph as links or as edges, not both")
    if links is not None:
        y = _checked_links(links)
        if y.shape[0] != n_nodes:
            raise ValueError(f"{rows} and links disagree on the number of people")
        edges = np.nonzero(np.triu(y, 1))
    return _checked_edges(edges, n_nodes)


def _checked_features(features, n_nodes: int | None = None) -> np.ndarray:
    """A read-only int64 copy of ``features`` after checking that it is an
    (N, V) non-negative count matrix, with N = ``n_nodes`` if given."""
    x = _frozen(features, dtype=np.int64)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D count matrix")
    if n_nodes is not None and x.shape[0] != n_nodes:
        raise ValueError("features and links disagree on the number of people")
    if np.any(x < 0):
        raise ValueError("feature counts must be non-negative")
    return x


# ---------------------------------------------------------------------------
# numerical kernels
# ---------------------------------------------------------------------------

# digamma and gammaln move every argument x below _SHIFT up to x + _SHIFT,
# where their asymptotic series reach double precision in seven terms
# (Bernardo, "Algorithm AS 103", Applied Statistics 25(3), 1976).  The
# steps run downwards, so the recurrence adds its smallest terms first.
_SHIFT = 10
_STEPS = np.arange(_SHIFT - 1, -1, -1.0)
# psi(y) = log y - 1/(2y) - sum_k B_2k / (2k y^2k)
_PSI_SERIES = np.array([1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12])
# lnGamma(y) = (y - 1/2) log y - y + log(2 pi) / 2 + sum_k B_2k / (2k (2k - 1) y^(2k - 1))
_LGAMMA_SERIES = np.array(
    [1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156]
)
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
# above this lnGamma overflows, and scipy.special.gammaln returns +inf
_LGAMMA_MAX = 2.556348e305


def _positive(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    # written so that NaN fails the check
    if arr.size and not arr.min() > 0.0:
        raise ValueError(f"{name} requires strictly positive arguments")
    return arr


def _series(z: np.ndarray, coef: np.ndarray) -> np.ndarray:
    # sum_k coef[k] z^k by Horner's rule
    out = coef[-1] * z
    for c in coef[-2:0:-1]:
        out += c
        out *= z
    out += coef[0]
    return out


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def digamma(x):
    """Digamma function for x > 0, elementwise on arrays.

    psi(x) = psi(x + S) - sum_{i<S} 1/(x + i), then the asymptotic series at
    x + S.  Agrees with ``scipy.special.digamma`` to 1e-14, -inf included
    where 1/x overflows.  Non-positive arguments raise ``ValueError``; a
    scalar in gives a float out.
    """
    arr = _positive(x, "digamma")
    with np.errstate(over="ignore"):
        shift = np.reciprocal(np.add.outer(_STEPS, arr)).sum(axis=0)
    y = arr + _SHIFT
    r = 1.0 / y
    z = r * r
    return _scalar_or_array(np.log(y) - 0.5 * r - z * _series(z, _PSI_SERIES) - shift)


def gammaln(x):
    """log Gamma(x) for x > 0, elementwise on arrays.

    Below S, lnGamma(x) = lnGamma(x + S) - log prod_{i<S} (x + i); the
    Stirling series then runs at x + S, or at x itself from S up.  Agrees
    with ``scipy.special.gammaln`` to 1e-14, and returns its +inf where 1/x
    or the result overflows.  Non-positive arguments raise ``ValueError``;
    a scalar in gives a float out.
    """
    arr = _positive(x, "gammaln")
    low = arr < _SHIFT
    small = np.minimum(arr, _SHIFT)
    with np.errstate(over="ignore"):
        recip = 1.0 / small
    shift = np.log(recip / np.multiply.reduce(np.add.outer(_STEPS[:-1], small), axis=0))
    y = np.minimum(np.where(low, arr + _SHIFT, arr), _LGAMMA_MAX)
    r = 1.0 / y
    # the two large terms cancel first, the small ones are added after
    out = (y - 0.5) * (np.log(y) - 1.0)
    out = np.where(low, out + shift, np.where(arr > _LGAMMA_MAX, np.inf, out))
    out += _HALF_LOG_2PI - 0.5 + r * _series(r * r, _LGAMMA_SERIES)
    return _scalar_or_array(out)


def logsumexp(a, axis=-1, keepdims: bool = False):
    """log(sum(exp(a))) along ``axis``, as ``scipy.special.logsumexp``.

    Shifted by the largest entry, so large entries do not overflow; a slice
    of only -inf entries gives -inf.
    """
    arr = np.asarray(a, dtype=float)
    top = arr.max(axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(arr - top).sum(axis=axis, keepdims=True)) + top
    return out if keepdims else np.squeeze(out, axis=axis)


def softmax(v: np.ndarray) -> np.ndarray:
    """Exponentiate-and-normalize a vector (or the last axis of an array).

    Shifts by the max first, so widely spread log-scores are safe.  An empty
    input has no normalizable support and raises ``ValueError``.
    """
    arr = np.asarray(v, dtype=float)
    if arr.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    shifted = arr - arr.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(v: np.ndarray) -> np.ndarray:
    """log(softmax(v)) computed without leaving the log domain."""
    arr = np.asarray(v, dtype=float)
    if arr.size == 0:
        raise ValueError("log_softmax of an empty vector is undefined")
    # not logsumexp(arr): its guards for -inf slices double the cost of the
    # small calls the particle filter makes
    shifted = arr - arr.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def floored_log(x: np.ndarray) -> np.ndarray:
    """log with simplex entries clamped at SIMPLEX_FLOOR (0 log 0 territory)."""
    return np.log(np.maximum(np.asarray(x, dtype=float), SIMPLEX_FLOOR))


# ---------------------------------------------------------------------------
# value objects
# ---------------------------------------------------------------------------

class _Graph:
    """An undirected graph on ``n_nodes`` people, held as its edge list
    ``edges``: int32 ``(u, v)`` with u < v, each linked pair once, row-major.

    The sparse views are derived from it on first use; all are read-only
    index arrays in row-major order, ids int32 and positions among the 2E
    linked ordered pairs int64, and nothing N x N is held.
    """

    @property
    def links(self) -> np.ndarray:
        """The (N, N) symmetric 0/1 int8 adjacency matrix, zero diagonal.
        Built afresh on every call, for small graphs and tests: no kernel
        reads it."""
        u, v = self.edges
        y = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int8)
        y[u, v] = 1
        y[v, u] = 1
        return _readonly(y)

    @cached_property
    def neighbours(self) -> tuple:
        """CSR ``(indptr, indices)``: person p's neighbours are
        ``indices[indptr[p]:indptr[p + 1]]``, ascending; int64 positions
        and int32 ids."""
        u, v = self.edges
        indptr, is_below = _row_layout(u, v, self.n_nodes)
        indices = np.empty(2 * u.size, dtype=np.int32)
        # the neighbours below are the edges sorted by their larger end
        # (stably, so each row's stay ascending)
        indices[is_below] = u[np.argsort(v, kind="stable")]
        indices[np.logical_not(is_below, out=is_below)] = v
        return _readonly(indptr), _readonly(indices)

    @cached_property
    def senders(self) -> np.ndarray:
        """Owner of each ``neighbours`` entry: the linked ordered pair j runs
        from ``senders[j]`` to ``indices[j]``."""
        indptr = self.neighbours[0]
        return _readonly(np.repeat(np.arange(indptr.size - 1, dtype=np.int32), np.diff(indptr)))

    @cached_property
    def reverse(self) -> np.ndarray:
        """Position in ``neighbours`` of each linked ordered pair's reversal."""
        u, v = self.edges
        _, is_below = _row_layout(u, v, self.n_nodes)
        # edge e seen from above is the e-th pair above its row's owner;
        # seen from below, the edges come ordered stably by their larger end
        below_at = np.flatnonzero(is_below)
        above_at = np.flatnonzero(np.logical_not(is_below, out=is_below))
        above_at = above_at[np.argsort(v, kind="stable")]
        reverse = np.empty(2 * u.size, dtype=np.int64)
        reverse[below_at] = above_at
        reverse[above_at] = below_at
        return _readonly(reverse)


def _row_layout(u, v, n: int) -> tuple:
    """``(indptr, is_below)`` of the neighbour lists of the edge list
    ``(u, v)`` on ``n`` people, by counting: row p holds its neighbours
    below p, then those above, and ``is_below`` marks the first kind.  The
    edges list the ones above in CSR order."""
    below, above = np.bincount(v, minlength=n), np.bincount(u, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(below + above, out=indptr[1:])
    is_below = np.repeat(np.tile([True, False], n), np.stack([below, above], axis=1).ravel())
    return indptr, is_below


@dataclass(frozen=True, init=False)
class Dataset(_Graph):
    """Static observations: per-person feature counts and an undirected graph.

    ``features`` is an (N, V) non-negative integer count matrix; row p holds
    person p's aggregated activity counts.  The graph is given either as
    ``edges``, a pair of id arrays with each unordered pair once in either
    orientation, or as ``links``, an (N, N) symmetric 0/1 matrix whose
    diagonal is ignored.  Either way it is stored once, as the canonical
    edge list ``edges`` of int32 ids; the neighbour lists ``neighbours``
    (CSR: an int64 indptr and int32 ids) are derived from it on first use,
    and ``links`` builds the dense matrix on demand.
    """

    features: np.ndarray
    edges: tuple

    def __init__(self, features, *, links=None, edges=None):
        x = _checked_features(features)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "edges", _graph_edges(links, edges, x.shape[0], "features"))

    def with_features(self, features) -> Dataset:
        """``features`` on this dataset's graph.  The new dataset shares the
        edge list and the neighbour lists instead of deriving them again."""
        other = object.__new__(Dataset)
        object.__setattr__(other, "features", _checked_features(features, self.n_nodes))
        object.__setattr__(other, "edges", self.edges)
        # the static kernels read the neighbour lists; derived here once, for both
        vars(other)["neighbours"] = self.neighbours
        return other

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def trials(self) -> np.ndarray:
        """Per-person total activity count (row sums of ``features``)."""
        return self.features.sum(axis=1)

    @cached_property
    def log_multinomial_coef(self) -> float:
        """log of the multinomial coefficients of the feature counts, summed
        over people: the bound's only data-only term, derived once."""
        x = self.features
        return float(gammaln(x.sum(axis=1) + 1.0).sum() - gammaln(x + 1.0).sum())


@dataclass(frozen=True, init=False)
class ActivityDataset(_Graph):
    """Activity-level observations: one categorical feature per activity.

    ``feature_ids`` is a read-only (A,) int64 array: each activity's single
    feature (the one-hot encoding stored compactly), stacked people
    ascending as the neighbour lists are.  Person p's activities are
    ``feature_ids[act_indptr[p]:act_indptr[p + 1]]``, in recorded order;
    glad0's activity posteriors and the feature file follow the same order.
    The graph is given and stored as in :class:`Dataset`; glad0's pair
    kernels also read ``senders`` and ``reverse``.
    """

    feature_ids: np.ndarray
    act_indptr: np.ndarray
    edges: tuple
    n_features: int

    def __init__(self, feature_ids, act_indptr, n_features: int, *, links=None, edges=None):
        ids = _frozen(feature_ids, dtype=np.int64)
        indptr = _frozen(act_indptr, dtype=np.int64)
        if ids.ndim != 1 or indptr.ndim != 1 or indptr.size == 0:
            raise ValueError("activities must be a 1-D feature id array and a 1-D indptr")
        if indptr[0] != 0 or indptr[-1] != ids.size or np.any(indptr[1:] < indptr[:-1]):
            raise ValueError("act_indptr must rise from 0 to the number of activities")
        if ids.size and (ids.min() < 0 or ids.max() >= n_features):
            raise ValueError("activity feature index out of range")
        object.__setattr__(self, "feature_ids", ids)
        object.__setattr__(self, "act_indptr", indptr)
        object.__setattr__(self, "n_features", n_features)
        object.__setattr__(self, "edges",
                           _graph_edges(links, edges, indptr.size - 1, "act_indptr"))

    @property
    def n_nodes(self) -> int:
        return self.act_indptr.size - 1

    @property
    def activity_counts(self) -> np.ndarray:
        return np.diff(self.act_indptr)

    def feature_counts(self) -> np.ndarray:
        """Aggregate activities into an (N, V) count matrix."""
        n, v = self.n_nodes, self.n_features
        person = np.repeat(np.arange(n), self.activity_counts)
        return np.bincount(person * v + self.feature_ids, minlength=n * v).reshape(n, v)


@dataclass(frozen=True)
class DynamicDataset:
    """A sequence of static snapshots sharing the same people and features."""

    snapshots: tuple

    def __post_init__(self):
        snaps = tuple(self.snapshots)
        if not snaps:
            raise ValueError("a dynamic dataset needs at least one snapshot")
        n, v = snaps[0].n_nodes, snaps[0].n_features
        for s in snaps:
            if not isinstance(s, Dataset):
                raise TypeError("snapshots must be Dataset instances")
            if s.n_nodes != n or s.n_features != v:
                raise ValueError("snapshots disagree on people or feature count")
        object.__setattr__(self, "snapshots", snaps)

    @property
    def horizon(self) -> int:
        return len(self.snapshots)

    @property
    def n_nodes(self) -> int:
        return self.snapshots[0].n_nodes

    @property
    def n_features(self) -> int:
        return self.snapshots[0].n_features


@dataclass(frozen=True)
class ModelParams:
    """Generative parameters shared by the whole model family.

    alpha : (M,) positive Dirichlet prior over group memberships.
    block : (M, M) Bernoulli link probabilities between groups, entries in
        ``[PROB_EPS, 1 - PROB_EPS]``.
    theta : (M, K) per-group mixture rate over roles; rows are simplices.
    beta  : (V, K) per-role feature distributions; columns are simplices.
    """

    alpha: np.ndarray
    block: np.ndarray
    theta: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frozen(self.alpha, dtype=float))
        object.__setattr__(self, "block", _frozen(self.block, dtype=float))
        object.__setattr__(self, "theta", _frozen(self.theta, dtype=float))
        object.__setattr__(self, "beta", _frozen(self.beta, dtype=float))

    @property
    def n_groups(self) -> int:
        return self.theta.shape[0]

    @property
    def n_roles(self) -> int:
        return self.theta.shape[1]

    @property
    def n_features(self) -> int:
        return self.beta.shape[0]


def validate_params(params: ModelParams) -> list:
    """Collect every invariant violation in ``params`` as a message list.

    An empty list means the parameters are usable by the generators and
    fitters.  Checks shapes, positivity of alpha, the Bernoulli clamp band on
    the block matrix, and the simplex constraints on theta rows / beta columns.
    """
    msgs = []
    alpha, block, theta, beta = params.alpha, params.block, params.theta, params.beta
    m = theta.shape[0] if theta.ndim == 2 else -1

    if alpha.ndim != 1:
        msgs.append("alpha must be a vector")
    elif np.any(~(alpha > 0)):
        msgs.append("alpha entries must be strictly positive")
    if theta.ndim != 2:
        msgs.append("theta must be a matrix")
    if beta.ndim != 2:
        msgs.append("beta must be a matrix")
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        msgs.append("block matrix must be square")
    if msgs:
        return msgs

    if alpha.shape[0] != m:
        msgs.append(f"alpha has {alpha.shape[0]} entries but theta has {m} rows")
    if block.shape[0] != m:
        msgs.append(f"block matrix is {block.shape[0]}x{block.shape[1]} but theta has {m} rows")
    if np.any(block < PROB_EPS) or np.any(block > 1.0 - PROB_EPS):
        msgs.append(f"block probabilities must lie in [{PROB_EPS}, 1 - {PROB_EPS}]")
    if np.any(theta < 0):
        msgs.append("theta entries must be non-negative")
    else:
        bad = np.flatnonzero(np.abs(theta.sum(axis=1) - 1.0) > SIMPLEX_ATOL)
        for i in bad:
            msgs.append(f"theta row {i} does not sum to 1")
    if np.any(beta < 0):
        msgs.append("beta entries must be non-negative")
    else:
        bad = np.flatnonzero(np.abs(beta.sum(axis=0) - 1.0) > SIMPLEX_ATOL)
        for k in bad:
            msgs.append(f"beta column {k} does not sum to 1")
    if beta.ndim == 2 and theta.ndim == 2 and beta.shape[1] != theta.shape[1]:
        msgs.append(f"beta has {beta.shape[1]} columns but theta has {theta.shape[1]} roles")
    return msgs


@dataclass(frozen=True)
class GladVariational:
    """Variational posterior of the static model.

    gamma : (N, M) Dirichlet parameters of q(pi_p).
    lam   : (N, M) group responsibilities q(G_p); rows are simplices.
    mu    : (N, K) role responsibilities q(R_p); rows are simplices.
    """

    gamma: np.ndarray
    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        g = _frozen(self.gamma, dtype=float)
        l = _frozen(self.lam, dtype=float)
        u = _frozen(self.mu, dtype=float)
        if g.ndim != 2 or l.ndim != 2 or u.ndim != 2:
            raise ValueError("variational state arrays must be 2-D")
        if g.shape != l.shape or g.shape[0] != u.shape[0]:
            raise ValueError("variational state arrays disagree on shape")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "lam", l)
        object.__setattr__(self, "mu", u)

    @property
    def n_nodes(self) -> int:
        return self.gamma.shape[0]

    @property
    def n_groups(self) -> int:
        return self.gamma.shape[1]

    @property
    def n_roles(self) -> int:
        return self.mu.shape[1]

    def grouping(self) -> np.ndarray:
        """Hard group assignment: argmax of the group responsibilities."""
        return np.argmax(self.lam, axis=1)

    def roles(self) -> np.ndarray:
        """Hard role assignment: argmax of the role responsibilities."""
        return np.argmax(self.mu, axis=1)
