"""Variational EM for the per-pair membership variant.

Each ordered pair (p, q) carries two latent group draws — the sender side
from person p's membership distribution and the receiver side from q's —
and every single activity carries its own (group, role) pair.  The
variational family gives each linked ordered pair and each activity a
private simplex, and ties the pair sides of the pairs that are not linked
(a mean-field family of the mixed-membership blockmodel kind: Airoldi,
Blei, Fienberg & Xing, JMLR 2008):

    gamma       (N, M)   Dirichlet posteriors over memberships
    phi_out     (M, 2E)  sender-side group posterior of each linked pair
    phi_in      (M, 2E)  receiver-side group posterior of each linked pair
    nolink_out  (M, N)   sender side a_p, shared by every non-linked (p, q)
    nolink_in   (M, N)   receiver side b_q, shared by every non-linked (p, q)
    lam         (M, A)   group posterior of each activity
    mu          (K, A)   role posterior of each activity
    act_indptr  (N + 1)  p's activities are columns act_indptr[p]:act_indptr[p + 1]

The 2E linked ordered pairs are in the CSR order of ``data.neighbours``:
column e is the pair (p, indices[e]) for indptr[p] <= e < indptr[p + 1].
The A activities are the dataset's own, stacked people ascending in the
order of ``data.feature_ids``, and ``act_indptr`` is ``data.act_indptr``
itself.  The pair and activity arrays are group-major: with M small, each
softmax reduces over the leading axis (numpy reduces a short trailing
axis several times more slowly than a leading one), and the link
evidence of a whole side is one (M, M) product.  The fit keeps
gamma group-major too, as (M, N), and hands out a C-ordered (N, M) copy
of it; the other arrays of the state are the sweep's own
(``_variational``).  Tying the non-linked pairs gives a sub-family of the
one with a private posterior per pair, so the bound is still a lower
bound on the same evidence; nothing is subsampled (compare Gopalan,
Mimno, Gerrish, Freedman & Blei, NIPS 2012).  Every sweep, M-step and
bound costs O(E*M + N*M^2) plus the activity terms, and no array has N^2
entries.

With n0_p = N - 1 - deg_p non-linked partners of p and
S_p = sum_q b_q - b_p - sum_{q in nbr(p)} b_q their receiver mass, the
non-link part of the bound is sum_p n0_p (a_p . E[log pi_p] + H(a_p)) +
sum_p a_p' log(1 - B) S_p plus the mirror term for b.  One block sweep
updates, in order, each block at its exact coordinate maximizer:

    linked senders    phi_out_e  ~ exp(E[log pi_p] + log B phi_in_e)
    linked receivers  phi_in_e   ~ exp(E[log pi_q] + log B' phi_out_e)
    a given b         a_p        ~ exp(E[log pi_p] + log(1 - B) S_p / n0_p)
    b given a         b_q        ~ exp(E[log pi_q] + log(1 - B)' T_q / n0_q)
    gamma_p = alpha + p's linked sender and receiver sides
              + n0_p (a_p + b_p) + p's activity rows
    the activity group rows (``_lambda_logits``), then the role rows
    (``_role_logits``)

where T_q is the sender mass of q's non-linked partners, built from a as
S is from b.  The bound (``compute_elbo0``) is that of the directed
model, in which each ordered pair has its own sender and receiver sides
and its own Bernoulli, so each undirected link is observed twice.
Receiver sides draw from the *receiver's* membership, so gamma credits
person p with the sides drawn from p's membership, as in MMSB.  This is
not the model ``generate_glad0`` samples, which draws one sender and one
receiver side per *unordered* pair; ROADMAP item 1 makes the two agree.
The M-step's block ratio divides the linked mass phi_out phi_in' by that
plus sum_p a_p S_p'.  Every per-person sum over neighbours or activities
is a segment sum over CSR-ordered entries (``np.add.reduceat``).

The sweep does only the work that changes between sweeps.  What it reads
of the parameters (log B, log(1 - B), the floored log theta and each
activity's log beta row) is built once per M-step (``_terms``), and
digamma(gamma) is carried from the end of one sweep, where the activity
update needs it, to the start of the next, where the pair sides do.  They
need no digamma of the row sums: E[log pi_p] enters every update as the
owner's term of a softmax over groups, which cancels any per-person
constant.  Each owner's term is shifted to a column maximum of 0 instead,
so the softmaxes need no max pass over the (M, 2E) and (M, A) arrays
(``_group_softmax``).  Owners' terms reach the pair and activity columns
by ``np.repeat`` where the columns are sorted by owner, and by ``np.take``
otherwise.

The mean-field core shared with the static model comes from ``glad_vem``:
E[log pi] for the bound (``_expected_log_pi``), the Dirichlet and
per-activity bound terms (``dirichlet_terms``, ``row_terms``), the M-step
kernels (``normalize_or_uniform``, ``block_ratio``), the start
(``seed_params``, ``jitter_rows``), the EM loop (``run_em``),
``best_of_restarts`` and the result type ``FitResult``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .glad_vem import (
    EDGE_CHUNK,
    FitResult,
    _expected_log_pi,
    best_of_restarts,
    block_ratio,
    dirichlet_terms,
    jitter_rows,
    normalize_or_uniform,
    prior_norm,
    row_terms,
    run_em,
    seed_params,
)
from .model import (
    ActivityDataset,
    ModelParams,
    PROB_EPS,
    SIMPLEX_ATOL,
    digamma,
    floored_log,
)

__all__ = [
    "Fit0Config",
    "Glad0Variational",
    "m_step0",
    "compute_elbo0",
    "fit0",
]


@dataclass(frozen=True)
class Fit0Config:
    """Knobs of the nested loop: ``max_iters``/``tol`` bound the outer EM
    loop, ``inner_max``/``inner_tol`` the inner block sweeps.  The prior
    ``alpha0`` stays fixed.  ``restarts > 1`` keeps the best final bound of
    several seeded fits."""

    max_iters: int = 100
    tol: float = 1e-6
    inner_max: int = 50
    inner_tol: float = 1e-6
    seed: int = 0
    alpha0: float = 0.1
    restarts: int = 1

    def __post_init__(self):
        if self.max_iters < 1 or self.inner_max < 1 or self.restarts < 1:
            raise ValueError("iteration caps must be >= 1")
        # written so that NaN fails the checks
        if not (self.tol >= 0 and self.inner_tol >= 0):
            raise ValueError("tolerances must be >= 0")
        if not 0 < self.alpha0 < np.inf:
            raise ValueError("alpha0 must be positive and finite")


@dataclass(frozen=True)
class Glad0Variational:
    """Linked-pair, non-link and activity-level posteriors; see the module
    docstring."""

    gamma: np.ndarray
    phi_out: np.ndarray
    phi_in: np.ndarray
    nolink_out: np.ndarray
    nolink_in: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    act_indptr: np.ndarray

    def __post_init__(self):
        n, m = self.gamma.shape
        if self.phi_out.ndim != 2 or self.phi_out.shape[0] != m \
                or self.phi_in.shape != self.phi_out.shape:
            raise ValueError("linked pair posteriors must both be (M, 2E)")
        if self.nolink_out.shape != (m, n) or self.nolink_in.shape != (m, n):
            raise ValueError("non-link posteriors must be (M, N)")
        lam, mu, indptr = self.lam, self.mu, self.act_indptr
        if lam.ndim != 2 or mu.ndim != 2 or lam.shape[0] != m or mu.shape[1] != lam.shape[1] \
                or indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != lam.shape[1] \
                or np.any(np.diff(indptr) < 0):
            raise ValueError("activity posteriors must be (M, A) and (K, A), "
                             "indexed by an (N + 1) indptr from 0 to A")
        if np.any(~(self.gamma > 0)):
            raise ValueError("gamma must stay strictly positive")
        for name in ("phi_out", "phi_in", "nolink_out", "nolink_in", "lam", "mu"):
            if np.any(np.abs(getattr(self, name).sum(axis=0) - 1.0) > SIMPLEX_ATOL):
                raise ValueError(f"{name} posterior columns must be simplices")

    @property
    def n_nodes(self) -> int:
        return self.gamma.shape[0]

    @property
    def n_groups(self) -> int:
        return self.gamma.shape[1]

    def grouping(self) -> np.ndarray:
        """Hard node grouping: activity-averaged group posterior, falling
        back to the membership posterior for people with no activities."""
        counts = np.diff(self.act_indptr)
        mean = _segment_sums(self.lam, self.act_indptr) / np.maximum(counts, 1)
        return np.where(counts > 0, mean.argmax(axis=0), self.gamma.argmax(axis=1))


class _Pairs(NamedTuple):
    """Index arrays of the linked ordered pairs, in ``data.neighbours`` order."""

    indptr: np.ndarray  # p's pairs are columns indptr[p]:indptr[p + 1]
    indices: np.ndarray  # receiver of each pair
    sender: np.ndarray  # sender of each pair
    reverse: np.ndarray  # column of the reversed pair (q, p)
    degree: np.ndarray  # linked partners per person
    n0: np.ndarray  # non-linked partners per person, N - 1 - deg
    # a person linked to everyone has no non-link mass, and its shared sides
    # enter no term: any finite divisor will do
    n0_div: np.ndarray  # max(n0, 1)


def _pairs(data: ActivityDataset) -> _Pairs:
    # the index arrays are cached on the dataset, so a fit builds them once
    indptr, indices = data.neighbours
    degree = np.diff(indptr)
    n0 = data.n_nodes - 1 - degree
    return _Pairs(indptr=indptr, indices=indices, sender=data.senders, reverse=data.reverse,
                  degree=degree, n0=n0, n0_div=np.maximum(n0, 1))


def _row_blocks(indptr):
    # (p0, p1) runs of people whose pairs span at most EDGE_CHUNK columns
    # (a single person with more pairs is a run of its own)
    p0, n = 0, indptr.size - 1
    while p0 < n:
        p1 = int(np.searchsorted(indptr, indptr[p0] + EDGE_CHUNK, side="right")) - 1
        p1 = max(p1, p0 + 1)
        yield p0, p1
        p0 = p1


class _Terms(NamedTuple):
    """What the sweep reads of the parameters, built once per M-step."""

    alpha: np.ndarray
    log_b: np.ndarray  # (M, M) log B; the receiver sides read its transpose
    log_1mb: np.ndarray  # (M, M) log(1 - B)
    log_theta: np.ndarray  # (M, K)
    # (K, A) feature log-likelihood of each activity per role, less its
    # largest (which the role softmax cancels)
    log_beta: np.ndarray


def _terms(params: ModelParams, ids: np.ndarray) -> _Terms:
    log_beta = floored_log(params.beta)
    return _Terms(
        alpha=params.alpha,
        log_b=np.log(params.block),
        log_1mb=np.log1p(-params.block),
        log_theta=floored_log(params.theta),
        log_beta=np.take((log_beta - log_beta.max(axis=1, keepdims=True)).T, ids, axis=1),
    )


# ---------------------------------------------------------------------------
# update kernels: each update written once, over whole group-major arrays
# ---------------------------------------------------------------------------

def _segment_sums(cols, indptr):
    # sums of the column segments cols[:, indptr[p]:indptr[p + 1]], zero
    # where empty; (M, P) for P = indptr.size - 1
    full = indptr[:-1] < indptr[1:]
    if full.all() and full.size:  # the usual case, without the masked copy
        return np.add.reduceat(cols, indptr[:-1], axis=1)
    out = np.zeros((cols.shape[0], indptr.size - 1))
    if full.any():
        out[:, full] = np.add.reduceat(cols, indptr[:-1][full], axis=1)
    return out


def _nolink_mass(side, pairs):
    # column p: the sum of side[:, q] over p's non-linked partners q; the
    # linked partners are gathered in runs of rows of at most EDGE_CHUNK
    # pairs, so no (M, 2E) copy is held
    out = side.sum(axis=1, keepdims=True) - side
    for p0, p1 in _row_blocks(pairs.indptr):
        lo, hi = pairs.indptr[p0], pairs.indptr[p1]
        linked = np.take(side, pairs.indices[lo:hi], axis=1)
        out[:, p0:p1] -= _segment_sums(linked, pairs.indptr[p0:p1 + 1] - lo)
    return out


def _side_logits(own, counterpart, log_f):
    # one pair side, group-major: the owner's expected log-membership (up
    # to a per-owner constant) plus the link evidence against the (mean)
    # counterpart side; log_f[g, h] is the log-likelihood for own group g
    # and counterpart group h
    logits = log_f @ counterpart
    logits += own
    return logits


def _group_softmax(logits):
    # softmax over the leading group axis, in place, without a max pass:
    # every caller shifts the term it owns to a column maximum of 0 (see
    # ``_own``), and what it adds lies in [log SIMPLEX_FLOOR, 0], so each
    # column's largest entry is within 28 of 0 and exp cannot overflow, nor
    # underflow the column sum
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0)
    return logits


def _gamma_block(alpha, pairs, phi_out, phi_in, nolink_out, nolink_in, act):
    # prior plus the pair sides drawn from each person's membership: the
    # sender sides of p's linked pairs, the receiver sides of the reversed
    # pairs (q, p), n0_p copies of each non-link side; plus activity sums;
    # (M, N)
    sides = _segment_sums(phi_out + np.take(phi_in, pairs.reverse, axis=1), pairs.indptr)
    sides += pairs.n0 * (nolink_out + nolink_in)
    return alpha[:, None] + sides + act


def _own(dig):
    # E[log pi] = digamma(gamma) - digamma(sum gamma) up to the per-person
    # constant, which every softmax of the sweep cancels: digamma(gamma)
    # shifted to a column maximum of 0
    return dig - dig.max(axis=0)


def _lambda_logits(dig, mu, log_theta):
    # digamma of the owner's membership pseudo-counts plus the role
    # posterior's expected log-rate per group; (M, A)
    logits = log_theta @ mu
    logits += dig
    return logits


def _role_logits(lam, log_theta, log_beta):
    # the group-major twin of glad_vem._mu_logits: the expected log-rate
    # under the group posterior plus each activity's feature log-likelihood;
    # (K, A)
    logits = log_theta.T @ lam
    logits += log_beta
    return logits


def _variational(gamma, phi_out, phi_in, nolink_out, nolink_in, lam, mu, act_indptr):
    # the public state of the sweep's arrays: gamma as a C-ordered (N, M)
    # copy, everything else as it is
    return Glad0Variational(
        gamma=np.ascontiguousarray(gamma.T),
        phi_out=phi_out,
        phi_in=phi_in,
        nolink_out=nolink_out,
        nolink_in=nolink_in,
        lam=lam,
        mu=mu,
        act_indptr=act_indptr,
    )


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------

def m_step0(
    data: ActivityDataset,
    state: Glad0Variational,
    alpha: np.ndarray,
) -> ModelParams:
    """Closed-form parameter maximizers from pair and activity posteriors;
    the prior ``alpha`` passes through unchanged."""
    linked = state.phi_out @ state.phi_in.T
    nolink = state.nolink_out @ _nolink_mass(state.nolink_in, _pairs(data)).T
    block = np.clip(block_ratio(linked, linked + nolink), PROB_EPS, 1.0 - PROB_EPS)

    beta = np.stack(
        [np.bincount(data.feature_ids, weights=row, minlength=data.n_features)
         for row in state.mu],
        axis=1,
    )
    # theta's product runs over C-ordered (A, M) and (A, K) copies: the
    # group-major arrays as they are would sum in another order
    lam_rows, mu_rows = (np.ascontiguousarray(a.T) for a in (state.lam, state.mu))
    return ModelParams(
        alpha=alpha,
        block=block,
        theta=normalize_or_uniform(lam_rows.T @ mu_rows, 1, "theta row"),
        beta=normalize_or_uniform(beta, 0, "beta column"),
    )


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------

def _side_terms(phi, elogpi):
    # per pair side: its expected log-membership plus its entropy
    return (phi * (elogpi - floored_log(phi))).sum(axis=0)


def compute_elbo0(
    data: ActivityDataset, params: ModelParams, state: Glad0Variational
) -> float:
    """Variational lower bound for the pair-level model.

    Every ordered pair contributes its own sender/receiver draws and its
    own Bernoulli term; the non-linked pairs of one person share their
    sides, so they are summed as n0_p copies and one bilinear term.
    """
    pairs = _pairs(data)
    gamma = state.gamma
    elogpi = _expected_log_pi(gamma)
    total = dirichlet_terms(params.alpha, gamma, elogpi, prior_norm(params.alpha))

    log_b = np.log(params.block)
    log_1mb = np.log1p(-params.block)
    elogpi_t = elogpi.T
    a, b = state.nolink_out, state.nolink_in
    total += float(pairs.n0 @ (_side_terms(a, elogpi_t) + _side_terms(b, elogpi_t)))
    # a_p' log(1 - B) S_p: the receiver mass of everyone but p here, less
    # that of p's linked partners pair by pair below
    nolink_f = log_1mb.T @ a
    total += float((nolink_f * (b.sum(axis=1, keepdims=True) - b)).sum())

    # the linked pairs in chunks of EDGE_CHUNK columns, so that no (M, 2E)
    # temporary is ever held
    for start in range(0, pairs.indices.size, EDGE_CHUNK):
        cols = slice(start, start + EDGE_CHUNK)
        sender, receiver = pairs.sender[cols], pairs.indices[cols]
        phi_out, phi_in = state.phi_out[:, cols], state.phi_in[:, cols]
        total += float(_side_terms(phi_out, elogpi_t[:, sender]).sum())
        total += float(_side_terms(phi_in, elogpi_t[:, receiver]).sum())
        total += float(((log_b.T @ phi_out) * phi_in).sum())
        total -= float((nolink_f[:, sender] * b[:, receiver]).sum())

    # row_terms sums over C-ordered (A, M) and (A, K) copies, for the reason
    # m_step0 gives
    lam_rows, mu_rows = (np.ascontiguousarray(a.T) for a in (state.lam, state.mu))
    person = np.repeat(np.arange(data.n_nodes), np.diff(state.act_indptr))
    return total + row_terms(
        lam_rows, elogpi[person], mu_rows, floored_log(params.theta),
        floored_log(params.beta)[data.feature_ids],
    )


# ---------------------------------------------------------------------------
# block sweep for the fit loop
# ---------------------------------------------------------------------------

def _update(arr, new, tol, moved):
    # write ``new`` into ``arr``; whether ``moved`` already, or some entry
    # changed by more than ``tol`` (NaN counts as a change)
    moved = moved or not (arr.size == 0 or np.abs(new - arr).max() <= tol)
    arr[:] = new
    return moved


def _sweep0(terms, pairs, act_indptr, tol, gamma, dig, phi_out, phi_in, nolink_out,
            nolink_in, lam, mu):
    """One block-coordinate pass in the module docstring's order; returns
    whether some posterior entry changed by more than ``tol``.  Once one
    has, the later blocks skip the comparison.

    ``dig`` is ``digamma(gamma)`` on entry and is brought up to date with
    gamma.  The linked sides of one direction are mutually independent
    given the other direction, and so are the non-link sides a given b and
    b given a; the same holds for the activity arrays given gamma and each
    other.  So each whole-array update is an exact block maximizer.
    """
    own = _own(dig)
    moved = _update(phi_out, _group_softmax(_side_logits(
        np.repeat(own, pairs.degree, axis=1), phi_in, terms.log_b)), tol, False)
    moved = _update(phi_in, _group_softmax(_side_logits(
        np.take(own, pairs.indices, axis=1), phi_out, terms.log_b.T)), tol, moved)
    moved = _update(nolink_out, _group_softmax(_side_logits(
        own, _nolink_mass(nolink_in, pairs) / pairs.n0_div, terms.log_1mb)), tol, moved)
    moved = _update(nolink_in, _group_softmax(_side_logits(
        own, _nolink_mass(nolink_out, pairs) / pairs.n0_div, terms.log_1mb.T)), tol, moved)

    gamma[:] = _gamma_block(terms.alpha, pairs, phi_out, phi_in, nolink_out, nolink_in,
                            _segment_sums(lam, act_indptr))
    dig[:] = digamma(gamma)
    moved = _update(lam, _group_softmax(_lambda_logits(
        np.repeat(_own(dig), np.diff(act_indptr), axis=1), mu, terms.log_theta)), tol, moved)
    return _update(mu, _group_softmax(
        _role_logits(lam, terms.log_theta, terms.log_beta)), tol, moved)


def _init0(data, n_groups, n_roles, config):
    """Seeded parameters and the noise-broken uniform starting posteriors,
    group-major: ``(params, pairs, gamma, phi_out, phi_in, nolink_out,
    nolink_in, lam, mu)``.  The jitter is drawn in that order (gamma
    aside), pair sides pair by pair, as (2E, M), (N, M), (A, M) and (A, K)
    rows."""
    rng = np.random.default_rng(config.seed)
    n = data.n_nodes
    params = seed_params(data, n_groups, n_roles, rng, config.alpha0)
    pairs = _pairs(data)
    acts = data.feature_ids.size
    shapes = ((pairs.indices.size, n_groups), (pairs.indices.size, n_groups),
              (n, n_groups), (n, n_groups), (acts, n_groups), (acts, n_roles))
    rows = [np.full(shape, 1.0 / shape[1]) for shape in shapes]
    for arr in rows:
        jitter_rows(arr, rng)
    phi_out, phi_in, nolink_out, nolink_in, lam, mu = (np.ascontiguousarray(a.T) for a in rows)
    gamma = _gamma_block(params.alpha, pairs, phi_out, phi_in, nolink_out, nolink_in,
                         _segment_sums(lam, data.act_indptr))
    return params, pairs, gamma, phi_out, phi_in, nolink_out, nolink_in, lam, mu


def fit0(
    data: ActivityDataset,
    n_groups: int,
    n_roles: int,
    config: Fit0Config | None = None,
) -> FitResult:
    """Nested variational EM: inner E-loop to a fixed point, then M-step.

    The inner loop repeats block sweeps until the largest posterior change
    drops below ``inner_tol`` (or ``inner_max`` sweeps) and warm-starts
    from the previous outer iteration's posteriors.  The outer loop is
    ``run_em``: it stops on relative change of the lower bound.  With
    ``restarts > 1`` the whole procedure reruns from derived seeds and the
    best final bound wins (bad symmetry-breaking basins score visibly worse).
    Deterministic under seed.
    """
    config = config or Fit0Config()
    if min(n_groups, n_roles) < 1:
        raise ValueError("n_groups and n_roles must be positive")
    if config.restarts > 1:
        return best_of_restarts(
            lambda seed: fit0(data, n_groups, n_roles, replace(config, restarts=1, seed=seed)),
            config.seed,
            config.restarts,
        )
    params, pairs, *arrays = _init0(data, n_groups, n_roles, config)
    terms = _terms(params, data.feature_ids)
    gamma = arrays[0]
    dig = digamma(gamma)

    def snapshot():
        return _variational(*arrays, data.act_indptr)

    def step():
        nonlocal params, terms
        for _ in range(config.inner_max):
            if not _sweep0(terms, pairs, data.act_indptr, config.inner_tol, gamma, dig,
                           *arrays[1:]):
                break
        state = snapshot()
        params = m_step0(data, state, params.alpha)
        terms = _terms(params, data.feature_ids)
        return compute_elbo0(data, params, state)

    first = compute_elbo0(data, params, snapshot())
    trace, converged = run_em(first, step, config.max_iters, config.tol)
    return FitResult(params=params, state=snapshot(), trace=trace, converged=converged)
