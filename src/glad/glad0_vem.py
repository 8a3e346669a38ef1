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
    lam_act     ragged   per-activity group posterior, (A_p, M) per person
    mu_act      ragged   per-activity role posterior, (A_p, K) per person

The 2E linked ordered pairs are in the CSR order of ``data.neighbours``:
column e is the pair (p, indices[e]) for indptr[p] <= e < indptr[p + 1].
The pair arrays are group-major: with M small, each softmax reduces over
the leading axis, and the link evidence of a whole side is one (M, M)
product.  Tying the non-linked pairs gives a sub-family of the one with a
private posterior per pair, so the bound is still a lower bound on the same
evidence; nothing is subsampled (compare Gopalan, Mimno, Gerrish, Freedman
& Blei, NIPS 2012).  Every sweep, M-step and bound costs O(E*M + N*M^2)
plus the activity terms, and no array has N^2 entries.

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
    (``_mu_logits``)

where T_q is the sender mass of q's non-linked partners, built from a as
S is from b.  The bound (``compute_elbo0``) is that of the model exactly
as generated: receiver sides draw from the *receiver's* membership, so
gamma credits person p with the sides drawn from p's membership, as in
MMSB.  The M-step's block ratio divides the linked mass phi_out phi_in' by
that plus sum_p a_p S_p'.  Every per-person sum over neighbours or
activities is a segment sum over CSR-ordered entries (``np.add.reduceat``).

The mean-field core shared with the static model comes from ``glad_vem``:
E[log pi] (``_expected_log_pi``), the role logits (``_mu_logits``), the
Dirichlet and per-activity bound terms (``dirichlet_terms``, ``row_terms``),
the M-step kernels (``normalize_or_uniform``, ``block_ratio``), the start
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
    _mu_logits,
    best_of_restarts,
    block_ratio,
    dirichlet_terms,
    jitter_rows,
    normalize_or_uniform,
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
    softmax,
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
    lam_act: tuple
    mu_act: tuple

    def __post_init__(self):
        n, m = self.gamma.shape
        if self.phi_out.ndim != 2 or self.phi_out.shape[0] != m \
                or self.phi_in.shape != self.phi_out.shape:
            raise ValueError("linked pair posteriors must both be (M, 2E)")
        if self.nolink_out.shape != (m, n) or self.nolink_in.shape != (m, n):
            raise ValueError("non-link posteriors must be (M, N)")
        if np.any(~(self.gamma > 0)):
            raise ValueError("gamma must stay strictly positive")
        for name in ("phi_out", "phi_in", "nolink_out", "nolink_in"):
            if np.any(np.abs(getattr(self, name).sum(axis=0) - 1.0) > SIMPLEX_ATOL):
                raise ValueError(f"{name} pair posteriors must be simplices")
        if len(self.lam_act) != n or len(self.mu_act) != n:
            raise ValueError("need one activity posterior list per person")
        for lam, mu in zip(self.lam_act, self.mu_act):
            if lam.shape[0] != mu.shape[0] or lam.shape[1] != m:
                raise ValueError("activity posteriors misshaped")
        for rows in (self.lam_act, self.mu_act):
            stacked = np.concatenate(rows) if n else np.zeros((0, 1))
            if np.any(np.abs(stacked.sum(axis=1) - 1.0) > SIMPLEX_ATOL):
                raise ValueError("activity posterior rows must be simplices")

    @property
    def n_nodes(self) -> int:
        return self.gamma.shape[0]

    @property
    def n_groups(self) -> int:
        return self.gamma.shape[1]

    def grouping(self) -> np.ndarray:
        """Hard node grouping: activity-averaged group posterior, falling
        back to the membership posterior for people with no activities."""
        out = np.empty(self.n_nodes, dtype=np.int64)
        for p, lam in enumerate(self.lam_act):
            if lam.shape[0]:
                out[p] = int(lam.mean(axis=0).argmax())
            else:
                out[p] = int(self.gamma[p].argmax())
        return out


class _Pairs(NamedTuple):
    """Index arrays of the linked ordered pairs, in ``data.neighbours`` order."""

    indptr: np.ndarray  # p's pairs are columns indptr[p]:indptr[p + 1]
    indices: np.ndarray  # receiver of each pair
    sender: np.ndarray  # sender of each pair
    reverse: np.ndarray  # column of the reversed pair (q, p)
    n0: np.ndarray  # non-linked partners per person, N - 1 - deg


def _pairs(data: ActivityDataset) -> _Pairs:
    # the index arrays are cached on the dataset, so a fit builds them once
    indptr, indices = data.neighbours
    return _Pairs(
        indptr=indptr,
        indices=indices,
        sender=data.senders,
        reverse=data.reverse,
        n0=data.n_nodes - 1 - np.diff(indptr),
    )


# ---------------------------------------------------------------------------
# update kernels: each update written once, over whole arrays
# ---------------------------------------------------------------------------

def _segment_sums(cols, indptr):
    # sums of the column segments cols[:, indptr[p]:indptr[p + 1]], zero
    # where empty; (M, P) for P = indptr.size - 1
    out = np.zeros((cols.shape[0], indptr.size - 1))
    full = indptr[:-1] < indptr[1:]
    if full.any():
        out[:, full] = np.add.reduceat(cols, indptr[:-1][full], axis=1)
    return out


def _nolink_mass(side, pairs):
    # column p: the sum of side[:, q] over p's non-linked partners q
    total = side.sum(axis=1, keepdims=True)
    return total - side - _segment_sums(side[:, pairs.indices], pairs.indptr)


def _side_logits(elogpi, counterpart, log_f):
    # one pair side, group-major: the owner's expected log-membership plus
    # the link evidence against the (mean) counterpart side; log_f[g, h] is
    # the log-likelihood for own group g and counterpart group h
    return elogpi + log_f @ counterpart


def _group_softmax(logits):
    # softmax over the leading group axis, in place
    logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0)
    return logits


def _gamma_block(alpha, pairs, phi_out, phi_in, nolink_out, nolink_in, act):
    # prior plus the pair sides drawn from each person's membership: the
    # sender sides of p's linked pairs, the receiver sides of the reversed
    # pairs (q, p), n0_p copies of each non-link side; plus activity sums
    sides = _segment_sums(phi_out, pairs.indptr)
    sides += _segment_sums(phi_in[:, pairs.reverse], pairs.indptr)
    sides += pairs.n0 * (nolink_out + nolink_in)
    return alpha[None, :] + sides.T + act


def _lambda_logits(dig, mu, log_theta):
    # digamma of the membership pseudo-counts plus the role posterior's
    # expected log-rate per group
    return dig + mu @ log_theta.T


def _activity_sums(flat_lam, act_indptr):
    # per-person sums of the stacked activity group posteriors, (N, M)
    return _segment_sums(flat_lam.T, act_indptr).T


def _activity_indptr(counts):
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _stacked(state: Glad0Variational, data: ActivityDataset):
    # stacked activity rows (people ascending) and each row's feature id
    n, m = state.gamma.shape
    k = state.mu_act[0].shape[1] if state.mu_act else 1
    flat_lam = np.concatenate(state.lam_act) if n else np.zeros((0, m))
    flat_mu = np.concatenate(state.mu_act) if n else np.zeros((0, k))
    ids = np.concatenate(data.feature_ids) if n else np.zeros(0, dtype=np.int64)
    return flat_lam, flat_mu, ids


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

    flat_lam, flat_mu, ids = _stacked(state, data)
    beta = np.stack(
        [np.bincount(ids, weights=col, minlength=data.n_features) for col in flat_mu.T],
        axis=1,
    )
    return ModelParams(
        alpha=alpha,
        block=block,
        theta=normalize_or_uniform(flat_lam.T @ flat_mu, 1, "theta row"),
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
    total = dirichlet_terms(params.alpha, gamma, elogpi)

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

    flat_lam, flat_mu, ids = _stacked(state, data)
    person = np.repeat(np.arange(data.n_nodes), data.activity_counts)
    return total + row_terms(
        flat_lam, elogpi[person], flat_mu, floored_log(params.theta),
        floored_log(params.beta)[ids],
    )


# ---------------------------------------------------------------------------
# block sweep for the fit loop
# ---------------------------------------------------------------------------

def _update(arr, new):
    # write ``new`` into ``arr``; returns the largest entry change
    delta = float(np.abs(new - arr).max()) if arr.size else 0.0
    arr[:] = new
    return delta


def _sweep0(params, pairs, gamma, phi_out, phi_in, nolink_out, nolink_in,
            flat_lam, flat_mu, act_indptr, ids):
    """One block-coordinate pass in the module docstring's order; returns
    the largest posterior change.

    The linked sides of one direction are mutually independent given the
    other direction, and so are the non-link sides a given b and b given a;
    the same holds for the stacked activity arrays given gamma and each
    other.  So each whole-array update is an exact block maximizer.
    """
    elogpi = _expected_log_pi(gamma).T
    log_b = np.log(params.block)
    log_1mb = np.log1p(-params.block)
    # a person linked to everyone has no non-link mass, and its shared sides
    # enter no term: any finite divisor will do
    n0 = np.maximum(pairs.n0, 1)

    delta = _update(phi_out, _group_softmax(
        _side_logits(elogpi[:, pairs.sender], phi_in, log_b)))
    delta = max(delta, _update(phi_in, _group_softmax(
        _side_logits(elogpi[:, pairs.indices], phi_out, log_b.T))))
    delta = max(delta, _update(nolink_out, _group_softmax(
        _side_logits(elogpi, _nolink_mass(nolink_in, pairs) / n0, log_1mb))))
    delta = max(delta, _update(nolink_in, _group_softmax(
        _side_logits(elogpi, _nolink_mass(nolink_out, pairs) / n0, log_1mb.T))))

    gamma[:] = _gamma_block(params.alpha, pairs, phi_out, phi_in, nolink_out, nolink_in,
                            _activity_sums(flat_lam, act_indptr))
    if flat_lam.shape[0]:
        dig = np.repeat(digamma(gamma), np.diff(act_indptr), axis=0)
        log_theta = floored_log(params.theta)
        delta = max(delta, _update(
            flat_lam, softmax(_lambda_logits(dig, flat_mu, log_theta))))
        delta = max(delta, _update(
            flat_mu, softmax(_mu_logits(flat_lam, log_theta, floored_log(params.beta)[ids]))))
    return delta


def _init0(data, n_groups, n_roles, config):
    """Seeded parameters and the noise-broken uniform starting posteriors:
    ``(params, pairs, gamma, phi_out, phi_in, nolink_out, nolink_in,
    flat_lam, flat_mu)``.  The jitter is drawn in that order, pair sides
    pair by pair, as (2E, M) and (N, M)."""
    rng = np.random.default_rng(config.seed)
    n = data.n_nodes
    params = seed_params(data, n_groups, n_roles, rng, config.alpha0)
    pairs = _pairs(data)
    acts = int(data.activity_counts.sum())
    shapes = ((pairs.indices.size, n_groups), (pairs.indices.size, n_groups),
              (n, n_groups), (n, n_groups), (acts, n_groups), (acts, n_roles))
    rows = [np.full(shape, 1.0 / shape[1]) for shape in shapes]
    for arr in rows:
        jitter_rows(arr, rng)
    phi_out, phi_in, nolink_out, nolink_in = (np.ascontiguousarray(a.T) for a in rows[:4])
    flat_lam, flat_mu = rows[4:]
    gamma = _gamma_block(params.alpha, pairs, phi_out, phi_in, nolink_out, nolink_in,
                         _activity_sums(flat_lam, _activity_indptr(data.activity_counts)))
    return params, pairs, gamma, phi_out, phi_in, nolink_out, nolink_in, flat_lam, flat_mu


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
    gamma, phi_out, phi_in, nolink_out, nolink_in, flat_lam, flat_mu = arrays
    counts = data.activity_counts
    act_indptr = _activity_indptr(counts)
    ids = np.concatenate(data.feature_ids) if counts.sum() else np.zeros(0, dtype=np.int64)
    cuts = act_indptr[1:-1]

    def snapshot():
        return Glad0Variational(
            gamma=gamma,
            phi_out=phi_out,
            phi_in=phi_in,
            nolink_out=nolink_out,
            nolink_in=nolink_in,
            lam_act=tuple(np.array(a) for a in np.split(flat_lam, cuts)),
            mu_act=tuple(np.array(a) for a in np.split(flat_mu, cuts)),
        )

    def step():
        nonlocal params
        for _ in range(config.inner_max):
            delta = _sweep0(params, pairs, *arrays, act_indptr, ids)
            if delta <= config.inner_tol:
                break
        state = snapshot()
        params = m_step0(data, state, params.alpha)
        return compute_elbo0(data, params, state)

    first = compute_elbo0(data, params, snapshot())
    trace, converged = run_em(first, step, config.max_iters, config.tol)
    return FitResult(params=params, state=snapshot(), trace=trace, converged=converged)
