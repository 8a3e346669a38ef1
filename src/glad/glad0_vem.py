"""Variational EM for the per-pair membership variant.

Each ordered pair (p, q) carries two latent group draws — the sender side
from person p's membership distribution and the receiver side from q's —
and every single activity carries its own (group, role) pair.  The
variational family gives every one of those latents a private simplex:

    gamma    (N, M)     Dirichlet posteriors over memberships
    phi_out  (M, N, N)  posterior of the sender-side group of pair (p, q)
    phi_in   (M, N, N)  posterior of the receiver-side group of pair (p, q)
    lam_act  ragged     per-activity group posterior, (A_p, M) per person
    mu_act   ragged     per-activity role posterior, (A_p, K) per person

The pair arrays are group-major, ``phi_out[g, p, q]``: with M small, each
per-pair softmax reduces over the leading axis, and the link evidence of a
whole side is one (M, M) @ (M, N*N) product.  ``Glad0Variational`` holds the
arrays that ``fit0`` sweeps, and the M-step and the bound read them in that
layout.  Diagonal (p, p) entries of the pair arrays are placeholders kept
uniform; no update ever reads them and every sum over counterparts excludes
them.

The lower bound (``compute_elbo0``) is assembled for the model exactly as
generated: receiver sides draw from the *receiver's* membership.  Every
update is its exact coordinate maximizer.  The membership update credits
person p with the pair sides drawn from p's membership, the sender row
``phi_out[:, p, :]`` plus the receiver column ``phi_in[:, :, p]``, as in
MMSB; the published form pools p's sender and receiver rows, which does not
maximize this bound.  Each update is written once, as a block kernel over
whole arrays that ``fit0`` sweeps: ``_phi_logits`` for one pair side,
``_gamma_block``, and ``_lambda_logits`` and ``_mu_logits`` over the stacked
activities.

The mean-field core shared with the static model comes from ``glad_vem``:
E[log pi] (``_expected_log_pi``), the role logits (``_mu_logits``), the
Dirichlet and per-activity bound terms (``dirichlet_terms``, ``row_terms``),
the M-step kernels (``normalize_or_uniform``, ``block_ratio``), the start
(``seed_params``, ``jitter_rows``), the EM loop (``run_em``),
``best_of_restarts`` and the result type ``FitResult``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .glad_vem import (
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
    """Pair-level and activity-level posteriors; see the module docstring."""

    gamma: np.ndarray
    phi_out: np.ndarray
    phi_in: np.ndarray
    lam_act: tuple
    mu_act: tuple

    def __post_init__(self):
        n, m = self.gamma.shape
        if self.phi_out.shape != (m, n, n) or self.phi_in.shape != (m, n, n):
            raise ValueError("pair posteriors must be (M, N, N)")
        if np.any(~(self.gamma > 0)):
            raise ValueError("gamma must stay strictly positive")
        for name, arr in (("phi_out", self.phi_out), ("phi_in", self.phi_in)):
            if np.any(np.abs(arr.sum(axis=0) - 1.0) > SIMPLEX_ATOL):
                raise ValueError(f"{name} pair posteriors must be simplices")
        if len(self.lam_act) != n or len(self.mu_act) != n:
            raise ValueError("need one activity posterior list per person")
        for lam, mu in zip(self.lam_act, self.mu_act):
            if lam.shape[0] != mu.shape[0] or lam.shape[1] != m:
                raise ValueError("activity posteriors misshaped")
            for arr in (lam, mu):
                if arr.size and np.any(np.abs(arr.sum(axis=1) - 1.0) > SIMPLEX_ATOL):
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


# ---------------------------------------------------------------------------
# update kernels: each update written once, over whole arrays
# ---------------------------------------------------------------------------

def _phi_logits(y, block, other, elogpi, side, work=None):
    # group-major (M, N, N) logits of one pair side.  Side "out": the sender's
    # expected log-membership plus the link evidence against the receiver
    # side, whose group indexes the block's second axis; side "in" transposes
    # the block and keys the membership by the receiver.  ``work`` is a
    # (2, M, N, N) scratch buffer; the logits are written into ``work[1]``.
    log_b = np.log(block) if side == "out" else np.log(block).T
    log_1mb = np.log1p(-block) if side == "out" else np.log1p(-block).T
    if work is None:
        work = np.empty((2,) + other.shape)
    linked, field = work
    flat = other.reshape(other.shape[0], -1)
    np.matmul(log_b, flat, out=linked.reshape(flat.shape))
    np.matmul(log_1mb, flat, out=field.reshape(flat.shape))
    np.copyto(field, linked, where=y > 0)
    field += elogpi.T[:, :, None] if side == "out" else elogpi.T[:, None, :]
    return field


def _group_softmax(logits):
    # softmax over the leading group axis, in place
    logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0)
    return logits


def _activity_sums(flat_lam, person, n):
    # per-person sums of the stacked activity group posteriors
    act = np.zeros((n, flat_lam.shape[1]))
    np.add.at(act, person, flat_lam)
    return act


def _gamma_block(alpha, phi_out, phi_in, act):
    # prior plus the pair sides drawn from each person's membership (sender
    # row plus receiver column of the group-major arrays, self pair
    # subtracted) plus activity sums
    rows = phi_out.sum(axis=2) - np.diagonal(phi_out, axis1=1, axis2=2)
    cols = phi_in.sum(axis=1) - np.diagonal(phi_in, axis1=1, axis2=2)
    return alpha[None, :] + (rows + cols).T + act


def _lambda_logits(dig, mu, log_theta):
    # digamma of the membership pseudo-counts plus the role posterior's
    # expected log-rate per group
    return dig + mu @ log_theta.T


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
    n, m = state.gamma.shape
    off = ~np.eye(n, dtype=bool)
    y = data.links.astype(float) * off
    phi_o, phi_i = state.phi_out, state.phi_in
    num = np.einsum("pq,gpq,hpq->gh", y, phi_o, phi_i)
    den = np.einsum("pq,gpq,hpq->gh", off.astype(float), phi_o, phi_i)
    block = np.clip(block_ratio(num, den), PROB_EPS, 1.0 - PROB_EPS)

    k = state.mu_act[0].shape[1] if state.mu_act else 1
    flat_lam = np.concatenate(state.lam_act) if n else np.zeros((0, m))
    flat_mu = np.concatenate(state.mu_act) if n else np.zeros((0, k))
    ids = np.concatenate(data.feature_ids) if n else np.zeros(0, dtype=np.int64)
    beta = np.zeros((data.n_features, k))
    np.add.at(beta, ids, flat_mu)
    return ModelParams(
        alpha=alpha,
        block=block,
        theta=normalize_or_uniform(flat_lam.T @ flat_mu, 1, "theta row"),
        beta=normalize_or_uniform(beta, 0, "beta column"),
    )


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------

def compute_elbo0(
    data: ActivityDataset, params: ModelParams, state: Glad0Variational
) -> float:
    """Variational lower bound for the pair-level model.

    Every ordered pair contributes its own sender/receiver draws and its
    own Bernoulli term, matching the latent bookkeeping of the updates.
    """
    gamma, phi_o, phi_i = state.gamma, state.phi_out, state.phi_in
    n, m = gamma.shape
    off = (~np.eye(n, dtype=bool)).astype(float)
    elogpi = _expected_log_pi(gamma)
    total = dirichlet_terms(params.alpha, gamma, elogpi)

    phi_o_masked = phi_o * off
    phi_i_masked = phi_i * off
    total += float(np.einsum("gpq,pg->", phi_o_masked, elogpi))
    total += float(np.einsum("hpq,qh->", phi_i_masked, elogpi))

    log_b = np.log(params.block)
    log_1mb = np.log1p(-params.block)
    linked = np.einsum("gpq,gh,hpq->pq", phi_o, log_b, phi_i)
    unlinked = np.einsum("gpq,gh,hpq->pq", phi_o, log_1mb, phi_i)
    y = data.links.astype(float)
    total += float((off * (y * linked + (1.0 - y) * unlinked)).sum())

    total -= float((phi_o_masked * floored_log(phi_o)).sum())
    total -= float((phi_i_masked * floored_log(phi_i)).sum())

    counts = np.array([lam.shape[0] for lam in state.lam_act])
    person = np.repeat(np.arange(n), counts)
    flat_lam = np.concatenate(state.lam_act) if n else np.zeros((0, m))
    flat_mu = np.concatenate(state.mu_act) if n else np.zeros((0, 1))
    ids = np.concatenate(data.feature_ids) if n else np.zeros(0, dtype=np.int64)
    return total + row_terms(
        flat_lam, elogpi[person], flat_mu, floored_log(params.theta),
        floored_log(params.beta)[ids],
    )


# ---------------------------------------------------------------------------
# block sweep for the fit loop
# ---------------------------------------------------------------------------

def _uniform_diagonal(phi):
    m, n, _ = phi.shape
    phi[:, np.arange(n), np.arange(n)] = 1.0 / m
    return phi


def _sweep0(data, params, gamma, phi_out, phi_in, flat_lam, flat_mu, person, ids):
    """One block-coordinate pass over group-major (M, N, N) pair arrays;
    returns the largest posterior change.

    Pair posteriors of one side are mutually independent given the other
    side, so each whole-array update is an exact block maximizer; the
    same holds for the stacked activity arrays given gamma and each other.
    """
    n = gamma.shape[0]
    elogpi = _expected_log_pi(gamma)
    y = data.links
    # one scratch buffer for both pair sides, freed before the M-step and
    # the bound, so it adds nothing to the fit's peak memory
    work = np.empty((2,) + phi_out.shape)

    pair_deltas = []
    for phi, side, other in ((phi_out, "out", phi_in), (phi_in, "in", phi_out)):
        logits = _phi_logits(y, params.block, other, elogpi, side, work)
        new = _uniform_diagonal(_group_softmax(logits))
        change = np.subtract(new, phi, out=work[0])
        pair_deltas.append(float(np.abs(change, out=change).max()))
        phi[:] = new
    delta = max(pair_deltas)

    gamma[:] = _gamma_block(params.alpha, phi_out, phi_in, _activity_sums(flat_lam, person, n))
    if flat_lam.shape[0]:
        log_theta = floored_log(params.theta)
        new_lam = softmax(_lambda_logits(digamma(gamma)[person], flat_mu, log_theta))
        delta = max(delta, float(np.abs(new_lam - flat_lam).max()))
        flat_lam[:] = new_lam
        new_mu = softmax(_mu_logits(flat_lam, log_theta, floored_log(params.beta)[ids]))
        delta = max(delta, float(np.abs(new_mu - flat_mu).max()))
        flat_mu[:] = new_mu
    return delta


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
    rng = np.random.default_rng(config.seed)
    n = data.n_nodes
    params = seed_params(data, n_groups, n_roles, rng, config.alpha0)

    counts = data.activity_counts
    total_acts = int(counts.sum())
    person = np.repeat(np.arange(n), counts)
    ids = np.concatenate(data.feature_ids) if total_acts else np.zeros(0, dtype=np.int64)
    phi_out = np.full((n_groups, n, n), 1.0 / n_groups)
    phi_in = np.full((n_groups, n, n), 1.0 / n_groups)
    flat_lam = np.full((total_acts, n_groups), 1.0 / n_groups)
    flat_mu = np.full((total_acts, n_roles), 1.0 / n_roles)

    for phi in (phi_out, phi_in):
        jitter_rows(np.moveaxis(phi, 0, 2), rng)  # draws in (N, N, M) order
        _uniform_diagonal(phi)
    jitter_rows(flat_lam, rng)
    jitter_rows(flat_mu, rng)
    gamma = _gamma_block(params.alpha, phi_out, phi_in, _activity_sums(flat_lam, person, n))

    cuts = np.cumsum(counts)[:-1]

    def snapshot():
        return Glad0Variational(
            gamma=gamma,
            phi_out=phi_out,
            phi_in=phi_in,
            lam_act=tuple(np.array(a) for a in np.split(flat_lam, cuts)),
            mu_act=tuple(np.array(a) for a in np.split(flat_mu, cuts)),
        )

    def step():
        nonlocal params
        for _ in range(config.inner_max):
            delta = _sweep0(
                data, params, gamma, phi_out, phi_in, flat_lam, flat_mu, person, ids
            )
            if delta <= config.inner_tol:
                break
        state = snapshot()
        params = m_step0(data, state, params.alpha)
        return compute_elbo0(data, params, state)

    first = compute_elbo0(data, params, snapshot())
    trace, converged = run_em(first, step, config.max_iters, config.tol)
    return FitResult(params=params, state=snapshot(), trace=trace, converged=converged)
