"""Variational EM for the per-pair membership variant.

Each ordered pair (p, q) carries two latent group draws — the sender side
from person p's membership distribution and the receiver side from q's —
and every single activity carries its own (group, role) pair.  The
variational family gives every one of those latents a private simplex:

    gamma    (N, M)     Dirichlet posteriors over memberships
    phi_out  (N, N, M)  posterior of the sender-side group of pair (p, q)
    phi_in   (N, N, M)  posterior of the receiver-side group of pair (p, q)
    lam_act  ragged     per-activity group posterior, (A_p, M) per person
    mu_act   ragged     per-activity role posterior, (A_p, K) per person

Diagonal (p, p) rows of the pair arrays are placeholders kept uniform;
no update ever reads them and every sum over counterparts excludes them.

The lower bound (``compute_elbo0``) is assembled for the model exactly as
generated: receiver sides draw from the *receiver's* membership.  Every
update is its exact coordinate maximizer.  The membership update credits
person p with the pair sides drawn from p's membership, the sender row
``phi_out[p, :]`` plus the receiver column ``phi_in[:, p]``, as in MMSB; the
published form pools p's sender and receiver rows, which does not maximize
this bound.  Each update is written once, as a block kernel that ``fit0``
sweeps; the public single-coordinate updates read one entry of it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .glad_vem import jitter_rows, newton_alpha, seed_params
from .model import (
    ActivityDataset,
    GladNumericsError,
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
    "Fit0Result",
    "init_state0",
    "update_gamma0",
    "update_phi_out",
    "update_phi_in",
    "update_lambda0",
    "update_mu0",
    "m_step0",
    "compute_elbo0",
    "fit0",
]


@dataclass(frozen=True)
class Fit0Config:
    """Knobs of the nested loop: ``max_iters``/``tol`` bound the outer EM
    loop, ``inner_max``/``inner_tol`` the inner block sweeps.  The prior
    starts at ``alpha0``; ``alpha_mode="newton"`` re-fits it in every M-step.
    ``restarts > 1`` keeps the best final bound of several seeded fits."""

    max_iters: int = 100
    tol: float = 1e-6
    inner_max: int = 50
    inner_tol: float = 1e-6
    seed: int = 0
    alpha_mode: str = "fixed"
    alpha0: float = 0.1
    restarts: int = 1

    def __post_init__(self):
        if self.max_iters < 1 or self.inner_max < 1 or self.restarts < 1:
            raise ValueError("iteration caps must be >= 1")
        if self.tol < 0 or self.inner_tol < 0:
            raise ValueError("tolerances must be >= 0")
        if self.alpha_mode not in ("fixed", "newton"):
            raise ValueError("alpha_mode must be 'fixed' or 'newton'")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")


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
        if self.phi_out.shape != (n, n, m) or self.phi_in.shape != (n, n, m):
            raise ValueError("pair posteriors must be (N, N, M)")
        if np.any(~(self.gamma > 0)):
            raise ValueError("gamma must stay strictly positive")
        for name, arr in (("phi_out", self.phi_out), ("phi_in", self.phi_in)):
            if np.any(np.abs(arr.sum(axis=2) - 1.0) > SIMPLEX_ATOL):
                raise ValueError(f"{name} rows must be simplices")
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


@dataclass(frozen=True)
class Fit0Result:
    params: ModelParams
    state: Glad0Variational
    trace: np.ndarray
    converged: bool

    @property
    def n_iters(self) -> int:
        return len(self.trace) - 1


def init_state0(
    activity_counts: np.ndarray, n_groups: int, n_roles: int
) -> Glad0Variational:
    """Uniform posteriors sized for ``activity_counts`` activities per person."""
    counts = np.asarray(activity_counts, dtype=np.int64)
    n = counts.shape[0]
    if n < 1 or n_groups < 1 or n_roles < 1:
        raise ValueError("need at least one person, group, and role")
    gamma = np.full((n, n_groups), 1.0 / n_groups)
    phi = np.full((n, n, n_groups), 1.0 / n_groups)
    lam = tuple(np.full((a, n_groups), 1.0 / n_groups) for a in counts)
    mu = tuple(np.full((a, n_roles), 1.0 / n_roles) for a in counts)
    return Glad0Variational(
        gamma=gamma, phi_out=phi, phi_in=phi.copy(), lam_act=lam, mu_act=mu
    )


# ---------------------------------------------------------------------------
# update kernels: each update written once, over whole arrays
# ---------------------------------------------------------------------------

def _elogpi(gamma):
    # expected log-membership under each row's Dirichlet posterior
    return digamma(gamma) - digamma(gamma.sum(axis=1))[:, None]


def _phi_logits(y, block, other, elogpi, side):
    # side "out": the sender's expected log-membership plus the link evidence
    # against the receiver side, whose group indexes the block's second axis;
    # side "in" transposes the block and keys the membership by the receiver.
    log_b = np.log(block) if side == "out" else np.log(block).T
    log_1mb = np.log1p(-block) if side == "out" else np.log1p(-block).T
    linked = np.einsum("pqh,gh->pqg", other, log_b)
    unlinked = np.einsum("pqh,gh->pqg", other, log_1mb)
    field = np.where(y[:, :, None] > 0, linked, unlinked)
    return field + (elogpi[:, None, :] if side == "out" else elogpi[None, :, :])


def _activity_sums(flat_lam, person, n):
    # per-person sums of the stacked activity group posteriors
    act = np.zeros((n, flat_lam.shape[1]))
    np.add.at(act, person, flat_lam)
    return act


def _gamma_block(alpha, phi_out, phi_in, act):
    # prior plus the pair sides drawn from each person's membership (sender
    # row plus receiver column, self pairs excluded) plus activity sums
    n = phi_out.shape[0]
    off = (~np.eye(n, dtype=bool)).astype(float)[:, :, None]
    return alpha[None, :] + ((phi_out * off).sum(axis=1) + (phi_in * off).sum(axis=0)) + act


def _lambda_logits(dig, mu, log_theta):
    # digamma of the membership pseudo-counts plus the role posterior's
    # expected log-rate per group
    return dig + mu @ log_theta.T


def _mu_logits(lam, log_theta, log_beta):
    # expected log-rate under the group posterior plus the observed
    # feature's log-emission
    return lam @ log_theta + log_beta


# ---------------------------------------------------------------------------
# single-coordinate updates: one entry of each kernel
# ---------------------------------------------------------------------------

def update_gamma0(p, alpha, phi_out, phi_in, lam_act) -> np.ndarray:
    """Membership pseudo-counts: prior plus person p's sender row and receiver
    column (self pair excluded) plus p's activity group posteriors."""
    n = phi_out.shape[0]
    person = np.repeat(np.arange(n), [lam.shape[0] for lam in lam_act])
    act = _activity_sums(np.concatenate(lam_act), person, n)
    return _gamma_block(alpha, phi_out, phi_in, act)[p]


def _phi_entry(p, q, data, params, state, side):
    if p == q:
        raise ValueError("no pair posterior for a self pair")
    pair = np.s_[p : p + 1, q : q + 1]
    person, other = (p, state.phi_in) if side == "out" else (q, state.phi_out)
    elogpi = _elogpi(state.gamma[person : person + 1])
    logits = _phi_logits(data.links[pair], params.block, other[pair], elogpi, side)
    return softmax(logits)[0, 0]


def update_phi_out(p, q, data, params, state) -> np.ndarray:
    """Sender-side pair posterior for (p, q): the sender's expected
    log-membership plus the link evidence against the receiver side."""
    return _phi_entry(p, q, data, params, state, "out")


def update_phi_in(p, q, data, params, state) -> np.ndarray:
    """Receiver-side pair posterior for (p, q), keyed by the receiver's
    membership (the side is drawn from person q's distribution)."""
    return _phi_entry(p, q, data, params, state, "in")


def update_lambda0(p, a, params, state) -> np.ndarray:
    """Activity group posterior: digamma of the membership pseudo-counts
    plus the role posterior's expected log-rate per group."""
    log_theta = floored_log(params.theta)
    return softmax(_lambda_logits(digamma(state.gamma[p]), state.mu_act[p][a], log_theta))


def update_mu0(p, a, data, params, state) -> np.ndarray:
    """Activity role posterior: expected log-rate under the activity's
    group posterior plus the observed feature's log-emission."""
    log_beta = floored_log(params.beta)[data.feature_ids[p][a]]
    return softmax(_mu_logits(state.lam_act[p][a], floored_log(params.theta), log_beta))


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------

def m_step0(
    data: ActivityDataset,
    state: Glad0Variational,
    alpha: np.ndarray,
    *,
    alpha_mode: str = "fixed",
) -> ModelParams:
    """Closed-form parameter maximizers from pair and activity posteriors."""
    n, m = state.gamma.shape
    off = ~np.eye(n, dtype=bool)
    y = data.links.astype(float) * off
    phi_o, phi_i = state.phi_out, state.phi_in
    num = np.einsum("pq,pqg,pqh->gh", y, phi_o, phi_i)
    den = np.einsum("pq,pqg,pqh->gh", off.astype(float), phi_o, phi_i)
    bad = den <= 0
    if np.any(bad):
        warnings.warn("pair mass vanished for some group pairs; 1/2 fallback")
    block = np.where(bad, 0.5, num / np.where(bad, 1.0, den))
    block = np.clip(block, PROB_EPS, 1.0 - PROB_EPS)

    k = state.mu_act[0].shape[1] if state.mu_act else 1
    flat_lam = np.concatenate(state.lam_act) if n else np.zeros((0, m))
    flat_mu = np.concatenate(state.mu_act) if n else np.zeros((0, k))
    ids = np.concatenate(data.feature_ids) if n else np.zeros(0, dtype=np.int64)
    theta = flat_lam.T @ flat_mu
    beta = np.zeros((data.n_features, k))
    np.add.at(beta, ids, flat_mu)
    empty = theta.sum(axis=1) <= 0
    if np.any(empty):
        warnings.warn("groups with no activity mass; uniform rate fallback")
        theta[empty] = 1.0
    theta /= theta.sum(axis=1, keepdims=True)
    starved = beta.sum(axis=0) <= 0
    if np.any(starved):
        warnings.warn("roles with no feature mass; uniform emission fallback")
        beta[:, starved] = 1.0
    beta /= beta.sum(axis=0, keepdims=True)

    if alpha_mode == "newton":
        alpha, ok = newton_alpha(state.gamma, alpha0=alpha)
        if not ok:
            warnings.warn("alpha Newton steps did not converge; using last value")
    return ModelParams(alpha=alpha, block=block, theta=theta, beta=beta)


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
    alpha = params.alpha
    off = (~np.eye(n, dtype=bool)).astype(float)
    elogpi = _elogpi(gamma)

    total = n * float(gammaln(alpha.sum()) - gammaln(alpha).sum())
    total += float(((alpha - 1.0) * elogpi).sum())
    total -= float(
        (
            gammaln(gamma.sum(axis=1))
            - gammaln(gamma).sum(axis=1)
            + ((gamma - 1.0) * elogpi).sum(axis=1)
        ).sum()
    )

    phi_o_masked = phi_o * off[:, :, None]
    phi_i_masked = phi_i * off[:, :, None]
    total += float(np.einsum("pqg,pg->", phi_o_masked, elogpi))
    total += float(np.einsum("pqh,qh->", phi_i_masked, elogpi))

    log_b = np.log(params.block)
    log_1mb = np.log1p(-params.block)
    linked = np.einsum("pqg,gh,pqh->pq", phi_o, log_b, phi_i)
    unlinked = np.einsum("pqg,gh,pqh->pq", phi_o, log_1mb, phi_i)
    y = data.links.astype(float)
    total += float((off * (y * linked + (1.0 - y) * unlinked)).sum())

    total -= float((phi_o_masked * floored_log(phi_o)).sum())
    total -= float((phi_i_masked * floored_log(phi_i)).sum())

    log_theta = floored_log(params.theta)
    log_beta = floored_log(params.beta)
    counts = np.array([lam.shape[0] for lam in state.lam_act])
    person = np.repeat(np.arange(n), counts)
    flat_lam = np.concatenate(state.lam_act) if n else np.zeros((0, m))
    flat_mu = np.concatenate(state.mu_act) if n else np.zeros((0, 1))
    ids = np.concatenate(data.feature_ids) if n else np.zeros(0, dtype=np.int64)
    total += float((flat_lam * elogpi[person]).sum())
    total += float(np.einsum("ag,gk,ak->", flat_lam, log_theta, flat_mu))
    total += float((flat_mu * log_beta[ids]).sum())
    total -= float((flat_lam * floored_log(flat_lam)).sum())
    total -= float((flat_mu * floored_log(flat_mu)).sum())
    return total


# ---------------------------------------------------------------------------
# block sweep for the fit loop
# ---------------------------------------------------------------------------

def _uniform_diagonal(phi):
    n, _, m = phi.shape
    phi[np.arange(n), np.arange(n), :] = 1.0 / m
    return phi


def _sweep0(data, params, gamma, phi_out, phi_in, flat_lam, flat_mu, person, ids):
    """One block-coordinate pass; returns the largest posterior change.

    Pair posteriors of one side are mutually independent given the other
    side, so each whole-array update is an exact block maximizer; the
    same holds for the stacked activity arrays given gamma and each other.
    """
    n = gamma.shape[0]
    elogpi = _elogpi(gamma)
    y = data.links

    new_out = _uniform_diagonal(softmax(_phi_logits(y, params.block, phi_in, elogpi, "out")))
    delta = float(np.abs(new_out - phi_out).max())
    phi_out[:] = new_out
    new_in = _uniform_diagonal(softmax(_phi_logits(y, params.block, phi_out, elogpi, "in")))
    delta = max(delta, float(np.abs(new_in - phi_in).max()))
    phi_in[:] = new_in

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
) -> Fit0Result:
    """Nested variational EM: inner E-loop to a fixed point, then M-step.

    The inner loop repeats block sweeps until the largest posterior change
    drops below ``inner_tol`` (or ``inner_max`` sweeps) and warm-starts
    from the previous outer iteration's posteriors.  The outer loop stops
    on relative change of the lower bound.  With ``restarts > 1`` the
    whole procedure reruns from derived seeds and the best final bound
    wins (bad symmetry-breaking basins score visibly worse).
    Deterministic under seed.
    """
    config = config or Fit0Config()
    if config.restarts > 1:
        children = np.random.SeedSequence(config.seed).spawn(config.restarts)
        best = None
        for child in children:
            sub = replace(config, restarts=1, seed=int(child.generate_state(1)[0]))
            candidate = fit0(data, n_groups, n_roles, sub)
            if best is None or candidate.trace[-1] > best.trace[-1]:
                best = candidate
        return best
    rng = np.random.default_rng(config.seed)
    n = data.n_nodes
    if n_groups > n:
        warnings.warn("more groups than people; expect degenerate groups")
    params = seed_params(data.links, data.n_features, n_groups, n_roles, rng, config.alpha0)

    counts = data.activity_counts
    total_acts = int(counts.sum())
    person = np.repeat(np.arange(n), counts)
    ids = np.concatenate(data.feature_ids) if total_acts else np.zeros(0, dtype=np.int64)
    phi_out = np.full((n, n, n_groups), 1.0 / n_groups)
    phi_in = np.full((n, n, n_groups), 1.0 / n_groups)
    flat_lam = np.full((total_acts, n_groups), 1.0 / n_groups)
    flat_mu = np.full((total_acts, n_roles), 1.0 / n_roles)

    for phi in (phi_out, phi_in):
        jitter_rows(phi, rng)
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

    bound = compute_elbo0(data, params, snapshot())
    trace = [bound]
    converged = False
    for _ in range(config.max_iters):
        for _ in range(config.inner_max):
            delta = _sweep0(
                data, params, gamma, phi_out, phi_in, flat_lam, flat_mu, person, ids
            )
            if delta <= config.inner_tol:
                break
        state = snapshot()
        params = m_step0(data, state, params.alpha, alpha_mode=config.alpha_mode)
        previous = bound
        bound = compute_elbo0(data, params, state)
        if not np.isfinite(bound):
            raise GladNumericsError("lower bound became non-finite")
        trace.append(bound)
        if abs(bound - previous) <= config.tol * max(1.0, abs(previous)):
            converged = True
            break
    return Fit0Result(
        params=params, state=snapshot(), trace=np.asarray(trace), converged=converged
    )
