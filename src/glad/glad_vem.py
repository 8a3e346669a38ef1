"""Variational EM for the static model.

Mean-field family: q(pi_p) Dirichlet(gamma_p), q(G_p) categorical(lambda_p),
q(R_p) categorical(mu_p).  The E-step is a Gauss-Seidel sweep over people in
index order, updating gamma_p, lambda_p, mu_p in that order, each written back
in place; every update is the exact coordinate maximizer of the evidence
lower bound, so the per-iteration trace is non-decreasing.  Each update is
written once, as the kernel the sweep runs: gamma = alpha + lambda,
``_lambda_logits`` for one person and ``_mu_logits`` for a block of rows.
The bound counts each unordered pair once (the adjacency matrix is
symmetric; both endpoints still see every partner in their lambda update,
which is the exact gradient of the once-counted term for a symmetric block
matrix).  Self-pairs are excluded throughout.

The graph is read through the dataset's edge index (``Dataset.edges`` and
``Dataset.neighbours``), never as a dense N x N matrix, so one EM iteration
costs O(E*M + N*M^2) for E edges and M groups (plus the role and feature
terms).  Linked mass is gathered over the edges.  The non-link mass
sum_{p<q} lambda_p lambda_q^T is lambda^T S with S_p = sum_{q>p} lambda_q, a
reverse cumulative sum; the once-counted link mass is then subtracted from it.

The M-step re-estimates beta (per-role feature distributions), theta
(per-group role mixtures) and the block matrix in closed form; the Dirichlet
prior alpha stays fixed at its starting value.

Static fits that share one graph run in lockstep (``fit_members``): the
joint fit and the baseline's stage one on the same data, or restarts from
other seeds.  The members share the links, and so the people, and the
group count; each has its own features, role count and config.  The sweep
stacks their lambdas along a member axis, so each person costs one
neighbour gather, one (S, M) softmax and one column-sum update for all S
members.  The M-step, the bound and the stopping rule stay per member, so
a member stops where it would stop alone, and a non-finite bound fails it
alone.  ``fit`` is the one-member case.  A member's arithmetic is its lone
fit's except for the gather's row sum, one product over every member,
which can round differently; members agree with their lone fits to about
1e-13 relative.

The pieces the per-activity variant (``glad0_vem``) and the baselines share
live here once: E[log pi], the Dirichlet and per-row bound terms, the
normalise-with-uniform-fallback and block-ratio M-step kernels,
``best_of_restarts`` with its tie rule (``pick_best``) and the EM loop
itself, ``run_em``: it records the trace, aborts on a non-finite entry and
stops on relative change.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    ActivityDataset,
    Dataset,
    GladNumericsError,
    GladVariational,
    ModelParams,
    PROB_EPS,
    digamma,
    floored_log,
    gammaln,
    softmax,
    validate_params,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "Member",
    "init_state",
    "m_step",
    "compute_elbo",
    "infer_state",
    "fit",
    "fit_members",
]


# Multiplicative symmetry-breaking noise on the uniform starting state.
INIT_NOISE = 0.01
# Edges per block in the linked-mass sum, and pair columns per block in
# glad0's bound.  The two gathered (EDGE_CHUNK, M) blocks stay in cache, and
# no (E, M) copy is ever held: at 2e5 edges this is about 3x faster than one
# gather of every edge and keeps 15 MB off the peak memory of a fit.
EDGE_CHUNK = 8192
# Relative margin by which a restart's final bound must beat an earlier
# one's to replace it (``best_of_restarts``).
RESTART_TIE = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the variational EM loop.

    ``tol`` is relative ELBO change between iterations; ``tol=inf`` stops
    after exactly one iteration.  ``alpha0`` is the Dirichlet prior, which
    the fit keeps fixed.  The E-step is always the Gauss-Seidel sweep that
    carries the ascent guarantee.  Every field is a ``glad fit`` flag.
    """

    max_iters: int = 200
    tol: float = 1e-6
    seed: int = 0
    alpha0: float = 0.1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        # written so that NaN fails the checks
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")
        if not 0 < self.alpha0 < np.inf:
            raise ValueError("alpha0 must be positive and finite")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters, final variational state and the ELBO trace of
    ``fit`` and of glad0's ``fit0``.

    ``trace[0]`` is the bound at initialization; one entry follows per EM
    iteration.  ``converged`` is False when the loop ran out of iterations
    before the relative ELBO change fell below ``tol``.
    """

    params: ModelParams
    state: GladVariational  # a Glad0Variational from fit0
    trace: np.ndarray
    converged: bool

    @property
    def n_iters(self) -> int:
        return len(self.trace) - 1


def init_state(n_nodes: int, n_groups: int, n_roles: int) -> GladVariational:
    """Uniform variational state: gamma = lambda = 1/M, mu = 1/K."""
    if min(n_nodes, n_groups, n_roles) < 1:
        raise ValueError("n_nodes, n_groups and n_roles must be positive")
    return GladVariational(
        gamma=np.full((n_nodes, n_groups), 1.0 / n_groups),
        lam=np.full((n_nodes, n_groups), 1.0 / n_groups),
        mu=np.full((n_nodes, n_roles), 1.0 / n_roles),
    )


# ---------------------------------------------------------------------------
# update kernels (the sweep runs them; the tests pin each against a
# straight-line transcription)
# ---------------------------------------------------------------------------

def _expected_log_pi(gamma: np.ndarray) -> np.ndarray:
    """E[log pi] under Dirichlet(gamma), along the last axis."""
    # one digamma call for the entries and their sums: the sweeps make many
    # calls on small arrays, where the call itself is most of the cost
    dig = digamma(np.concatenate([gamma, gamma.sum(axis=-1, keepdims=True)], axis=-1))
    return dig[..., :-1] - dig[..., -1:]


def _linked_mass(data: Dataset, lam: np.ndarray) -> np.ndarray:
    """sum_{u<v linked} lambda_u lambda_v^T, each linked pair counted once,
    summed over chunks of ``EDGE_CHUNK`` edges."""
    u, v = data.edges
    mass = np.zeros((lam.shape[1], lam.shape[1]))
    for start in range(0, u.size, EDGE_CHUNK):
        chunk = slice(start, start + EDGE_CHUNK)
        mass += lam.take(u[chunk], axis=0).T @ lam.take(v[chunk], axis=0)
    return mass


def _lambda_logits(p, elogpi_p, nbrs, lam, col, log_b, log_1mb, role_logits):
    """Unnormalized log lambda_p: ``elogpi_p`` = E[log pi_p], plus
    sum_{q != p} sum_n lambda_{q,n} * f(Y_pq, B_mn), plus ``role_logits`` =
    sum_k mu_pk log theta_mk.  ``nbrs`` are p's neighbours (self excluded);
    ``col`` is the column sum of ``lam``, row p included.

    ``lam`` is (N, M) for one fit, or (N, S, M) for S fits on one graph,
    with ``col``, ``elogpi_p`` and ``role_logits`` (S, M) and ``log_b`` and
    ``log_1mb`` (S, M, M); the result then has one row per fit."""
    # the row sum as a product with ones: much faster than .sum(axis=0) on
    # a short gather, and one product serves every fit
    gathered = lam.take(nbrs, axis=0).reshape(nbrs.size, col.size)
    linked = (np.ones(nbrs.size) @ gathered).reshape(col.shape)
    notlinked = col - lam[p] - linked
    return elogpi_p + _matvec(log_b, linked) + _matvec(log_1mb, notlinked) + role_logits


def _matvec(a, x):
    """``a @ x`` over the last axis, one product per leading index of a
    stack: each is the product a single (M, M) @ (M,) call computes."""
    return (a @ x[..., None])[..., 0]


def _mu_logits(lam, log_theta, log_beta):
    """Unnormalized log role posterior: the expected log-rate under the
    group posterior ``lam`` plus the feature log-likelihood of each role,
    ``log_beta``; one row per person."""
    return lam @ log_theta + log_beta


def normalize_or_uniform(counts: np.ndarray, axis: int, what: str) -> np.ndarray:
    """``counts`` normalized along ``axis``; a ``what`` (row or column) with
    no mass becomes uniform, with a warning."""
    den = counts.sum(axis=axis, keepdims=True)
    if np.any(den <= 0):
        warnings.warn(f"{what} with no mass; substituting uniform")
        counts = np.where(den > 0, counts, 1.0)
        den = counts.sum(axis=axis, keepdims=True)
    return counts / den


def block_ratio(linked: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Expected link frequency per group pair: linked over total pair mass,
    1/2 (with a warning) where the pair mass vanished."""
    bad = total <= 0
    if np.any(bad):
        warnings.warn("no pair mass for some group pairs; substituting 1/2")
    return np.where(bad, 0.5, linked / np.where(bad, 1.0, total))


def m_step(
    data: Dataset,
    state: GladVariational,
    alpha: np.ndarray,
    *,
    prev: ModelParams | None = None,
) -> ModelParams:
    """Closed-form parameter re-estimation from the current responsibilities.

    beta columns are expected-count feature distributions per role, theta rows
    expected role mixtures per group, and the block matrix the expected link
    frequency between group pairs over all ordered non-self pairs
    (symmetrized to kill round-off skew, then clamped to the Bernoulli band).
    Degenerate denominators fall back to uniform entries with a warning.  The
    prior ``alpha`` passes through unchanged.  ``prev`` is accepted and
    ignored: every parameter is re-estimated from ``state``, but the
    benchmark's traced pass still passes the previous parameters.
    """
    lam, mu = state.lam, state.mu
    if lam.shape[0] != data.n_nodes:
        raise ValueError("state and data disagree on the number of people")

    theta = normalize_or_uniform(lam.T @ mu, 1, "theta row")
    beta = normalize_or_uniform(data.features.T @ mu, 0, "beta column")

    once = _linked_mass(data, lam)
    col = lam.sum(axis=0)
    block = block_ratio(once + once.T, np.outer(col, col) - lam.T @ lam)
    block = np.clip(0.5 * (block + block.T), PROB_EPS, 1.0 - PROB_EPS)
    return ModelParams(alpha=alpha, block=block, theta=theta, beta=beta)


def dirichlet_terms(alpha: np.ndarray, gamma: np.ndarray, elogpi: np.ndarray) -> float:
    """The membership part of the bound: E[log p(pi | alpha)] - E[log q(pi | gamma)],
    summed over people, with ``elogpi`` = E[log pi] under q."""
    norm = float(gammaln(alpha.sum()) - gammaln(alpha).sum())
    log_p = elogpi.shape[0] * norm + float((alpha - 1.0) @ elogpi.sum(axis=0))
    log_q = (
        gammaln(gamma.sum(axis=1))
        - gammaln(gamma).sum(axis=1)
        + ((gamma - 1.0) * elogpi).sum(axis=1)
    )
    return log_p - float(log_q.sum())


def row_terms(lam, elogpi, mu, log_theta, feature_loglik) -> float:
    """The per-row part of the bound, one row per person here and per
    activity in glad0: E[log p(G | pi)] + E[log p(R | G)] + E[log p(x | R)]
    plus the entropies of q(G) and q(R).  ``elogpi`` is E[log pi] of each
    row's owner and ``feature_loglik`` each row's feature log-likelihood per
    role."""
    total = float((lam * elogpi).sum()) - float((lam * floored_log(lam)).sum())
    total += float(np.einsum("ag,gk,ak->", lam, log_theta, mu))
    total += float((mu * feature_loglik).sum()) - float((mu * floored_log(mu)).sum())
    return total


def compute_elbo(data: Dataset, params: ModelParams, state: GladVariational) -> float:
    """Evidence lower bound at the given parameters and variational state.

    Terms: expected feature likelihood (multinomial, coefficient included),
    expected role-given-group and group-given-membership likelihoods, the
    link likelihood over unordered non-self pairs, the Dirichlet prior, minus
    the Dirichlet, group and role entropies of q.  With one role and one
    feature shown once per person every role and feature term is exactly 0,
    which leaves the bound of a mixed-membership blockmodel.
    """
    lam = state.lam
    elogpi = _expected_log_pi(state.gamma)

    # once-counted pair masses: linked over the edges; all pairs p < q
    # through later[p] = sum_{q > p} lambda_q
    linked = _linked_mass(data, lam)
    later = np.zeros_like(lam)
    later[:-1] = np.cumsum(lam[:0:-1], axis=0)[::-1]
    total = lam.T @ later
    log_b = np.log(params.block)
    log_1mb = np.log1p(-params.block)
    pair_term = float((linked * log_b + (total - linked) * log_1mb).sum())

    bound = pair_term + dirichlet_terms(params.alpha, state.gamma, elogpi)
    x = data.features
    return bound + data.log_multinomial_coef + row_terms(
        lam, elogpi, state.mu, floored_log(params.theta), x @ floored_log(params.beta)
    )


# ---------------------------------------------------------------------------
# sweeps and the fit loop
# ---------------------------------------------------------------------------

class _Run:
    """One fit's EM state: its dataset and config, the current parameters,
    the variational arrays the sweep updates in place, and the bound trace.
    ``outcome`` is None while the fit runs, then whether it converged, or
    the GladNumericsError that stopped it."""

    def __init__(self, data, config, params, gamma, lam, mu):
        self.data, self.config = data, config
        self.gamma, self.lam, self.mu = gamma, lam, mu
        self.set_params(params)
        self.trace = []
        self.outcome = None

    def set_params(self, params):
        self.params = params
        self.xlogbeta = self.data.features @ floored_log(params.beta)

    def state(self):
        return GladVariational(self.gamma, self.lam, self.mu)


def _sequential_sweep(neighbours, runs):
    """In-place Gauss-Seidel pass over people: gamma_p, lambda_p, mu_p, for
    each of ``runs`` on the graph ``neighbours`` (CSR).

    gamma_p and p's role logits read only p's own pre-sweep state, and no one
    else reads mu_p, so gamma, E[log pi] and the role logits are computed as
    blocks before the pass and mu after it; only lambda is swept person by
    person.  The result is the same sequence of updates.  The runs' lambdas
    are stacked along a member axis for the pass, so each person costs one
    gather, one softmax and one column-sum update for all of them.
    """
    indptr, indices = neighbours
    for run in runs:
        np.add(run.params.alpha, run.lam, out=run.gamma)
    lam = np.stack([run.lam for run in runs], axis=1)
    elogpi = _expected_log_pi(np.stack([run.gamma for run in runs], axis=1))
    log_theta = [floored_log(run.params.theta) for run in runs]
    role_logits = np.stack([run.mu @ lt.T for run, lt in zip(runs, log_theta)], axis=1)
    log_b = np.stack([np.log(run.params.block) for run in runs])
    log_1mb = np.stack([np.log1p(-run.params.block) for run in runs])
    col = lam.sum(axis=0)
    for p in range(lam.shape[0]):
        new_lam = softmax(_lambda_logits(
            p, elogpi[p], indices[indptr[p]:indptr[p + 1]], lam, col, log_b, log_1mb,
            role_logits[p],
        ))
        col += new_lam - lam[p]
        lam[p] = new_lam
    for s, (run, lt) in enumerate(zip(runs, log_theta)):
        run.lam[:] = lam[:, s]
        run.mu[:] = softmax(_mu_logits(run.lam, lt, run.xlogbeta))


def infer_state(
    data: Dataset,
    params: ModelParams,
    config: FitConfig | None = None,
) -> tuple:
    """Posterior inference at fixed parameters (E-steps only).

    Sweeps until the largest state change falls below ``config.tol`` or
    ``config.max_iters`` sweeps have run.  Returns ``(state, trace)`` with one
    ELBO entry per sweep.
    """
    config = config or FitConfig()
    msgs = validate_params(params)
    if msgs:
        raise ValueError("invalid model parameters: " + "; ".join(msgs))
    state = init_state(data.n_nodes, params.n_groups, params.n_roles)
    run = _Run(
        data, config, params, np.array(state.gamma), np.array(state.lam), np.array(state.mu)
    )

    trace = []
    for _ in range(config.max_iters):
        before = (run.gamma.copy(), run.lam.copy(), run.mu.copy())
        _sequential_sweep(data.neighbours, [run])
        trace.append(compute_elbo(data, params, run.state()))
        delta = max(
            np.max(np.abs(run.gamma - before[0])),
            np.max(np.abs(run.lam - before[1])),
            np.max(np.abs(run.mu - before[2])),
        )
        if delta < config.tol:
            break
    return run.state(), np.array(trace)


def seed_params(
    data: Dataset | ActivityDataset,
    n_groups: int,
    n_roles: int,
    rng: np.random.Generator,
    alpha0: float = 0.1,
) -> ModelParams:
    """Seeded starting parameters for any of the fitters, on a static or
    activity-level dataset.

    The block matrix starts assortative with the diagonal and off-diagonal
    scaled so their membership-weighted mean matches the observed link
    density.  A fully random start makes the first sweep sort people by
    degree alone, which erases the +-1% membership noise and collapses
    everyone into one group; an assortative start lets the sweeps amplify
    neighbourhood structure instead.  Rates and feature profiles are
    random draws; a symmetric jitter keeps block starts seed-dependent.
    """
    n = data.n_nodes
    if n_groups > n:
        warnings.warn("more groups than people; expect degenerate groups")
    theta = rng.dirichlet(np.ones(n_roles), size=n_groups)
    beta = rng.dirichlet(np.ones(data.n_features), size=n_roles).T
    pairs = n * (n - 1) // 2
    density = float(data.edges[0].size) / pairs if pairs else 0.0
    block = np.full((n_groups, n_groups), 0.5 * density)
    np.fill_diagonal(block, 0.5 * (n_groups + 1) * density)
    jitter = rng.uniform(0.9, 1.1, size=(n_groups, n_groups))
    block = np.clip(block * 0.5 * (jitter + jitter.T), PROB_EPS, 1.0 - PROB_EPS)
    return ModelParams(
        alpha=np.full(n_groups, alpha0), block=block, theta=theta, beta=beta
    )


def jitter_rows(arr: np.ndarray, rng: np.random.Generator) -> None:
    """Break symmetry in place: +-INIT_NOISE multiplicative noise on every
    entry, then re-normalize the last axis."""
    arr *= 1.0 + INIT_NOISE * (2.0 * rng.random(arr.shape) - 1.0)
    arr /= arr.sum(axis=-1, keepdims=True)


def _em_stop(trace: list, max_iters: int, tol: float):
    """Whether the EM loop of every fit ends at the newest entry of ``trace``:
    None while it goes on, True once converged, False at ``max_iters``
    iterations.

    ``trace[0]`` is the bound (or log-likelihood) at the start and each
    iteration appends one entry.  A non-finite entry raises
    :class:`GladNumericsError` naming its iteration (0 is the start).  The
    loop converges once the last entry moved by at most ``tol`` relative to
    the one before (absolute below 1).
    """
    iteration = len(trace) - 1
    if not np.isfinite(trace[-1]):
        when = f"at iteration {iteration}" if iteration else "at initialization"
        raise GladNumericsError(f"lower bound is non-finite {when}; aborting")
    if iteration and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-2])):
        return True
    return False if iteration == max_iters else None


def run_em(first: float, step, max_iters: int, tol: float) -> tuple:
    """The EM loop of one fit: ``(trace, converged)``.  ``trace[0]`` is
    ``first``; each further entry is ``step()``, which runs one E-step and
    M-step and returns the new value, until ``_em_stop`` ends the loop."""
    trace = [first]
    while (converged := _em_stop(trace, max_iters, tol)) is None:
        trace.append(step())
    return np.array(trace), converged


def restart_seeds(seed: int, n: int) -> list:
    """The ``n`` child seeds spawned from ``seed`` that restarts start from."""
    return [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(n)]


def pick_best(results):
    """The result with the best final bound.  Mean-field starts
    occasionally merge groups, and the merged basin scores visibly worse.
    Ties keep the earlier result: a later one wins only with a final bound
    higher by more than ``RESTART_TIE`` of the earlier's magnitude, so two
    label-permuted copies of one optimum, whose bounds differ by rounding,
    do not let the last bits of the kernels pick the winner."""
    best = None
    for attempt in results:
        if best is None or (
            attempt.trace[-1] - best.trace[-1] > RESTART_TIE * abs(best.trace[-1])
        ):
            best = attempt
    return best


def best_of_restarts(run, seed: int, n: int):
    """``pick_best`` of ``run(child_seed)`` over the ``restart_seeds``,
    run one after another."""
    return pick_best(run(child) for child in restart_seeds(seed, n))


class Member(NamedTuple):
    """One fit of ``fit_members``: its dataset, role count and config."""

    data: Dataset
    n_roles: int
    config: FitConfig | None = None


def _start(member: Member, n_groups: int) -> _Run:
    """A member's seeded run (see ``fit``), its starting bound recorded."""
    data, n_roles = member.data, member.n_roles
    config = member.config or FitConfig()
    if n_roles > data.n_features:
        warnings.warn("more roles than features; expect redundant roles")
    rng = np.random.default_rng(config.seed)
    params = seed_params(data, n_groups, n_roles, rng, config.alpha0)
    state = init_state(data.n_nodes, n_groups, n_roles)
    lam = np.array(state.lam)
    mu = np.array(state.mu)
    jitter_rows(lam, rng)
    jitter_rows(mu, rng)
    run = _Run(data, config, params, np.array(state.gamma), lam, mu)
    _record(run, compute_elbo(data, params, run.state()))
    return run


def _record(run: _Run, bound: float) -> None:
    run.trace.append(bound)
    try:
        run.outcome = _em_stop(run.trace, run.config.max_iters, run.config.tol)
    except GladNumericsError as exc:
        run.outcome = exc


def fit_members(members, n_groups: int) -> list:
    """Static fits on one graph, run in lockstep.

    Each :class:`Member` is the fit ``fit(member.data, n_groups,
    member.n_roles, member.config)``; the members' datasets hold the same
    links, and may differ in features, role count and config.  Each
    iteration sweeps every running member in one pass over people
    (``_sequential_sweep``), then runs each one's M-step and bound.  A
    member stops where ``fit`` would stop it: at ``tol``, at ``max_iters``,
    or at a non-finite bound, which stops that member only.  Returns one
    entry per member, in order: its :class:`FitResult`, or the
    :class:`GladNumericsError` that ``fit`` would raise.
    """
    members = list(members)
    if not members:
        return []
    links = members[0].data.links
    if any(m.data.links is not links and not np.array_equal(m.data.links, links)
           for m in members):
        raise ValueError("the members of a fit must share one graph")
    runs = [_start(member, n_groups) for member in members]
    active = [run for run in runs if run.outcome is None]
    while active:
        _sequential_sweep(members[0].data.neighbours, active)
        for run in active:
            state = run.state()
            run.set_params(m_step(run.data, state, run.params.alpha))
            _record(run, compute_elbo(run.data, run.params, state))
        active = [run for run in active if run.outcome is None]
    return [
        run.outcome if isinstance(run.outcome, GladNumericsError) else FitResult(
            params=run.params, state=run.state(), trace=np.array(run.trace),
            converged=run.outcome,
        )
        for run in runs
    ]


def raise_failures(results: list) -> list:
    """``results`` of ``fit_members``; the first member's error, if any
    failed, is raised instead."""
    for result in results:
        if isinstance(result, GladNumericsError):
            raise result
    return results


def fit(
    data: Dataset,
    n_groups: int,
    n_roles: int,
    config: FitConfig | None = None,
) -> FitResult:
    """Variational EM: alternate full E-sweeps with closed-form M-steps.

    Initialization is seeded: rates and feature profiles are drawn at
    random, the block matrix starts assortative at the observed density,
    and the uniform state gets +-1% multiplicative symmetry-breaking
    noise (re-normalized).
    The ELBO is recorded at initialization and after every iteration; the
    fit stops when its relative change drops below ``config.tol`` (see
    ``_em_stop``).  A non-finite bound, the initial one included, aborts with
    :class:`GladNumericsError`.  This is ``fit_members`` with one member.
    """
    return raise_failures(fit_members([Member(data, n_roles, config)], n_groups))[0]
