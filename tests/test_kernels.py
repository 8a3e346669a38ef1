import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from glad.model import (
    ActivityDataset,
    Dataset,
    GladVariational,
    ModelParams,
    digamma,
    floored_log,
    gammaln,
    log_softmax,
    logsumexp,
    softmax,
    validate_params,
)

EULER_MASCHERONI = 0.5772156649015329


# ---------------------------------------------------------------------------
# softmax / log_softmax
# ---------------------------------------------------------------------------

def test_softmax_uniform_on_equal_scores():
    np.testing.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25), atol=1e-15)


def test_softmax_handles_large_shifts():
    v = np.array([1000.0, 1000.0 + math.log(3.0)])
    np.testing.assert_allclose(softmax(v), [0.25, 0.75], atol=1e-12)


def test_softmax_empty_errors():
    with pytest.raises(ValueError):
        softmax(np.array([]))
    with pytest.raises(ValueError):
        log_softmax(np.array([]))


@settings(max_examples=200)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
    st.floats(min_value=-100, max_value=100),
)
def test_softmax_shift_invariance(values, shift):
    v = np.array(values)
    np.testing.assert_allclose(softmax(v), softmax(v + shift), atol=1e-12)


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8), st.randoms())
def test_softmax_permutation_equivariance(values, rnd):
    v = np.array(values)
    perm = np.array(rnd.sample(range(len(values)), len(values)))
    np.testing.assert_allclose(softmax(v)[perm], softmax(v[perm]), atol=1e-12)


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=-300, max_value=300), min_size=1, max_size=6))
def test_softmax_is_simplex(values):
    s = softmax(np.array(values))
    assert np.all(s >= 0)
    assert s.sum() == pytest.approx(1.0, abs=1e-9)


def test_log_softmax_agrees_with_scipy():
    rng = np.random.default_rng(7)
    v = rng.normal(size=(5, 6)) * 30
    np.testing.assert_allclose(log_softmax(v), scipy.special.log_softmax(v, axis=-1), atol=1e-12)


# ---------------------------------------------------------------------------
# digamma
# ---------------------------------------------------------------------------

def test_digamma_at_one_is_negative_euler_mascheroni():
    assert digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-12)


def test_digamma_at_two():
    # psi(2) = 1 - euler_mascheroni
    assert digamma(2.0) == pytest.approx(1.0 - EULER_MASCHERONI, abs=1e-12)


def test_digamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        digamma(0.0)
    with pytest.raises(ValueError):
        digamma(-3.0)
    with pytest.raises(ValueError):
        digamma(np.array([1.0, -1.0]))


# where scipy's digamma and gammaln turn infinite (1/x or lnGamma overflows),
# and their neighbours
_SPECIAL_EDGES = [
    5e-324, 1e-320, 1e-310, 1.0 / np.finfo(float).max, 5.6e-309,
    np.finfo(float).tiny / 2, np.finfo(float).tiny,
    1e300, 2.556348e305, 2.5563481e305, 1e306, np.finfo(float).max, np.inf,
]


def _special_grid():
    # seeded: log-uniform from the smallest subnormal to the largest double,
    # the integers + 1 that the count coefficients see, a dense stretch
    # where the recurrences cancel most, and the edges
    rng = np.random.default_rng(19)
    return np.concatenate([
        10.0 ** rng.uniform(-323.5, 308.2, 20000),
        np.arange(1.0, 301.0) + 1.0,
        np.linspace(1e-3, 20.0, 40001),
        _SPECIAL_EDGES,
    ])


@pytest.mark.parametrize("ours, theirs", [
    (digamma, scipy.special.digamma),
    (gammaln, scipy.special.gammaln),
])
def test_special_functions_match_scipy(ours, theirs):
    # to 1e-14, with scipy's infinities where 1/x or the result overflows,
    # and no floating-point warning on any positive input
    x = _special_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ours(x)
        scalars = [ours(v) for v in _SPECIAL_EDGES]
    want = theirs(x)
    assert np.isinf(want).sum() >= 4
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(scalars, theirs(_SPECIAL_EDGES), rtol=1e-14, atol=1e-14)


def test_digamma_matches_scipy_oracle():
    # independent implementation route: compare against scipy over a wide grid
    x = np.concatenate([
        np.linspace(0.01, 1.0, 200),
        np.linspace(1.0, 20.0, 200),
        np.linspace(20.0, 500.0, 100),
    ])
    np.testing.assert_allclose(digamma(x), scipy.special.digamma(x), atol=1e-14, rtol=1e-14)


def test_gammaln_rejects_nonpositive_and_keeps_scalars():
    for bad in (0.0, -2.5, np.array([1.0, -1.0]), np.nan):
        with pytest.raises(ValueError):
            gammaln(bad)
    assert isinstance(gammaln(3.5), float)
    assert gammaln(np.ones((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("axis, keepdims", [(-1, False), (0, False), (1, True)])
def test_logsumexp_matches_scipy(axis, keepdims):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 5)) * 300
    a[0, 1] = -np.inf  # one -inf entry
    a[1] = -np.inf  # a row of them
    a[:, 2] = -np.inf  # and a column
    a[2, 3] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logsumexp(a, axis=axis, keepdims=keepdims)
    want = scipy.special.logsumexp(a, axis=axis, keepdims=keepdims)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


@settings(max_examples=300)
@given(st.floats(min_value=0.1, max_value=100.0))
def test_digamma_recurrence(x):
    # psi(x + 1) = psi(x) + 1/x
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-10)


def test_digamma_scalar_in_scalar_out():
    assert isinstance(digamma(3.5), float)
    assert digamma(np.array([1.0, 2.0])).shape == (2,)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_floored_log_clamps_zero():
    out = floored_log(np.array([0.0, 1.0]))
    assert out[0] == pytest.approx(math.log(1e-12))
    assert out[1] == 0.0


# ---------------------------------------------------------------------------
# value objects and validate_params
# ---------------------------------------------------------------------------

def _good_params():
    return ModelParams(
        alpha=np.array([0.1, 0.1]),
        block=np.array([[0.3, 0.05], [0.05, 0.3]]),
        theta=np.array([[0.1, 0.9], [0.9, 0.1]]),
        beta=np.array([[0.9, 0.1], [0.1, 0.9]]),
    )


def test_validate_params_accepts_good_params():
    assert validate_params(_good_params()) == []


def test_validate_params_flags_bad_theta_row():
    p = _good_params()
    bad = ModelParams(p.alpha, p.block, np.array([[0.5, 0.6], [0.9, 0.1]]), p.beta)
    msgs = validate_params(bad)
    assert any("theta row 0" in m for m in msgs)


def test_validate_params_flags_unclamped_block():
    p = _good_params()
    bad = ModelParams(p.alpha, np.array([[1.0, 0.05], [0.05, 0.3]]), p.theta, p.beta)
    msgs = validate_params(bad)
    assert any("block" in m for m in msgs), msgs


def test_validate_params_flags_nonpositive_alpha():
    p = _good_params()
    bad = ModelParams(np.array([0.0, 0.1]), p.block, p.theta, p.beta)
    assert any("alpha" in m for m in validate_params(bad))


def test_validate_params_flags_shape_mismatches():
    p = _good_params()
    bad = ModelParams(np.array([0.1, 0.1, 0.1]), p.block, p.theta, p.beta)
    assert validate_params(bad)
    bad = ModelParams(p.alpha, np.array([[0.3]]), p.theta, p.beta)
    assert validate_params(bad)


def test_dataset_checks_symmetry_and_counts():
    with pytest.raises(ValueError):
        Dataset(features=np.array([[1, 2]]), links=np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        Dataset(features=np.array([[-1, 2], [0, 0]]), links=np.zeros((2, 2)))
    d = Dataset(features=np.array([[1, 2], [0, 0]]), links=np.array([[0, 1], [1, 0]]))
    assert d.n_nodes == 2 and d.n_features == 2
    np.testing.assert_array_equal(d.trials, [3, 0])


def test_dataset_edge_index_leaves_out_the_diagonal():
    links = np.array([[1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 0]])
    d = Dataset(features=np.zeros((4, 1), dtype=np.int64), links=links)
    u, v = d.edges
    np.testing.assert_array_equal(u, [0, 0, 1])
    np.testing.assert_array_equal(v, [1, 3, 2])
    indptr, indices = d.neighbours
    assert [indices[indptr[p]:indptr[p + 1]].tolist() for p in range(4)] == [
        [1, 3], [0, 2], [1], [0]
    ]
    for arr in (u, v, indptr, indices):
        with pytest.raises(ValueError):
            arr[0] = 5


def test_dataset_with_features_shares_the_graph():
    links = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    d = Dataset(features=np.array([[1, 2], [0, 0], [3, 1]]), links=links)
    other = d.with_features(np.ones((3, 1)))
    # the edge list and the neighbour lists are the same objects, not copies
    assert other.neighbours is d.neighbours and other.edges is d.edges
    np.testing.assert_array_equal(other.links, links)
    np.testing.assert_array_equal(other.features, [[1], [1], [1]])
    assert other.features.dtype == np.int64 and not other.features.flags.writeable
    with pytest.raises(ValueError, match="disagree on the number of people"):
        d.with_features(np.ones((2, 1)))
    with pytest.raises(ValueError, match="non-negative"):
        d.with_features(-np.ones((3, 1)))


def _graph_oracle(y):
    # the sparse views of a dense symmetric matrix, written out pair by pair
    n = y.shape[0]
    rows = [[q for q in range(n) if q != p and y[p, q]] for p in range(n)]
    pairs = [(p, q) for p in range(n) for q in rows[p]]
    return {
        "edges": ([p for p, q in pairs if p < q], [q for p, q in pairs if p < q]),
        "indptr": np.cumsum([0] + [len(r) for r in rows]),
        "indices": [q for _, q in pairs],
        "senders": [p for p, _ in pairs],
        "reverse": [pairs.index((q, p)) for p, q in pairs],
    }


def _assert_graph(data, y):
    want = _graph_oracle(y)
    np.testing.assert_array_equal(data.edges, np.reshape(want["edges"], (2, -1)))
    np.testing.assert_array_equal(data.neighbours[0], want["indptr"])
    np.testing.assert_array_equal(data.neighbours[1], want["indices"])
    np.testing.assert_array_equal(data.senders, want["senders"])
    np.testing.assert_array_equal(data.reverse, want["reverse"])
    # the argsort oracle: pairs ordered by (receiver, sender) list the
    # reversed pairs in CSR order
    np.testing.assert_array_equal(data.reverse, np.argsort(data.neighbours[1], kind="stable"))
    no_diagonal = y * (1 - np.eye(y.shape[0], dtype=y.dtype))
    np.testing.assert_array_equal(data.links, no_diagonal)
    assert data.links.dtype == np.int8
    # ids are int32, positions among the 2E linked ordered pairs int64
    for arr, dtype in ((data.edges[0], np.int32), (data.edges[1], np.int32),
                       (data.neighbours[0], np.int64), (data.neighbours[1], np.int32),
                       (data.senders, np.int32), (data.reverse, np.int64)):
        assert arr.dtype == dtype and not arr.flags.writeable


def _both_ways(y, rng):
    # one dataset of each kind from the dense matrix, and one from its edge
    # list shuffled, each pair in a random orientation
    n = y.shape[0]
    u, v = np.nonzero(np.triu(y, 1))
    order = rng.permutation(u.size)
    flip = rng.random(u.size) < 0.5
    edges = (np.where(flip, v, u)[order], np.where(flip, u, v)[order])
    x = np.ones((n, 2), dtype=np.int64)
    ids, indptr = np.zeros(n, dtype=np.int64), np.arange(n + 1)
    return [
        Dataset(features=x, links=y), Dataset(features=x, edges=edges),
        ActivityDataset(ids, indptr, 2, links=y), ActivityDataset(ids, indptr, 2, edges=edges),
    ]


def _symmetric(n, upper):
    y = np.zeros((n, n), dtype=np.int8)
    y[np.triu_indices(n, 1)] = upper
    return y + y.T


@pytest.mark.parametrize("y", [
    np.zeros((1, 1), dtype=np.int8),  # one person
    np.zeros((4, 4), dtype=np.int8),  # no edges
    _symmetric(6, [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),  # isolated people
    _symmetric(5, 1),  # complete graph
    np.eye(3, dtype=np.int8),  # self-links only: the diagonal is dropped
], ids=["one-person", "no-edges", "isolated-people", "complete", "diagonal-only"])
def test_datasets_from_edges_and_from_links_hold_one_graph(y):
    for data in _both_ways(y, np.random.default_rng(0)):
        _assert_graph(data, y)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                                             max_size=n * (n - 1) // 2))
), st.integers(0, 2**32 - 1))
def test_random_graphs_from_edges_and_from_links_agree(graph, seed):
    y = _symmetric(*graph)
    for data in _both_ways(y, np.random.default_rng(seed)):
        _assert_graph(data, y)


@pytest.mark.parametrize("edges, match", [
    (([0, 2], [1, 2]), "themselves"),
    (([0, 1], [1, 4]), r"\[0, 4\)"),
    (([0, -1], [1, 2]), r"\[0, 4\)"),
    (([0, 1, 0], [1, 2, 1]), "listed twice"),
    (([0, 2, 1], [1, 3, 0]), "listed twice"),
    (([0, 1], [1]), "one length"),
    # checked before they are narrowed to int32, where 2**32 + 1 would wrap to 1
    (([0, 2**31], [1, 2]), r"\[0, 4\)"),
    (([0, 2**32 + 1], [1, 2]), r"\[0, 4\)"),
], ids=["self-pair", "id-too-large", "negative-id", "repeat", "repeat-reversed", "lengths",
        "id-past-int32", "id-wrapping-to-one"])
def test_edge_lists_reject_bad_pairs(edges, match):
    with pytest.raises(ValueError, match=match):
        Dataset(features=np.ones((4, 1), dtype=np.int64), edges=edges)
    with pytest.raises(ValueError, match=match):
        ActivityDataset(np.zeros(0, dtype=np.int64), np.zeros(5, dtype=np.int64), 1,
                        edges=edges)


@pytest.mark.parametrize("ids, indptr, match", [
    ([[0, 1]], [0, 2], "1-D"),
    ([0, 1], [], "1-D"),
    ([0, 1], [1, 2], "rise from 0"),
    ([0, 1], [0, 1], "rise from 0"),
    ([0, 1, 1], [0, 2, 1, 3], "rise from 0"),
    ([0, 3], [0, 1, 2], "out of range"),
    ([-1, 0], [0, 1, 2], "out of range"),
], ids=["ids-2d", "no-indptr", "start", "end", "falling", "id-too-large", "negative-id"])
def test_activity_datasets_reject_bad_activities(ids, indptr, match):
    with pytest.raises(ValueError, match=match):
        ActivityDataset(ids, indptr, 3, edges=([], []))


def test_feature_counts_count_each_persons_activities():
    rng = np.random.default_rng(0)
    rows = [rng.integers(0, 4, size=c) for c in (3, 0, 5, 1, 0, 7)]
    data = ActivityDataset(np.concatenate(rows), np.cumsum([0, *map(len, rows)]), 4,
                           edges=([], []))
    want = np.zeros((6, 4), dtype=np.int64)
    for p, ids in enumerate(rows):
        for f in ids:
            want[p, f] += 1
    got = data.feature_counts()
    np.testing.assert_array_equal(got, want)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(data.activity_counts, [3, 0, 5, 1, 0, 7])


def test_datasets_take_the_graph_once():
    x = np.ones((2, 1), dtype=np.int64)
    with pytest.raises(TypeError):
        Dataset(features=x)
    with pytest.raises(TypeError):
        Dataset(features=x, links=np.zeros((2, 2)), edges=([], []))
    with pytest.raises(ValueError, match="disagree on the number of people"):
        Dataset(features=x, links=np.zeros((3, 3)))
    # a checked edge list is shared, but only by datasets whose people it fits
    d = Dataset(features=np.ones((4, 1), dtype=np.int64), edges=([0, 1], [1, 3]))
    assert Dataset(features=np.ones((5, 1), dtype=np.int64), edges=d.edges).edges is d.edges
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        Dataset(features=np.ones((3, 1), dtype=np.int64), edges=d.edges)


def test_dataset_arrays_are_frozen():
    d = Dataset(features=np.array([[1]]), links=np.array([[0]]))
    with pytest.raises(ValueError):
        d.features[0, 0] = 5


def test_variational_state_shape_checks():
    with pytest.raises(ValueError):
        GladVariational(gamma=np.ones((3, 2)), lam=np.ones((2, 2)) / 2, mu=np.ones((3, 2)) / 2)
    s = GladVariational(gamma=np.ones((3, 2)), lam=np.full((3, 2), 0.5), mu=np.full((3, 4), 0.25))
    assert s.n_nodes == 3 and s.n_groups == 2 and s.n_roles == 4
    np.testing.assert_array_equal(s.grouping(), [0, 0, 0])
