import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from glad.model import (
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
    # the matrix and the edge index are the same objects, not copies
    assert other.links is d.links
    assert other.neighbours is d.neighbours and other.edges is d.edges
    np.testing.assert_array_equal(other.features, [[1], [1], [1]])
    assert other.features.dtype == np.int64 and not other.features.flags.writeable
    with pytest.raises(ValueError, match="disagree on the number of people"):
        d.with_features(np.ones((2, 1)))
    with pytest.raises(ValueError, match="non-negative"):
        d.with_features(-np.ones((3, 1)))


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
