import math

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
    log_softmax,
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


def test_digamma_matches_scipy_oracle():
    # independent implementation route: compare against scipy over a wide grid
    x = np.concatenate([
        np.linspace(0.01, 1.0, 200),
        np.linspace(1.0, 20.0, 200),
        np.linspace(20.0, 500.0, 100),
    ])
    np.testing.assert_allclose(digamma(x), scipy.special.digamma(x), atol=1e-10, rtol=0)


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
