"""Tests for repro.model.game."""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import DimensionError, ModelError
from repro.model.beliefs import Belief, BeliefProfile, point_mass_belief
from repro.model.game import UncertainRoutingGame
from repro.model.state import StateSpace
from repro.util.validation import check_positive_array


class TestConstruction:
    def test_basic(self, simple_game):
        assert simple_game.num_users == 2
        assert simple_game.num_links == 2
        assert simple_game.total_traffic == pytest.approx(3.0)

    def test_rejects_single_user(self, two_state_space):
        profile = BeliefProfile.from_matrix(two_state_space, [[1.0, 0.0]])
        with pytest.raises(ModelError, match="n > 1"):
            UncertainRoutingGame([1.0], profile)

    def test_rejects_single_link(self):
        states = StateSpace([[1.0]])
        profile = BeliefProfile.from_matrix(states, [[1.0], [1.0]])
        with pytest.raises(ModelError, match="m > 1"):
            UncertainRoutingGame([1.0, 1.0], profile)

    def test_rejects_weight_mismatch(self, two_state_space):
        profile = BeliefProfile.from_matrix(
            two_state_space, [[1.0, 0.0], [1.0, 0.0]]
        )
        with pytest.raises(DimensionError):
            UncertainRoutingGame([1.0, 1.0, 1.0], profile)

    def test_rejects_nonpositive_weights(self, two_state_space):
        profile = BeliefProfile.from_matrix(
            two_state_space, [[1.0, 0.0], [1.0, 0.0]]
        )
        with pytest.raises(ModelError):
            UncertainRoutingGame([1.0, 0.0], profile)

    def test_default_initial_traffic_zero(self, simple_game):
        np.testing.assert_array_equal(simple_game.initial_traffic, [0.0, 0.0])

    def test_initial_traffic_wrong_shape(self, two_state_space):
        profile = BeliefProfile.from_matrix(
            two_state_space, [[1.0, 0.0], [1.0, 0.0]]
        )
        with pytest.raises(DimensionError):
            UncertainRoutingGame([1.0, 1.0], profile, initial_traffic=[1.0])

    def test_initial_traffic_negative(self, two_state_space):
        profile = BeliefProfile.from_matrix(
            two_state_space, [[1.0, 0.0], [1.0, 0.0]]
        )
        with pytest.raises(ModelError):
            UncertainRoutingGame([1.0, 1.0], profile, initial_traffic=[-1.0, 0.0])

    def test_arrays_read_only(self, simple_game):
        with pytest.raises(ValueError):
            simple_game.weights[0] = 9.0
        with pytest.raises(ValueError):
            simple_game.capacities[0, 0] = 9.0


class TestReducedForm:
    def test_effective_capacities_computed(self, two_state_space):
        profile = BeliefProfile.from_matrix(
            two_state_space, [[1.0, 0.0], [0.0, 1.0]]
        )
        game = UncertainRoutingGame([1.0, 1.0], profile)
        np.testing.assert_allclose(game.capacities, [[1.0, 2.0], [2.0, 1.0]])

    def test_from_capacities_roundtrip(self):
        caps = np.array([[1.0, 2.0], [3.0, 4.0]])
        game = UncertainRoutingGame.from_capacities([1.0, 2.0], caps)
        np.testing.assert_allclose(game.capacities, caps)

    def test_from_capacities_rejects_row_mismatch(self):
        with pytest.raises(DimensionError):
            UncertainRoutingGame.from_capacities(
                [1.0, 2.0, 3.0], [[1.0, 2.0], [3.0, 4.0]]
            )

    def test_kp_constructor(self):
        game = UncertainRoutingGame.kp([1.0, 2.0], [1.0, 3.0])
        assert game.is_kp()
        np.testing.assert_allclose(game.capacities, [[1.0, 3.0], [1.0, 3.0]])


class TestPredicates:
    def test_is_kp(self, kp_game_fixture, simple_game):
        assert kp_game_fixture.is_kp()
        assert not simple_game.is_kp()

    def test_common_beliefs(self, two_state_space):
        profile = BeliefProfile(
            two_state_space, [Belief([0.4, 0.6])] * 3
        )
        game = UncertainRoutingGame([1.0, 1.0, 1.0], profile)
        assert game.has_common_beliefs()
        assert not game.is_kp()

    def test_uniform_beliefs(self, uniform_beliefs_game, simple_game):
        assert uniform_beliefs_game.has_uniform_beliefs()
        assert not simple_game.has_uniform_beliefs()

    def test_kp_with_equal_caps_is_uniform(self):
        game = UncertainRoutingGame.kp([1.0, 2.0], [2.0, 2.0, 2.0])
        assert game.has_uniform_beliefs()

    def test_symmetric_users(self, two_state_space):
        profile = BeliefProfile.random(two_state_space, 3, seed=0)
        game = UncertainRoutingGame([2.0, 2.0, 2.0], profile)
        assert game.has_symmetric_users()

    def test_not_symmetric(self, simple_game):
        assert not simple_game.has_symmetric_users()


class TestTransformations:
    def test_with_initial_traffic(self, simple_game):
        new = simple_game.with_initial_traffic([1.0, 2.0])
        np.testing.assert_array_equal(new.initial_traffic, [1.0, 2.0])
        np.testing.assert_array_equal(simple_game.initial_traffic, [0.0, 0.0])

    def test_subgame_preserves_rows(self, three_user_game):
        sub = three_user_game.subgame([0, 2])
        assert sub.num_users == 2
        np.testing.assert_allclose(
            sub.capacities, three_user_game.capacities[[0, 2]]
        )
        np.testing.assert_allclose(
            sub.weights, three_user_game.weights[[0, 2]]
        )

    def test_subgame_too_small(self, three_user_game):
        with pytest.raises(ModelError):
            three_user_game.subgame([1])


class TestRepr:
    def test_tags_kp(self, kp_game_fixture):
        assert "kp" in repr(kp_game_fixture)

    def test_tags_uniform(self, uniform_beliefs_game):
        assert "uniform-beliefs" in repr(uniform_beliefs_game)

    def test_plain(self, three_user_game):
        text = repr(three_user_game)
        assert "n=3" in text and "m=3" in text


def _eager_from_capacities(weights, capacities, *, initial_traffic=None):
    """Oracle: the point-mass profile realised up front, one state per user."""
    c = check_positive_array(capacities, name="capacities", ndim=2)
    w = check_positive_array(weights, name="weights", ndim=1)
    if c.shape[0] != w.size:
        raise DimensionError(
            f"capacity matrix has {c.shape[0]} rows for {w.size} users"
        )
    n = c.shape[0]
    states = StateSpace(c, names=tuple(f"user{i}-view" for i in range(n)))
    profile = BeliefProfile(states, [point_mass_belief(n, i) for i in range(n)])
    return UncertainRoutingGame(w, profile, initial_traffic=initial_traffic)


_magnitudes = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


@st.composite
def _reduced_forms(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(2, 4))
    caps = draw(arrays(np.float64, (n, m), elements=_magnitudes))
    weights = draw(arrays(np.float64, (n,), elements=_magnitudes))
    traffic = draw(
        st.none() | arrays(np.float64, (m,), elements=st.floats(0.0, 10.0))
    )
    return weights, caps, traffic


def _assert_same_game(game, oracle):
    assert game.capacities.tobytes() == oracle.capacities.tobytes()
    assert game.weights.tobytes() == oracle.weights.tobytes()
    assert game.initial_traffic.tobytes() == oracle.initial_traffic.tobytes()
    assert repr(game) == repr(oracle)
    assert game.is_kp() == oracle.is_kp()
    assert game.has_common_beliefs() == oracle.has_common_beliefs()
    np.testing.assert_array_equal(game.beliefs.matrix, oracle.beliefs.matrix)
    np.testing.assert_array_equal(
        game.beliefs.states.capacities, oracle.beliefs.states.capacities
    )
    assert game.beliefs.states.names == oracle.beliefs.states.names


class TestLazyReducedForm:
    """``from_capacities`` stores ``1 / (1 / C)`` and builds the point-mass
    profile on first read; every answer matches the eager realisation."""

    @settings(max_examples=150, deadline=None)
    @given(_reduced_forms())
    def test_matches_eager_realisation(self, form):
        weights, caps, traffic = form
        game = UncertainRoutingGame.from_capacities(
            weights, caps, initial_traffic=traffic
        )
        oracle = _eager_from_capacities(weights, caps, initial_traffic=traffic)
        # Read the capacities before the lazy profile exists.
        assert game.capacities.tobytes() == oracle.capacities.tobytes()
        _assert_same_game(game, oracle)

    @settings(max_examples=60, deadline=None)
    @given(_reduced_forms(), st.data())
    def test_transformations_match_eager(self, form, data):
        weights, caps, _ = form
        n, m = caps.shape
        game = UncertainRoutingGame.from_capacities(weights, caps)
        oracle = _eager_from_capacities(weights, caps)
        users = data.draw(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
        )
        _assert_same_game(game.subgame(users), oracle.subgame(users))
        traffic = data.draw(arrays(np.float64, (m,), elements=st.floats(0.0, 10.0)))
        shifted = game.with_initial_traffic(traffic)
        assert shifted.capacities is game.capacities
        _assert_same_game(shifted, oracle.with_initial_traffic(traffic))

    @pytest.mark.parametrize(
        "weights,caps,traffic,error",
        [
            ([1.0, 2.0, 3.0], [[1.0, 2.0], [3.0, 4.0]], None, DimensionError),
            ([1.0], [[1.0, 2.0]], None, ModelError),
            ([1.0, 1.0], [[1.0], [2.0]], None, ModelError),
            ([1.0, 1.0], [[1.0, 0.0], [2.0, 1.0]], None, ModelError),
            ([1.0, -1.0], [[1.0, 2.0], [2.0, 1.0]], None, ModelError),
            ([1.0, 1.0], [1.0, 2.0], None, DimensionError),
            ([1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]], [1.0], DimensionError),
            ([1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]], [-1.0, 0.0], ModelError),
        ],
    )
    def test_validation_matches_eager(self, weights, caps, traffic, error):
        with pytest.raises(error) as eager:
            _eager_from_capacities(weights, caps, initial_traffic=traffic)
        with pytest.raises(error) as lazy:
            UncertainRoutingGame.from_capacities(
                weights, caps, initial_traffic=traffic
            )
        assert str(lazy.value) == str(eager.value)

    @pytest.mark.parametrize("realise", [False, True])
    def test_pickle_roundtrip(self, realise):
        caps = np.array([[1.0, 2.0, 0.3], [3.0, 4.0, 5.0], [0.7, 0.9, 1.1]])
        game = UncertainRoutingGame.from_capacities(
            [1.0, 2.0, 0.5], caps, initial_traffic=[0.0, 1.0, 0.5]
        )
        if realise:
            game.beliefs
        clone = pickle.loads(pickle.dumps(game))
        _assert_same_game(
            clone,
            _eager_from_capacities(
                [1.0, 2.0, 0.5], caps, initial_traffic=[0.0, 1.0, 0.5]
            ),
        )

    def test_large_game_allocates_only_its_reduced_form(self):
        n, m = 8192, 4
        caps = np.random.default_rng(0).uniform(0.5, 4.0, size=(n, m))
        weights = np.ones(n)
        tracemalloc.start()
        try:
            game = UncertainRoutingGame.from_capacities(weights, caps)
            game.with_initial_traffic(np.ones(m))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The eager n x n realisation needed about 1 GB here.
        assert peak < 8 * 2**20
        assert game.num_users == n
