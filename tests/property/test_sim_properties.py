"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=40))
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    """Events must be processed in timestamp order regardless of
    creation order."""
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False),
                       min_size=1, max_size=30))
def test_equal_timestamps_preserve_creation_order(delays):
    """Ties break FIFO by creation order (determinism invariant)."""
    env = Environment()
    order = []

    def waiter(env, index, delay):
        yield env.timeout(delay)
        order.append(index)

    for index, delay in enumerate(delays):
        env.process(waiter(env, index, delay))
    env.run()
    # Stable sort of indices by delay equals observed order.
    expected = [index for index, _ in
                sorted(enumerate(delays), key=lambda pair: pair[1])]
    assert order == expected


@given(
    capacity=st.integers(min_value=1, max_value=8),
    holds=st.lists(st.floats(min_value=0.001, max_value=10.0,
                             allow_nan=False),
                   min_size=1, max_size=30),
)
@settings(max_examples=40)
def test_resource_never_exceeds_capacity(capacity, holds):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    max_seen = [0]

    def user(env, hold):
        with resource.request() as req:
            yield req
            max_seen[0] = max(max_seen[0], resource.count)
            yield env.timeout(hold)

    for hold in holds:
        env.process(user(env, hold))
    env.run()
    assert max_seen[0] <= capacity
    assert resource.count == 0  # everything released


@given(
    n_users=st.integers(min_value=1, max_value=20),
    capacity=st.integers(min_value=1, max_value=4),
)
def test_resource_work_conserving(n_users, capacity):
    """Total makespan of N unit jobs on a k-server equals ceil(N/k)."""
    import math

    env = Environment()
    resource = Resource(env, capacity=capacity)

    def user(env):
        with resource.request() as req:
            yield req
            yield env.timeout(1.0)

    for _ in range(n_users):
        env.process(user(env))
    env.run()
    assert env.now == math.ceil(n_users / capacity)
