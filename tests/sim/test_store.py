"""Unit tests for the FIFO Store."""

from repro.sim import Environment, Store


def test_put_then_get_immediate():
    env = Environment()
    store = Store(env)
    store.put("x")

    def proc(env):
        item = yield store.get()
        return item

    assert env.run(env.process(proc(env))) == "x"


def test_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env):
        item = yield store.get()
        times.append((env.now, item))

    def producer(env):
        yield env.timeout(5)
        store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [(5.0, "late")]


def test_fifo_item_order():
    env = Environment()
    store = Store(env)
    for i in range(3):
        store.put(i)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.run(env.process(consumer(env)))
    assert got == [0, 1, 2]


def test_fifo_getter_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        item = yield store.get()
        got.append((tag, item))

    def producer(env):
        yield env.timeout(1)
        store.put("a")
        store.put("b")

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))
    env.process(producer(env))
    env.run()
    assert got == [("first", "a"), ("second", "b")]


def test_len_and_items_snapshot():
    env = Environment()
    store = Store(env)
    assert len(store) == 0
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.items == [1, 2]


def test_clear_drops_and_returns_items():
    env = Environment()
    store = Store(env)
    store.put("a")
    store.put("b")
    assert store.clear() == ["a", "b"]
    assert len(store) == 0


def test_expired_get_withdraws_its_waiter():
    env = Environment()
    store = Store(env)
    getter = store.get(timeout=5)
    env.run()
    assert env.now == 5.0
    assert getter.processed and getter.value is None
    store.put("x")
    # The expired getter must not consume the item.
    assert store.items == ["x"]


def test_get_of_a_queued_item_arms_no_timer():
    env = Environment()
    store = Store(env)
    store.put("x")
    getter = store.get(timeout=5)
    assert getter.triggered and getter.value == "x"
    assert env.queued == 1  # the getter itself; no timer
    assert env.peek() == env.now


def test_expired_getter_does_not_block_later_getters():
    env = Environment()
    store = Store(env)
    stale = store.get(timeout=1)
    env.run(until=2)
    assert stale.value is None
    live = store.get()
    store.put("y")
    assert live.triggered and live.value == "y"


def test_an_item_first_cancels_the_timer():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        got.append((yield store.get(timeout=100)))

    def producer(env):
        yield env.timeout(1)
        store.put("z")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    # The withdrawn deadline neither ran nor moved the clock to 100.
    assert got == ["z"]
    assert env.now == 1.0
    assert env.queued == 0
