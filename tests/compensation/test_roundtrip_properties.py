"""Property: compensation round-trips restore the before-value.

For every compensatable action in the standard repertoire,
``apply(invert(op, before), apply(op, before))`` must equal ``before``,
and the compensating operation must be a registered action on the same
key — the registry's closure (paper §3.2: the counter-task is predeclared)
and Theorem 2's write coverage, checked by running the inverse
constructor on every action rather than by reading declarations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compensation import standard_registry
from repro.txn import SemanticOp

REGISTRY = standard_registry()

_values = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=8),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
)

#: per-action (params, before) strategies.  ``insert`` creates an item, so
#: its legitimate before-state is "absent" (None); the additive actions
#: treat None as 0, so a None before-value is *not* restored bit-for-bit —
#: their domain is numeric state.
STRATEGIES = {
    "deposit": (st.fixed_dictionaries({"amount": st.integers()}), st.integers()),
    "withdraw": (st.fixed_dictionaries({"amount": st.integers()}), st.integers()),
    "increment": (st.just({}), st.integers()),
    "decrement": (st.just({}), st.integers()),
    "insert": (st.fixed_dictionaries({"value": _values}), st.none()),
    "delete": (st.just({}), _values),
    "set": (st.fixed_dictionaries({"value": _values}), _values),
    "reserve": (
        st.one_of(st.just({}), st.fixed_dictionaries({"count": st.integers()})),
        st.integers(),
    ),
    "cancel": (
        st.one_of(st.just({}), st.fixed_dictionaries({"count": st.integers()})),
        st.integers(),
    ),
}

COMPENSATABLE = [a.name for a in REGISTRY.actions() if a.compensatable]


def test_every_compensatable_action_has_a_strategy():
    # A new repertoire entry without a round-trip strategy fails here,
    # keeping the property exhaustive as the repertoire grows.
    assert sorted(STRATEGIES) == COMPENSATABLE


@pytest.mark.parametrize("name", COMPENSATABLE)
@settings(max_examples=60)
@given(data=st.data())
def test_apply_invert_apply_restores_before(name, data):
    params_st, before_st = STRATEGIES[name]
    params = data.draw(params_st)
    before = data.draw(before_st)

    op = SemanticOp(name, "k", params)
    after = REGISTRY.apply(op, before)
    compensation = REGISTRY.invert(op, before)
    restored = REGISTRY.apply(compensation, after)

    assert restored == before
    # the compensating op targets the same key and a registered action
    assert compensation.key == op.key
    assert REGISTRY.known(compensation.name)

