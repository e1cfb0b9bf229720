"""Unit tests for the semantic-action registry."""

import pytest

from repro.compensation import ActionRegistry, SemanticAction, standard_registry
from repro.compensation.actions import shared_registry
from repro.errors import NotCompensatable, UnknownAction
from repro.harness import System, SystemConfig
from repro.txn import SemanticOp


@pytest.fixture
def registry():
    return standard_registry()


class TestStandardActions:
    def test_deposit_withdraw_roundtrip(self, registry):
        op = SemanticOp("deposit", "acct", {"amount": 30})
        after = registry.apply(op, 100)
        assert after == 130
        inverse = registry.invert(op, 100)
        assert inverse.name == "withdraw"
        assert registry.apply(inverse, after) == 100

    def test_deposit_on_missing_account_starts_at_zero(self, registry):
        assert registry.apply(SemanticOp("deposit", "a", {"amount": 5}), None) == 5

    def test_increment_decrement(self, registry):
        inc = SemanticOp("increment", "c")
        assert registry.apply(inc, 7) == 8
        inv = registry.invert(inc, 7)
        assert inv.name == "decrement"
        assert registry.apply(inv, 8) == 7

    def test_insert_delete_inverse_restores_value(self, registry):
        ins = SemanticOp("insert", "row", {"value": {"name": "alice"}})
        assert registry.apply(ins, None) == {"name": "alice"}
        assert registry.invert(ins, None).name == "delete"
        dele = SemanticOp("delete", "row")
        assert registry.apply(dele, {"name": "alice"}) is None
        undelete = registry.invert(dele, {"name": "alice"})
        assert undelete.name == "insert"
        assert undelete.params == {"value": {"name": "alice"}}

    def test_set_inverse_uses_before_image(self, registry):
        op = SemanticOp("set", "k", {"value": "new"})
        inverse = registry.invert(op, "old")
        assert inverse.name == "set"
        assert inverse.params == {"value": "old"}

    def test_reserve_cancel_with_count(self, registry):
        op = SemanticOp("reserve", "flight", {"count": 3})
        assert registry.apply(op, 10) == 13
        inverse = registry.invert(op, 10)
        assert (inverse.name, inverse.params) == ("cancel", {"count": 3})

    def test_dispense_is_real_action(self, registry):
        op = SemanticOp("dispense", "atm", {"amount": 100})
        assert registry.apply(op, 500) == 400
        assert not registry.is_compensatable(op)
        with pytest.raises(NotCompensatable):
            registry.invert(op, 500)


class TestRegistry:
    def test_unknown_action_raises(self, registry):
        # UnknownAction is the narrow type; it stays catchable as
        # NotCompensatable for existing callers.
        with pytest.raises(UnknownAction):
            registry.get("teleport")
        with pytest.raises(NotCompensatable):
            registry.get("teleport")
        assert not registry.known("teleport")

    def test_real_action_invert_is_not_unknown(self, registry):
        # dispense is registered — inverting it raises the plain
        # NotCompensatable, never UnknownAction.
        with pytest.raises(NotCompensatable) as exc_info:
            registry.invert(SemanticOp("dispense", "atm", {"amount": 1}), 10)
        assert not isinstance(exc_info.value, UnknownAction)

    def test_names_and_actions_are_sorted(self, registry):
        names = registry.names()
        assert names == sorted(names)
        assert [a.name for a in registry.actions()] == names

    def test_custom_registration(self):
        registry = ActionRegistry()
        registry.register(SemanticAction(
            name="double",
            apply=lambda current: current * 2,
            inverse=lambda params, before: ("halve", {}),
        ))
        registry.register(SemanticAction(
            name="halve",
            apply=lambda current: current // 2,
            inverse=lambda params, before: ("double", {}),
        ))
        op = SemanticOp("double", "x")
        assert registry.apply(op, 4) == 8
        assert registry.invert(op, 4).name == "halve"

    def test_semantic_op_hashable(self):
        a = SemanticOp("deposit", "x", {"amount": 1})
        b = SemanticOp("deposit", "x", {"amount": 1})
        assert hash(a) == hash(b)


class TestSharedRegistry:
    """Sites built without a registry share one frozen repertoire."""

    def test_default_sites_of_two_systems_share_one_registry(self):
        first, second = System(SystemConfig(n_sites=2)), System()
        registries = {
            id(site.registry)
            for system in (first, second)
            for site in system.sites.values()
        }
        assert registries == {id(shared_registry())}

    def test_the_shared_registry_refuses_register(self):
        shared = shared_registry()
        with pytest.raises(TypeError, match="frozen"):
            shared.register(SemanticAction(
                name="leak", apply=lambda current: current,
            ))
        assert not shared.known("leak")
        assert shared.names() == standard_registry().names()

    def test_standard_registry_is_fresh_and_mutable(self):
        registry = standard_registry()
        assert registry is not shared_registry()
        assert registry is not standard_registry()
        registry.register(SemanticAction(
            name="triple", apply=lambda current: current * 3,
        ))
        assert registry.known("triple")
