"""Semantic-operation registry for the restricted model.

In the restricted model each subtransaction performs a semantically coherent
task drawn from a well-defined repertoire (Section 3.1), which makes
compensation a matter of supplying the counter-task in advance — "e.g., a
DELETE as compensation for an INSERT subtransaction" (Section 3.2).

A :class:`SemanticAction` bundles the forward application function with the
inverse constructor.  The inverse receives the forward call's parameters and
the before-value, and returns the parameters of the compensating call — so
inverses can be *semantic* (withdraw the amount that was deposited) rather
than state restorations.

Operations registered with ``inverse=None`` are **real actions** in the
paper's sense (firing a missile, dispensing cash): not compensatable.
Attempting to build their inverse raises
:class:`~repro.errors.NotCompensatable`; O2PC participants must treat
subtransactions containing them as lock-holding (Section 2).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable

from repro.errors import NotCompensatable, UnknownAction
from repro.txn.operations import SemanticOp

#: forward application: (current value, **params) -> new value
ApplyFn = Callable[..., Any]
#: inverse constructor: (params, before value) -> (inverse name, inverse params)
InverseFn = Callable[[Mapping[str, Any], Any], tuple[str, Mapping[str, Any]]]


@dataclass(frozen=True)
class SemanticAction:
    """One entry in a site's operation repertoire: ``(name, apply, inverse)``.

    That the inverse constructor names a registered action, targets the
    forward key and restores the before-value is pinned for every
    compensatable action of :func:`standard_registry` by
    ``tests/compensation/test_roundtrip_properties.py``.
    :class:`~repro.txn.local_manager.LocalTransactionManager` builds each
    inverse while the forward operation executes, so a constructor that
    raises fails that operation; it drops the result and rebuilds the
    inverse from the logged forward operation when compensating.
    """

    name: str
    apply: ApplyFn
    #: None marks a real (non-compensatable) action
    inverse: InverseFn | None = None

    @property
    def compensatable(self) -> bool:
        """True when a semantic inverse is registered."""
        return self.inverse is not None


class ActionRegistry:
    """Name → :class:`SemanticAction` mapping (sites may share one)."""

    def __init__(self) -> None:
        self._actions: dict[str, SemanticAction] = {}
        self._frozen = False

    def register(self, action: SemanticAction) -> None:
        """Register an action; re-registration replaces.

        Raises :class:`TypeError` on the frozen :func:`shared_registry`.
        """
        if self._frozen:
            raise TypeError(
                f"cannot register {action.name!r}: this registry is frozen "
                "(build a mutable one with standard_registry())"
            )
        self._actions[action.name] = action

    def get(self, name: str) -> SemanticAction:
        """Look up an action by name.

        Raises :class:`~repro.errors.UnknownAction` (a
        :class:`NotCompensatable` subclass) for unregistered names — an
        unknown name is a specification bug, not a real action.
        """
        try:
            return self._actions[name]
        except KeyError:
            raise UnknownAction(name) from None

    def known(self, name: str) -> bool:
        """True if ``name`` is registered."""
        return name in self._actions

    def names(self) -> list[str]:
        """All registered action names, sorted (deterministic iteration)."""
        return sorted(self._actions)

    def actions(self) -> list[SemanticAction]:
        """All registered actions in name order (deterministic iteration)."""
        return [self._actions[name] for name in self.names()]

    def apply(self, op: SemanticOp, current: Any) -> Any:
        """Apply ``op`` to the current value, returning the new value."""
        return self.get(op.name).apply(current, **op.params)

    def invert(self, op: SemanticOp, before: Any) -> SemanticOp:
        """Build the compensating operation for a forward ``op``.

        Raises :class:`NotCompensatable` for real actions.
        """
        action = self.get(op.name)
        if action.inverse is None:
            raise NotCompensatable(op.name)
        inv_name, inv_params = action.inverse(op.params, before)
        return SemanticOp(name=inv_name, key=op.key, params=inv_params)

    def is_compensatable(self, op: SemanticOp) -> bool:
        """True when ``op``'s action has a registered inverse."""
        return self.known(op.name) and self.get(op.name).compensatable


@cache
def shared_registry() -> ActionRegistry:
    """:func:`standard_registry`, built once per process and frozen.

    Every :class:`~repro.txn.site.Site` built without a registry holds this
    one object, so a system pays for no repertoire of its own.  It refuses
    :meth:`~ActionRegistry.register`, so no caller's actions leak into the
    next system: code that adds actions builds its own registry.
    """
    registry = standard_registry()
    registry._frozen = True
    return registry


def standard_registry() -> ActionRegistry:
    """A fresh, mutable copy of the built-in repertoire used by examples,
    tests, and workloads.

    ===========  ================================  =====================
    operation    effect                            compensation
    ===========  ================================  =====================
    deposit      value += amount                   withdraw(amount)
    withdraw     value -= amount                   deposit(amount)
    increment    value += 1                        decrement()
    decrement    value -= 1                        increment()
    insert       create item with given value      delete()
    delete       remove item                       insert(old value)
    set          value = new                       set(old value)
    reserve      reserved += count                 cancel(count)
    cancel       reserved -= count                 reserve(count)
    dispense     value -= amount (cash leaves      — real action, not
                 the machine)                        compensatable
    ===========  ================================  =====================
    """
    registry = ActionRegistry()

    registry.register(SemanticAction(
        name="deposit",
        apply=lambda current, amount: (current or 0) + amount,
        inverse=lambda params, before: ("withdraw", {"amount": params["amount"]}),
    ))
    registry.register(SemanticAction(
        name="withdraw",
        apply=lambda current, amount: (current or 0) - amount,
        inverse=lambda params, before: ("deposit", {"amount": params["amount"]}),
    ))
    registry.register(SemanticAction(
        name="increment",
        apply=lambda current: (current or 0) + 1,
        inverse=lambda params, before: ("decrement", {}),
    ))
    registry.register(SemanticAction(
        name="decrement",
        apply=lambda current: (current or 0) - 1,
        inverse=lambda params, before: ("increment", {}),
    ))
    registry.register(SemanticAction(
        name="insert",
        apply=lambda current, value: value,
        inverse=lambda params, before: ("delete", {}),
    ))
    registry.register(SemanticAction(
        name="delete",
        apply=lambda current: None,
        inverse=lambda params, before: ("insert", {"value": before}),
    ))
    registry.register(SemanticAction(
        name="set",
        apply=lambda current, value: value,
        inverse=lambda params, before: ("set", {"value": before}),
    ))
    registry.register(SemanticAction(
        name="reserve",
        apply=lambda current, count=1: (current or 0) + count,
        inverse=lambda params, before: (
            "cancel", {"count": params.get("count", 1)}
        ),
    ))
    registry.register(SemanticAction(
        name="cancel",
        apply=lambda current, count=1: (current or 0) - count,
        inverse=lambda params, before: (
            "reserve", {"count": params.get("count", 1)}
        ),
    ))
    registry.register(SemanticAction(
        name="dispense",
        apply=lambda current, amount: (current or 0) - amount,
        inverse=None,  # cash left the machine: a real action
    ))
    return registry
