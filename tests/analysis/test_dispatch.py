"""Handler exhaustiveness over the MsgType vocabulary.

The dispatch tables (``Participant._HANDLERS``, ``Coordinator._COLLECTS``,
``Acceptor._HANDLERS`` and the PAXOS subclasses' own) are read off the
running registry, :data:`repro.protocols.ENGINES`, and held against the
messages the engines send in the model checker's scenarios, as recorded
by ``tests/protocols/test_message_flow.py``.
"""

from repro.commit.base import CommitScheme
from repro.net.message import MsgType
from repro.protocols import ENGINES
from tests.protocols.test_message_flow import (
    recorded,
    surfaces,
    unanswered,
    unreceived,
)


def test_shipped_dispatch_is_exhaustive():
    # Every vocabulary member is on some registered role's surface.
    declared = {
        msg_type
        for scheme in CommitScheme
        for surface in surfaces(scheme).values()
        for msg_type in surface
    }
    assert declared == set(MsgType)


def test_declarations_match_runtime_enum():
    # A handler table entry is a real member bound to a real method, or
    # the flow test checks a phantom surface.
    for engine in ENGINES.values():
        collects = engine.coordinator._COLLECTS
        assert all(isinstance(msg_type, MsgType) for msg_type in collects)
        for cls in (engine.participant, engine.acceptor):
            if cls is None:
                continue
            for msg_type, method in cls._HANDLERS.items():
                assert isinstance(msg_type, MsgType), (cls, msg_type)
                assert callable(getattr(cls, method, None)), (cls, method)


def test_missing_participant_handler_is_flagged(monkeypatch):
    # Every participant-side engine declares DECISION, so it must vanish
    # from all of them before the type becomes unreceivable.
    flows = {scheme: recorded(scheme) for scheme in CommitScheme}
    for cls in {engine.participant for engine in ENGINES.values()}:
        if "_HANDLERS" in vars(cls):
            monkeypatch.setattr(cls, "_HANDLERS", {
                msg_type: method
                for msg_type, method in cls._HANDLERS.items()
                if msg_type is not MsgType.DECISION
            })
    assert unreceived(MsgType.__members__) == ["DECISION"]
    for scheme, flow in flows.items():
        assert unanswered(scheme, flow) == ["DECISION to participant"]


def test_new_msg_type_without_handler_is_flagged():
    assert unreceived([*MsgType.__members__, "INQUIRE"]) == ["INQUIRE"]
