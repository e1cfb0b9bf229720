"""The engine registry: every scheme resolves, unknown schemes fail loudly."""

import pytest

from repro.commit.base import CommitScheme
from repro.errors import UnknownScheme
from repro.protocols import ENGINES, acceptor_ids, engine_for
from repro.protocols.acceptor import Acceptor


class TestRegistry:
    def test_every_scheme_has_an_engine(self):
        # The one check of this contract: a scheme added to the enum
        # without an engine row would pass configuration validation and
        # fail only at system construction.
        assert set(ENGINES) == set(CommitScheme)

    @pytest.mark.parametrize("scheme", list(CommitScheme))
    def test_engine_for_returns_matching_spec(self, scheme):
        spec = engine_for(scheme)
        assert spec.scheme is scheme
        assert callable(spec.coordinator)
        assert callable(spec.participant)

    def test_only_paxos_uses_acceptors(self):
        with_acceptors = {
            s for s in ENGINES if ENGINES[s].acceptor is not None
        }
        assert with_acceptors == {CommitScheme.PAXOS}
        assert ENGINES[CommitScheme.PAXOS].acceptor is Acceptor

    def test_unregistered_scheme_raises_unknown_scheme(self):
        spec = ENGINES.pop(CommitScheme.PAXOS)
        try:
            with pytest.raises(UnknownScheme) as excinfo:
                engine_for(CommitScheme.PAXOS)
            # The error lists what *is* registered, for a usable message.
            assert CommitScheme.O2PC.value in str(excinfo.value)
        finally:
            ENGINES[CommitScheme.PAXOS] = spec


class TestAcceptorIds:
    def test_acceptor_ids_are_one_based(self):
        assert acceptor_ids(3) == ("acc.1", "acc.2", "acc.3")

    def test_zero_acceptors_is_empty(self):
        assert acceptor_ids(0) == ()
