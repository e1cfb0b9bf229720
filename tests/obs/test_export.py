"""Unit tests for the deterministic JSONL export."""

import json

from repro.obs.events import EventBus, TxnSubmitted, TxnTerminated
from repro.obs.export import event_to_dict, to_jsonl


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


def stamped_events():
    clock = FakeClock(1.5)
    bus = EventBus(clock=clock)
    first = bus.publish(TxnSubmitted(txn_id="T1", sites=("S1", "S2")))
    clock.now = 9.25
    second = bus.publish(TxnTerminated(
        txn_id="T1", committed=True, latency=7.75, compensated_sites=(),
    ))
    return [first, second]


class TestEventToDict:
    def test_kind_first_and_tuples_to_lists(self):
        record = event_to_dict(stamped_events()[0])
        assert next(iter(record)) == "kind"
        assert record == {
            "kind": "txn.submit", "ts": 1.5, "seq": 0,
            "txn_id": "T1", "sites": ["S1", "S2"],
        }

    def test_empty_tuple(self):
        record = event_to_dict(stamped_events()[1])
        assert record["compensated_sites"] == []
        assert record["committed"] is True


class TestToJsonl:
    def test_empty(self):
        assert to_jsonl([]) == ""

    def test_lines_parse_and_keys_sorted(self):
        text = to_jsonl(stamped_events())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)
            assert '", "' not in line  # compact separators

    def test_seq_order_preserved(self):
        records = [
            json.loads(line)
            for line in to_jsonl(stamped_events()).splitlines()
        ]
        assert [r["seq"] for r in records] == [0, 1]
