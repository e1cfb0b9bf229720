"""Wire codec: messages, operations, and framing round-trip exactly.

The daemon must rebuild byte-identical protocol state from a frame: the
typed payload values (operation lists, vote policies) have to survive
JSON, and the framing has to reject garbage without reading past a frame
boundary.
"""

import json
import random

import pytest

from repro.net.message import Message, MsgType
from repro.rt import wire
from repro.rt.wire import (
    MAX_FRAME,
    WireError,
    decode_frame,
    encode_batch,
    encode_frame,
    message_from_json,
    message_to_json,
    op_from_json,
    op_to_json,
    outcome_from_json,
    outcome_to_json,
    spec_from_json,
    spec_to_json,
    split_frames,
    unbatch,
)
from repro.txn.operations import ReadOp, SemanticOp, WriteOp
from repro.txn.transaction import (
    GlobalTxnSpec,
    SubtxnSpec,
    TxnOutcome,
    VotePolicy,
)


class TestOperations:
    @pytest.mark.parametrize("op", [
        ReadOp("k0"),
        WriteOp("k1", 42),
        WriteOp("k1", {"nested": [1, 2]}),
        SemanticOp("withdraw", "k2", {"amount": 30}),
        SemanticOp("set", "k3", {"value": "dirty"}),
    ])
    def test_roundtrip(self, op):
        assert op_from_json(op_to_json(op)) == op

    def test_unknown_tag_raises(self):
        with pytest.raises(WireError):
            op_from_json({"op": "compare-and-swap", "key": "k0"})


class TestMessages:
    def test_subtxn_req_payload_roundtrips(self):
        message = Message(
            msg_type=MsgType.SUBTXN_REQ, sender="coord.T1",
            recipient="S1", txn_id="T1",
            payload={
                "ops": [ReadOp("k0"), SemanticOp("withdraw", "k1",
                                                 {"amount": 5})],
                "vote": VotePolicy.FORCE_NO,
                "real_action": True,
                "transmarks": ["S2"],
            },
        )
        rebuilt = message_from_json(message_to_json(message))
        assert rebuilt.msg_type is MsgType.SUBTXN_REQ
        assert rebuilt.sender == "coord.T1"
        assert rebuilt.recipient == "S1"
        assert rebuilt.txn_id == "T1"
        assert rebuilt.payload["ops"] == message.payload["ops"]
        assert rebuilt.payload["vote"] is VotePolicy.FORCE_NO
        assert rebuilt.payload["real_action"] is True
        assert rebuilt.payload["transmarks"] == ["S2"]

    @pytest.mark.parametrize("msg_type", list(MsgType))
    def test_every_msg_type_roundtrips(self, msg_type):
        message = Message(
            msg_type=msg_type, sender="a", recipient="b", txn_id="T",
            payload={},
        )
        assert message_from_json(message_to_json(message)).msg_type is msg_type

    def test_malformed_frame_raises_wire_error(self):
        with pytest.raises(WireError):
            message_from_json({"kind": "msg", "type": "NOT_A_TYPE",
                               "sender": "a", "recipient": "b", "txn": "T"})


class TestSubmitAndTold:
    """Specs and outcomes are slotted: they cross the wire by their
    fields, not by an instance ``__dict__``."""

    def through_a_frame(self, body):
        return decode_frame(encode_frame(body)[4:])

    def test_submitted_spec_roundtrips(self):
        spec = GlobalTxnSpec("T7", [
            SubtxnSpec("S1", [ReadOp("k0"), WriteOp("k1", 3)]),
            SubtxnSpec("S2", [SemanticOp("deposit", "k0", {"amount": 2})],
                       real_action=True, vote=VotePolicy.FORCE_NO),
        ])
        body = self.through_a_frame({"kind": "submit", "spec": spec_to_json(spec)})
        assert spec_from_json(body["spec"]) == spec

    @pytest.mark.parametrize("outcome", [
        TxnOutcome("T7", committed=True, start_time=1.0, decision_time=2.5,
                   end_time=4.0),
        TxnOutcome("T8", committed=False, start_time=1.0, decision_time=2.0,
                   end_time=6.0, no_votes=["S2"],
                   compensated_sites=["S1", "S3"], rejections=2),
    ], ids=["committed", "compensated"])
    def test_told_outcome_roundtrips(self, outcome):
        body = self.through_a_frame({
            "kind": "told", "txn": outcome.txn_id,
            "outcome": outcome_to_json(outcome),
        })
        told = outcome_from_json(body["outcome"])
        assert told == outcome
        assert told.latency == outcome.latency


class TestFraming:
    def test_encode_decode_roundtrip(self):
        body = {"kind": "admin", "cmd": "status"}
        frame = encode_frame(body)
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - 4
        assert decode_frame(frame[4:]) == body

    def test_deterministic_encoding(self):
        body = {"kind": "msg", "b": 1, "a": 2}
        assert encode_frame(body) == encode_frame(
            {"a": 2, "b": 1, "kind": "msg"}
        )

    def test_oversized_frame_refused(self):
        with pytest.raises(WireError):
            encode_frame({"kind": "msg", "blob": "x" * (MAX_FRAME + 1)})

    def test_untagged_body_refused(self):
        with pytest.raises(WireError):
            decode_frame(b'{"no": "kind"}')

    def test_non_json_refused(self):
        with pytest.raises(WireError):
            decode_frame(b"\x00\x01garbage")


class TestBatching:
    def body(self, n):
        return {"kind": "msg", "type": "VOTE", "sender": f"S{n}",
                "recipient": "coord.T1", "txn": "T1",
                "payload": {"vote": "YES"}}

    def test_one_body_stays_a_plain_singleton_frame(self):
        # Legacy peers (and the scripted fake daemons in the test suite)
        # parse each frame with message_from_json directly, so a lone
        # message must never grow a batch envelope.
        frames = encode_batch([self.body(1)])
        assert len(frames) == 1
        length = int.from_bytes(frames[0][:4], "big")
        assert decode_frame(frames[0][4:]) == self.body(1)
        assert length == len(frames[0]) - 4

    def test_many_bodies_share_one_envelope(self):
        bodies = [self.body(n) for n in range(5)]
        frames = encode_batch(bodies)
        assert len(frames) == 1
        envelope = decode_frame(frames[0][4:])
        assert envelope["kind"] == "batch"
        assert unbatch(envelope) == bodies

    def test_unbatch_of_a_singleton_is_identity(self):
        assert unbatch(self.body(1)) == [self.body(1)]

    def test_roundtrip_preserves_order(self):
        bodies = [self.body(n) for n in range(9)]
        out = []
        for frame in encode_batch(bodies):
            out.extend(unbatch(decode_frame(frame[4:])))
        assert out == bodies

    def test_oversized_batches_split_across_frames(self):
        big = [{"kind": "msg", "blob": "x" * (MAX_FRAME // 3)}
               for _ in range(4)]
        frames = encode_batch(big)
        assert len(frames) > 1
        out = []
        for frame in frames:
            out.extend(unbatch(decode_frame(frame[4:])))
        assert out == big

    @staticmethod
    def reference_encode_batch(bodies, budget):
        """The encoder before members were spliced: every body dumped
        once to size the chunk and again inside ``encode_frame``."""
        frames, chunk, chunk_bytes = [], [], 0

        def close():
            frames.append(encode_frame(
                chunk[0] if len(chunk) == 1
                else {"kind": "batch", "frames": list(chunk)}
            ))

        for body in bodies:
            size = len(json.dumps(body, sort_keys=True, separators=(",", ":")))
            if chunk and chunk_bytes + size > budget:
                close()
                chunk.clear()
                chunk_bytes = 0
            chunk.append(body)
            chunk_bytes += size
        if chunk:
            close()
        return frames

    @staticmethod
    def random_body(rng):
        def value(depth=0):
            kind = rng.randrange(7 if depth < 2 else 5)
            if kind == 0:
                return rng.randrange(-10**6, 10**6)
            if kind == 1:
                return rng.choice([True, False, None, 1.5, -0.25])
            if kind == 2:
                return "".join(rng.choice('az09 "\\/\u00e9\u20ac\n')
                               for _ in range(rng.randrange(12)))
            if kind in (3, 4):
                return f"k{rng.randrange(100)}"
            if kind == 5:
                return [value(depth + 1) for _ in range(rng.randrange(4))]
            return {f"f{rng.randrange(20)}": value(depth + 1)
                    for _ in range(rng.randrange(4))}

        return {"kind": "msg", "type": rng.choice(["VOTE", "ACK", "DECISION"]),
                "sender": f"S{rng.randrange(9)}", "txn": f"T{rng.randrange(99)}",
                "recipient": f"coord.T{rng.randrange(99)}",
                "payload": {f"p{i}": value() for i in range(rng.randrange(5))}}

    @pytest.mark.parametrize("seed", range(20))
    def test_frames_are_byte_identical_to_the_double_dump_encoder(
        self, seed, monkeypatch,
    ):
        rng = random.Random(seed)
        bodies = [self.random_body(rng) for _ in range(rng.randrange(1, 40))]
        assert encode_batch(bodies) == self.reference_encode_batch(
            bodies, wire._BATCH_BUDGET,
        )
        # A budget a few bodies wide: chunks close at the same members.
        sizes = [len(encode_frame(body)) - 4 for body in bodies]
        budget = max(sizes) + rng.randrange(4 * max(sizes))
        monkeypatch.setattr(wire, "_BATCH_BUDGET", budget)
        frames = encode_batch(bodies)
        assert frames == self.reference_encode_batch(bodies, budget)
        assert (len(frames) > 1) == (sum(sizes) > budget)

    def test_split_at_the_real_budget_is_byte_identical(self):
        # Three members that fit the budget pairwise but not together,
        # one of them landing exactly on it.
        pad = len(json.dumps({"kind": "msg", "blob": ""},
                             sort_keys=True, separators=(",", ":")))
        half = wire._BATCH_BUDGET // 2
        big = [{"kind": "msg", "blob": "x" * (half - pad)},
               {"kind": "msg", "blob": "y" * (half - pad)},
               {"kind": "msg", "blob": "z" * (half - pad)},
               {"kind": "msg", "blob": "w"}]
        frames = encode_batch(big)
        assert frames == self.reference_encode_batch(big, wire._BATCH_BUDGET)
        assert [len(unbatch(decode_frame(f[4:]))) for f in frames] == [2, 2]

    def test_nested_batch_refused(self):
        with pytest.raises(WireError):
            unbatch({"kind": "batch",
                     "frames": [{"kind": "batch", "frames": []}]})

    def test_untagged_member_refused(self):
        with pytest.raises(WireError):
            unbatch({"kind": "batch", "frames": [{"no": "kind"}]})

    def test_missing_frames_list_refused(self):
        with pytest.raises(WireError):
            unbatch({"kind": "batch", "frames": "nope"})


class TestSplitter:
    """``split_frames``: the receive path of a connection."""

    BODIES = [
        {"kind": "msg", "n": 1},
        {"kind": "msg", "n": 2, "blob": "x" * 300},
        {"kind": "admin", "cmd": "status"},
    ]

    def stream(self):
        # a singleton, a batch of two, a singleton: four bodies, three frames
        return (
            encode_frame(self.BODIES[0])
            + encode_batch(self.BODIES[1:])[0]
            + encode_frame(self.BODIES[0])
        )

    def test_one_read_of_many_frames_yields_every_body_in_order(self):
        buffer = bytearray(self.stream())
        assert split_frames(buffer) == [*self.BODIES, self.BODIES[0]]
        assert buffer == b""

    def test_a_stream_torn_at_every_offset_delivers_each_body_once(self):
        stream = self.stream()
        for cut in range(len(stream) + 1):
            buffer = bytearray(stream[:cut])
            first = split_frames(buffer)
            buffer += stream[cut:]
            assert first + split_frames(buffer) == [
                *self.BODIES, self.BODIES[0],
            ], cut
            assert buffer == b""

    def test_a_torn_tail_stays_in_the_buffer(self):
        frame = encode_frame(self.BODIES[0])
        buffer = bytearray(frame + frame[:5])
        assert split_frames(buffer) == [self.BODIES[0]]
        assert buffer == frame[:5]
        assert split_frames(buffer) == []  # half a frame is no frame

    def test_an_oversized_length_is_refused_from_the_header_alone(self):
        buffer = bytearray((MAX_FRAME + 1).to_bytes(4, "big"))
        with pytest.raises(WireError, match="MAX_FRAME"):
            split_frames(buffer)

    @pytest.mark.parametrize("payload", [
        b"{not json",
        b"[1, 2]",
        b'{"no": "kind"}',
        b'{"kind": "batch", "frames": [{"kind": "batch", "frames": []}]}',
    ])
    def test_malformed_frames_are_refused(self, payload):
        buffer = bytearray(len(payload).to_bytes(4, "big") + payload)
        with pytest.raises(WireError):
            split_frames(buffer)

    @pytest.mark.parametrize("damage", [
        {"type": "NOT_A_TYPE"},
        {"sender": None},
        {"recipient": ["S1"]},
        {"txn": {"T": 1}},
        {"payload": "not-a-dict"},
        {"payload": {"ops": [17]}},
        {"payload": {"ops": "abc"}},
    ])
    def test_a_malformed_msg_body_is_a_wire_error(self, damage):
        body = message_to_json(Message(
            msg_type=MsgType.VOTE, sender="S1", recipient="coord.T1",
            txn_id="T1", payload={"vote": "YES"},
        ))
        with pytest.raises(WireError):
            message_from_json({**body, **damage})
