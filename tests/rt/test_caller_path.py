"""What one serial transfer costs, counted on real daemons.

The coordinator lives in the daemon of the transaction's first site, so a
2-site O2PC transfer still sends the paper's 12 protocol messages, but
only half of them cross a process boundary — plus the client's one
submission and the one reply that tells it.  The client logs nothing:
the coordinator's forced ``DECIDE`` is the seventh forced record, in the
first site's WAL, and rides the fsync that also covers that site's
COMMIT.  docs/PERFORMANCE.md tabulates the hops and fsync windows.
"""

from repro.harness.system import SystemConfig
from repro.rt import client as rt_client
from repro.rt.system import NetSystem

from tests.rt.test_daemon import transfer_spec


def test_one_serial_transfer_costs_what_the_protocol_says(monkeypatch):
    submitted, replies = [], []
    send = rt_client._Connection.send
    received = rt_client._Connection.data_received

    def counting_send(connection, frame):
        submitted.append(frame)
        send(connection, frame)

    def counting(connection, data):
        replies.append(data)
        received(connection, data)

    monkeypatch.setattr(rt_client._Connection, "send", counting_send)
    monkeypatch.setattr(rt_client._Connection, "data_received", counting)
    with NetSystem(SystemConfig(n_sites=2, backend="net")) as system:
        sites = system.cluster.site_ids
        before = {s: system.site_status(s) for s in sites}
        (outcome,) = system.run_transactions([transfer_spec()])
        after = {s: system.site_status(s) for s in sites}
    assert outcome.committed

    def delta(field):
        return sum(after[s][field] - before[s][field] for s in sites)

    messages = {}
    for site_id in sites:
        for msg_type, n in after[site_id]["messages"].items():
            messages[msg_type] = (
                messages.get(msg_type, 0) + n
                - before[site_id]["messages"].get(msg_type, 0)
            )
    client = system.client
    # the client writes no protocol message and no protocol frame
    assert client.transport.total_sent() == 0
    assert client.transport.frames_sent == 0
    assert messages == {
        "SUBTXN_REQ": 2, "SUBTXN_ACK": 2, "VOTE_REQ": 2, "VOTE": 2,
        "DECISION": 2, "ACK": 2,
    }
    # six daemon-to-daemon messages, one submission, one told reply
    assert delta("messages_framed") == 6
    assert len(submitted) == 1
    assert sum(data.count(b'"kind":"told"') for data in replies) == 1
    # no client log: 2 x (PREPARE + LOCAL_COMMIT + COMMIT) + DECIDE
    assert not hasattr(client, "wal")
    assert delta("forced_writes") == 7
    assert delta("fsyncs") == 4
