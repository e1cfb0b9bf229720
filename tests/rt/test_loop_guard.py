"""The loop guard (``tests/loop_guard.py``) refuses what it says it does.

A probe is a few lines compiled under a ``repro.rt`` module name: the
guard reads only a frame's module and qualified name.  Each test drives
the guard installed around it, then clears what it recorded.
"""

import asyncio
import contextlib
import os
import subprocess
import time
from unittest.mock import Mock

import pytest

from repro.rt.config import local_cluster
from repro.rt.pump import RealtimePump
from repro.rt.transport import TcpTransport, Told, _Link
from repro.sim.engine import Environment
from tests.loop_guard import EXEMPT, PREFIX

SOURCES = {
    "repro.rt.probe": """
async def on_the_loop(thunk):
    return thunk()
""",
    "repro.rt.daemon": """
class SiteDaemon:
    def __init__(self, build):
        build()
    async def start(self, pump, thunk):
        thunk()
        await pump.wait_for(thunk)
    def _reply(self, writer):
        writer.write(b'told')
""",
    "repro.rt.pump": """
class RealtimePump:
    async def wait_for(self, thunk):
        thunk()
""",
    "repro.rt.obs_sink": """
class JsonlEventSink:
    def __init__(self, path):
        open(path, 'a').close()
""",
}


def probe(name, attr):
    """``attr`` of ``SOURCES[name]`` run as the module ``name``."""
    namespace = {"__name__": name}
    exec(compile(SOURCES[name], name.replace(".", "/") + ".py", "exec"), namespace)
    return namespace[attr]


def refused(loop_guard):
    """What the guard recorded, which it then forgets."""
    report = loop_guard.report()
    loop_guard.records.clear()
    return report.splitlines()


REFUSED_CALLS = {
    "os.fsync": lambda d: os.fsync(os.open(d, os.O_RDONLY)),
    "os.fdatasync": lambda d: os.fdatasync(os.open(d, os.O_RDONLY)),
    "os.replace": lambda d: os.replace(d / "a", d / "b"),
    "os.rename": lambda d: os.rename(d / "a", d / "b"),
    "os.remove": lambda d: os.remove(d / "a"),
    "os.unlink": lambda d: os.unlink(d / "a"),
    "os.makedirs": lambda d: os.makedirs(d / "b"),
    "os.rmdir": lambda d: os.rmdir(d / "b"),
    "os.system": lambda d: os.system("true"),
    "time.sleep": lambda d: time.sleep(0),
    "builtins.open": lambda d: open(d / "a").close(),
    "subprocess.Popen": lambda d: subprocess.run(["true"], check=True),
}


@pytest.mark.parametrize("call", sorted(REFUSED_CALLS))
def test_each_refused_call_is_reported_with_its_frame(call, tmp_path, loop_guard):
    (tmp_path / "a").write_text("")
    thunk = REFUSED_CALLS[call]
    with contextlib.suppress(OSError):  # what the call did does not matter
        asyncio.run(probe("repro.rt.probe", "on_the_loop")(lambda: thunk(tmp_path)))
    assert refused(loop_guard) == [
        f"{PREFIX}: {call} from on_the_loop (repro/rt/probe.py:3)"
    ]


def test_nothing_is_refused_with_no_loop_or_no_runtime_frame(loop_guard):
    with contextlib.suppress(StopIteration):  # stepped with no loop
        probe("repro.rt.probe", "on_the_loop")(lambda: time.sleep(0)).send(None)

    async def test_code():
        time.sleep(0)

    asyncio.run(test_code())
    assert refused(loop_guard) == []


class TestExemptions:
    def test_the_table_holds_five_named_entries_with_their_reasons(self):
        assert sorted(EXEMPT) == [
            "repro.rt.daemon.SiteDaemon.__init__",
            "repro.rt.daemon.SiteDaemon.shutdown",
            "repro.rt.daemon.SiteDaemon.start",
            "repro.rt.group_commit.GroupCommitFlusher.barrier",
            "repro.rt.system.NetSystem.start_site",
        ]
        assert all(reason for _, reason in EXEMPT.values())

    def test_a_callee_of_an_exempt_coroutine_is_still_refused(self, loop_guard):
        # SiteDaemon.start may fsync and nothing else; the pump it awaits
        # may not even fsync
        daemon = probe("repro.rt.daemon", "SiteDaemon")
        pump = probe("repro.rt.pump", "RealtimePump")()
        fd = os.open(".", os.O_RDONLY)
        asyncio.run(daemon.start(None, pump, lambda: os.fsync(fd)))
        os.close(fd)
        assert refused(loop_guard) == [
            f"{PREFIX}: os.fsync from RealtimePump.wait_for (repro/rt/pump.py:4)"
        ]
        asyncio.run(daemon.start(None, pump, lambda: time.sleep(0)))
        assert refused(loop_guard) == [
            f"{PREFIX}: time.sleep from SiteDaemon.start (repro/rt/daemon.py:6)",
            f"{PREFIX}: time.sleep from RealtimePump.wait_for (repro/rt/pump.py:4)",
        ]

    def test_nothing_under_a_daemons_construction_is_refused(
        self, loop_guard, tmp_path,
    ):
        daemon = probe("repro.rt.daemon", "SiteDaemon")
        sink = probe("repro.rt.obs_sink", "JsonlEventSink")

        async def construct(build):
            build()

        asyncio.run(construct(lambda: daemon(lambda: sink(tmp_path / "e"))))
        assert refused(loop_guard) == []
        asyncio.run(construct(lambda: sink(tmp_path / "e")))
        assert refused(loop_guard) == [
            f"{PREFIX}: builtins.open from JsonlEventSink.__init__ "
            "(repro/rt/obs_sink.py:4)"
        ]


def test_only_the_write_seam_may_write_to_a_socket(loop_guard):
    env = Environment()
    owner = TcpTransport(env, local_cluster(["S1"], data_dir="."), RealtimePump(env))
    link = _Link(owner)
    link.connection_made(Mock(**{"is_closing.return_value": False}))
    owner._write(link, [Told({"kind": "admin", "reply": {}})])
    assert link.writer.inner.write.called and refused(loop_guard) == []
    probe("repro.rt.daemon", "SiteDaemon")._reply(None, link.writer)
    link.writer.write(b"raw")
    stray = f"{PREFIX}: socket write outside TcpTransport._write from"
    assert refused(loop_guard) == [
        f"{stray} SiteDaemon._reply (repro/rt/daemon.py:9)",
        f"{stray} outside repro",
    ]
