"""Family 4: the event-loop blocking-call analyzer
(``repro.analysis.blocking``).

Most cases run against tiny synthetic ``rt/`` trees: the analyzer is
purely syntactic, so a module of a few lines exercises each rule and the
reachability traversal precisely.
"""

import pytest

from repro.analysis import default_root
from repro.analysis.blocking import PRAGMA, analyze_rt_blocking


@pytest.fixture()
def rt(tmp_path):
    (tmp_path / "rt").mkdir()

    def write(text, name="mod.py"):
        (tmp_path / "rt" / name).write_text(text)
        return tmp_path

    return write


def rules(findings):
    return [f.rule for f in findings]


class TestShippedTree:
    def test_runtime_is_clean(self):
        # the group-commit barrier's wal.sync() and the daemon's
        # boot/shutdown sites carry justified pragmas; nothing else may
        assert analyze_rt_blocking(default_root()) == []


class TestDirectCalls:
    def test_sleep_in_coroutine(self, rt):
        root = rt(
            "import time\n"
            "async def pump():\n"
            "    time.sleep(1)\n"
        )
        found = analyze_rt_blocking(root)
        assert rules(found) == ["blocking/sync-sleep"]
        assert found[0].location == "rt/mod.py:3"

    def test_fsync_in_coroutine(self, rt):
        root = rt(
            "import os\n"
            "async def flush():\n"
            "    os.fsync(3)\n"
        )
        assert rules(analyze_rt_blocking(root)) == ["blocking/sync-fsync"]

    def test_builtin_open(self, rt):
        root = rt(
            "async def load():\n"
            "    with open('x') as f:\n"
            "        return f.read()\n"
        )
        assert rules(analyze_rt_blocking(root)) == ["blocking/sync-file-io"]

    def test_os_file_ops(self, rt):
        root = rt(
            "import os\n"
            "async def rotate():\n"
            "    os.replace('a', 'b')\n"
        )
        assert rules(analyze_rt_blocking(root)) == ["blocking/sync-file-io"]

    def test_subprocess(self, rt):
        root = rt(
            "import subprocess\n"
            "async def spawn():\n"
            "    subprocess.run(['true'])\n"
        )
        assert rules(analyze_rt_blocking(root)) == ["blocking/subprocess"]

    def test_wal_chain_sync(self, rt):
        root = rt(
            "class D:\n"
            "    async def go(self):\n"
            "        self.site.wal.sync()\n"
        )
        found = analyze_rt_blocking(root)
        assert rules(found) == ["blocking/sync-fsync"]
        assert "WAL-chain" in found[0].message

    def test_checkpoint_is_not_a_durability_call(self, rt):
        # A fuzzy checkpoint appends an unforced record: no fsync.
        root = rt(
            "class D:\n"
            "    async def go(self):\n"
            "        self.site.checkpoint()\n"
        )
        assert analyze_rt_blocking(root) == []

    def test_asyncio_writer_close_is_not_wal(self, rt):
        root = rt(
            "class D:\n"
            "    async def go(self):\n"
            "        self.writer.close()\n"
        )
        assert analyze_rt_blocking(root) == []


class TestReachability:
    def test_sync_helper_called_from_coroutine(self, rt):
        root = rt(
            "import os\n"
            "class D:\n"
            "    async def go(self):\n"
            "        self._helper()\n"
            "    def _helper(self):\n"
            "        os.fsync(3)\n"
        )
        found = analyze_rt_blocking(root)
        assert rules(found) == ["blocking/sync-fsync"]
        assert "reachable from D.go" in found[0].message

    def test_generator_is_a_seed(self, rt):
        # sim-engine handlers are generators the pump thread drives
        root = rt(
            "import time\n"
            "def handler():\n"
            "    time.sleep(1)\n"
            "    yield\n"
        )
        assert rules(analyze_rt_blocking(root)) == ["blocking/sync-sleep"]

    def test_unreachable_sync_function_is_fine(self, rt):
        # nothing async calls it: it runs off-loop (harness code)
        root = rt(
            "import os\n"
            "def offline():\n"
            "    os.fsync(3)\n"
        )
        assert analyze_rt_blocking(root) == []

    def test_module_function_reachable_from_coroutine(self, rt):
        root = rt(
            "import time\n"
            "def helper():\n"
            "    time.sleep(1)\n"
            "async def go():\n"
            "    helper()\n"
        )
        assert rules(analyze_rt_blocking(root)) == ["blocking/sync-sleep"]


class TestCallbacksAreSeeds:
    """The loop runs more than coroutines: protocol methods and plain
    callbacks block it just as well."""

    def test_protocol_method(self, rt):
        root = rt(
            "import asyncio, os\n"
            "class Link(asyncio.Protocol):\n"
            "    def data_received(self, data):\n"
            "        os.fsync(3)\n"
        )
        found = analyze_rt_blocking(root)
        assert rules(found) == ["blocking/sync-fsync"]
        assert "Link.data_received (runs on the event loop)" in (
            found[0].message
        )

    def test_a_typing_protocol_is_not_a_loop_protocol(self, rt):
        root = rt(
            "import os\n"
            "from typing import Protocol\n"
            "class Shape(Protocol):\n"
            "    def area(self):\n"
            "        os.fsync(3)\n"
        )
        assert analyze_rt_blocking(root) == []

    @pytest.mark.parametrize("taker", [
        "loop.call_soon(self._tick)",
        "loop.call_at(when, self._tick)",
        "loop.call_later(0.1, self._tick)",
        "task.add_done_callback(self._tick)",
    ])
    def test_method_handed_to_the_loop(self, rt, taker):
        root = rt(
            "import time\n"
            "class Pump:\n"
            "    def arm(self, loop, task, when):\n"
            f"        {taker}\n"
            "    def _tick(self, *args):\n"
            "        time.sleep(1)\n"
        )
        assert rules(analyze_rt_blocking(root)) == ["blocking/sync-sleep"]

    def test_module_function_handed_to_the_loop(self, rt):
        root = rt(
            "import time\n"
            "def tick():\n"
            "    time.sleep(1)\n"
            "def arm(loop):\n"
            "    loop.call_soon(tick)\n"
        )
        assert rules(analyze_rt_blocking(root)) == ["blocking/sync-sleep"]

    def test_helper_reached_through_another_object(self, rt):
        # the protocol hands its bytes to the transport that owns it
        root = rt(
            "import asyncio, os\n"
            "class Link(asyncio.Protocol):\n"
            "    def data_received(self, data):\n"
            "        self.owner._on_readable(data)\n"
            "class Transport:\n"
            "    def _on_readable(self, data):\n"
            "        os.fsync(3)\n"
        )
        found = analyze_rt_blocking(root)
        assert rules(found) == ["blocking/sync-fsync"]
        assert "reachable from Link.data_received" in found[0].message

    def test_an_ambiguous_method_name_is_not_followed(self, rt):
        root = rt(
            "import asyncio, os\n"
            "class Link(asyncio.Protocol):\n"
            "    def data_received(self, data):\n"
            "        self.peer.close()\n"
            "class A:\n"
            "    def close(self):\n"
            "        os.fsync(3)\n"
            "class B:\n"
            "    def close(self):\n"
            "        pass\n"
        )
        assert analyze_rt_blocking(root) == []


class TestPragma:
    def test_allow_blocking_suppresses(self, rt):
        root = rt(
            "import os\n"
            "async def flush():\n"
            f"    os.fsync(3)  # {PRAGMA}\n"
        )
        assert analyze_rt_blocking(root) == []
