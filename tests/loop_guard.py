"""The loop guard: nothing blocks a daemon's event loop, and nothing
reaches a socket except through ``TcpTransport._write``, the seam that
checks force-before-send (docs/ANALYSIS.md §4).

While an asyncio loop runs in the calling thread, each call in
:data:`REFUSED` made under a ``repro.rt`` frame is recorded unless the
*nearest* such frame is exempt for it (:data:`EXEMPT`), so a callee of
an exempt coroutine is checked as itself.  Every socket write whose
nearest ``repro`` frame is not the seam is recorded too.  The test fails
at teardown (``tests/conftest.py``): an exception raised in the call
would reach the loop's exception handler from ``data_received``, and the
test would still pass.
"""

from __future__ import annotations

import asyncio
import builtins
import os
import subprocess
import sys
import time
from types import FrameType
from typing import Any, Callable

from repro.rt import transport

PREFIX = "blocking call on the event loop"

#: the calls that block the loop, by module; every ``subprocess`` spawn
#: builds a ``Popen``, whose ``__init__`` is wrapped as well
REFUSED: dict[Any, tuple[str, ...]] = {
    os: ("fsync", "fdatasync", "replace", "rename", "remove", "unlink",
         "makedirs", "rmdir", "system"),
    time: ("sleep",),
    builtins: ("open",),
}
SPAWN = "subprocess.Popen"

#: the one frame that may write to a socket
SEAM = "repro.rt.transport.TcpTransport._write"

#: nearest ``repro.rt`` frame -> (the calls it may make, why); None
#: exempts every call under the frame, its callees' too
FSYNC = frozenset({"os.fsync"})
EXEMPT: dict[str, tuple[frozenset[str] | None, str]] = {
    "repro.rt.group_commit.GroupCommitFlusher.barrier": (
        FSYNC, "the designated fsync site: a turn's force points wait for it"),
    "repro.rt.daemon.SiteDaemon.start": (
        FSYNC, "boot: the fresh-boot checkpoint is made durable before serving"),
    "repro.rt.daemon.SiteDaemon.shutdown": (
        FSYNC, "shutdown: the WAL closes after the transport, nothing to serve"),
    "repro.rt.daemon.SiteDaemon.__init__": (
        None, "construction: in production it runs before the loop starts"),
    "repro.rt.system.NetSystem.start_site": (
        frozenset({SPAWN}), "the harness launching a daemon, not loop code"),
}


def _name(frame: FrameType) -> str:
    return f"{frame.f_globals.get('__name__')}.{frame.f_code.co_qualname}"


def _nearest(frame: FrameType | None, package: str) -> FrameType | None:
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module == package or module.startswith(package + "."):
            return frame
        frame = frame.f_back
    return None


def _exempt(frame: FrameType | None, call: str) -> bool:
    nearest = True
    while frame is not None:
        calls = EXEMPT.get(_name(frame), (frozenset(),))[0]
        if calls is None or (nearest and call in calls):
            return True
        nearest, frame = False, _nearest(frame.f_back, "repro.rt")
    return False


class LoopGuard:
    """Records the refused calls and stray socket writes of one test."""

    def __init__(self) -> None:
        self.records: list[str] = []

    def install(self, monkeypatch: Any) -> None:
        for module, names in REFUSED.items():
            for name in names:
                monkeypatch.setattr(module, name, self._guarded(
                    f"{module.__name__}.{name}", getattr(module, name)))
        monkeypatch.setattr(subprocess.Popen, "__init__", self._guarded(
            SPAWN, subprocess.Popen.__init__))
        made = transport._Link.connection_made
        monkeypatch.setattr(
            transport._Link, "connection_made",
            lambda link, writer: made(link, _Writer(writer, self)),
        )

    def report(self) -> str:
        """Every record once, in the order first seen."""
        return "\n".join(dict.fromkeys(self.records))

    def record(self, call: str, frame: FrameType | None) -> None:
        where = "outside repro" if frame is None else (
            f"{frame.f_code.co_qualname} ("
            f"{frame.f_globals['__name__'].replace('.', '/')}.py:"
            f"{frame.f_lineno})"
        )
        self.records.append(f"{PREFIX}: {call} from {where}")

    def _guarded(self, call: str, fn: Callable[..., Any]) -> Any:
        def guarded(*args: Any, **kwargs: Any) -> Any:
            if asyncio._get_running_loop() is not None:
                frame = _nearest(sys._getframe(1), "repro.rt")
                if frame is not None and not _exempt(frame, call):
                    self.record(call, frame)
            return fn(*args, **kwargs)

        return guarded


class _Writer:
    """A link's socket, its writes checked against the write seam."""

    def __init__(self, inner: Any, guard: LoopGuard) -> None:
        self.inner, self.guard = inner, guard

    def write(self, data: bytes) -> None:
        frame = _nearest(sys._getframe(1), "repro")
        if frame is None or _name(frame) != SEAM:
            self.guard.record("socket write outside TcpTransport._write", frame)
        self.inner.write(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)
