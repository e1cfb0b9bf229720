"""Per-layer timers installed from outside the program.

``install()`` replaces public functions of each ``src/repro`` package with
wrappers that keep one span stack per process.  A layer's *self time* is
the time its wrappers were on top of the stack: a call's duration minus
whatever wrapped callees covered.  Nothing under ``src/`` knows about this
module; end-to-end numbers are always measured without it.

What is wrapped (see ``TARGETS``): the kernel's ``Environment.run`` /
``step`` / ``schedule`` (layer ``sim``); every process body handed to the
kernel (layer ``commit``: the commit engines and protocols plus whatever
else runs in a process and is not claimed by a wrapped callee);
``Network.send`` / ``TcpTransport.send`` (``net``); the lock manager's
``acquire`` / ``release`` / ``release_all`` and the deadlock detector
(``locking``); WAL ``append`` / ``sync`` and KV store reads and writes
(``storage``); the local transaction manager (``txn``); the marking
protocols (``core``, skipped for the no-op ``NoProtocol``); the
compensation executor (``compensation``); ``ConflictIndex.record`` and
``GlobalSG.from_history`` (``sg``); ``ModelChecker.execute`` (``check``)
and ``run_oracles`` (``oracle``); wire encoding and decoding
(``rt.encode``, ``rt.decode``).  Generator
methods are traced per resumption, so time a generator spends suspended —
lock waits, message delays — is never counted; waiting is read from the
program's own logs instead.

Aggregates are kept for every call.  Full spans ``[name, txn id, start,
end, parent span]`` are kept in memory for transactions whose number is a
multiple of ``SAMPLE_EVERY`` and written out when the window ends.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter
from types import GeneratorType
from typing import Any, Callable

#: spans are kept for transactions whose trailing number is ≡ 0 mod this
SAMPLE_EVERY = 50

#: layer that owns the time no wrapper claims (the window's own driver
#: code; on the net backend also the event loop and its idle time)
ROOT = "bench"


class Tracer:
    """Span stack, per-layer self times and counters of one process."""

    def __init__(self) -> None:
        #: layer -> seconds its wrappers were on top of the stack
        self.self_s: dict[str, float] = defaultdict(float)
        #: "Owner.attr" -> calls
        self.calls: Counter[str] = Counter()
        #: named counters the hooks feed (bytes, queued lock requests, ...)
        self.tally: Counter[str] = Counter()
        #: named wall-clock samples in seconds (fsync, group-commit hold)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: recorded spans: [name, txn id, start, end, parent index or -1]
        self.spans: list[list[Any]] = []
        #: targets named in TARGETS that were found and wrapped
        self.wrapped = 0
        self._stack = [ROOT]
        self._mark = perf_counter()
        self._open = -1
        self._sampled: dict[str, bool] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    # -- span stack ----------------------------------------------------------

    def _sample(self, txn_id: Any) -> bool:
        if not isinstance(txn_id, str):
            return False
        hit = self._sampled.get(txn_id)
        if hit is None:
            digits = txn_id[len(txn_id.rstrip("0123456789")):]
            hit = bool(digits) and int(digits) % SAMPLE_EVERY == 0
            self._sampled[txn_id] = hit
        return hit

    def enter(self, layer: str, name: str, txn_id: Any = None) -> int:
        """Push ``layer``; returns the span to restore at :meth:`exit`."""
        now = perf_counter()
        self.self_s[self._stack[-1]] += now - self._mark
        self._stack.append(layer)
        previous = self._open
        if txn_id is not None and self._sample(txn_id):
            self.spans.append([name, txn_id, now, None, previous])
            self._open = len(self.spans) - 1
        self._mark = now
        return previous

    def exit(self, previous: int) -> None:
        """Pop the top layer and close its span, if it recorded one."""
        now = perf_counter()
        self.self_s[self._stack.pop()] += now - self._mark
        if self._open != previous:
            self.spans[self._open][3] = now
            self._open = previous
        self._mark = now

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        txn: Callable[[tuple[Any, ...]], Any] | None = None,
        skip: Callable[[Any], bool] | None = None,
        sample: str | None = None,
        post: Callable[["Tracer", tuple[Any, ...], Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``txn`` extracts the transaction id from the positional arguments
        (for span sampling); ``skip`` exempts some receivers; ``sample``
        names the list that collects each call's whole duration; ``post``
        sees the arguments and the result.  Generator functions are traced per
        resumption.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else None
        kind = type(raw)
        original = raw.__func__ if kind in (classmethod, staticmethod) \
            else getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}".rsplit(
            "repro.", 1
        )[-1]
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if skip is not None and skip(args[0]):
                return original(*args, **kwargs)
            tracer.calls[name] += 1
            txn_id = txn(args) if txn is not None else None
            started = perf_counter() if sample is not None else 0.0
            previous = tracer.enter(layer, name, txn_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(previous)
                if sample is not None:
                    tracer.samples[sample].append(perf_counter() - started)
            if post is not None:
                post(tracer, args, result)
            if type(result) is GeneratorType:
                return tracer.traced_generator(result, layer, name, txn_id)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        replacement: Any = wrapper
        if kind is classmethod:
            replacement = classmethod(wrapper)
        elif kind is staticmethod:
            replacement = staticmethod(wrapper)
        self._restore.append((owner, attr, raw if raw is not None else original))
        setattr(owner, attr, replacement)
        self.wrapped += 1

    def traced_generator(
        self, generator: Any, layer: str, name: str, txn_id: Any = None,
    ) -> Any:
        """A generator that times every resumption of ``generator``."""
        action, payload = generator.send, None
        while True:
            previous = self.enter(layer, name, txn_id)
            try:
                yielded = action(payload)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit(previous)
            try:
                payload = yield yielded
                action = generator.send
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # thrown in by the kernel
                payload, action = exc, generator.throw

    def wrap_async_wall(
        self, owner: Any, attr: str, sample: str,
        when: Callable[[Any], bool],
    ) -> None:
        """Record how long each awaited ``owner.attr`` call took, for the
        calls where ``when(self)`` holds on entry (wall time: other tasks
        run meanwhile, so no self time is derived)."""
        original = getattr(owner, attr)
        tracer = self

        async def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            if not when(self):
                return await original(self, *args, **kwargs)
            started = perf_counter()
            try:
                return await original(self, *args, **kwargs)
            finally:
                tracer.samples[sample].append(perf_counter() - started)

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        self.wrapped += 1

    def _wrap_group_commit(self) -> None:
        """Sample how long a barrier with force points to cover is held."""
        from repro.rt.group_commit import GroupCommitFlusher

        self.wrap_async_wall(
            GroupCommitFlusher, "barrier", "rt.group_commit.hold_s",
            when=lambda flusher: flusher.wal.needs_sync,
        )

    def _wrap_process_bodies(self) -> None:
        """Trace the generator of every kernel process as layer ``commit``.

        ``Process.eager`` runs a body's first segment before constructing
        the process, so it is proxied there; ``__init__`` proxies every
        other body (one that arrives with ``_started_on`` came through
        ``eager`` and already is a proxy).
        """
        from repro.sim.process import Process

        tracer = self
        init = Process.__init__
        eager = Process.__dict__["eager"]

        def body(generator: Any, name: str | None) -> Any:
            if type(generator) is not GeneratorType:
                return generator  # let Process raise its own TypeError
            label = name or generator.__name__
            return tracer.traced_generator(
                generator, "commit", f"process:{label.split(':')[0]}",
                label.rsplit(":", 1)[-1] if ":" in label else None,
            )

        def traced_init(
            self: Any, env: Any, generator: Any, name: str | None = None,
            _started_on: Any = None,
        ) -> None:
            if _started_on is None:
                generator = body(generator, name)
            init(self, env, generator, name, _started_on)

        def traced_eager(
            cls: Any, env: Any, generator: Any, name: str | None = None,
        ) -> Any:
            return eager.__func__(cls, env, body(generator, name), name)

        self._restore.append((Process, "__init__", init))
        self._restore.append((Process, "eager", eager))
        Process.__init__ = traced_init  # type: ignore[method-assign]
        Process.eager = classmethod(traced_eager)  # type: ignore[assignment]
        self.wrapped += 2

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- forked children (the checker's prefix reuse) ------------------------

    def follow_forks(self, path: str) -> None:
        """Keep the aggregates of ``os.fork`` children.

        The model checker forks one child per sibling schedule and the
        child leaves through ``os._exit``; without this its timers would
        vanish with it.  Each child appends the aggregates it added since
        the fork to ``path`` as one JSON line just before exiting.
        """
        import json

        tracer = self
        fork, leave = os.fork, os._exit
        baseline: dict[str, Any] = {}

        def traced_fork() -> int:
            tracer.tally["os.fork"] += 1
            pid = fork()
            if pid == 0:
                baseline.update(tracer.aggregates())
                tracer.spans.clear()
            return pid

        def traced_exit(code: int) -> None:
            if baseline:
                line = json.dumps(minus(tracer.aggregates(), baseline))
                fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
                os.write(fd, (line + "\n").encode())
                os.close(fd)
            leave(code)

        self._restore.append((os, "fork", fork))
        self._restore.append((os, "_exit", leave))
        os.fork, os._exit = traced_fork, traced_exit  # type: ignore[assignment]

    # -- output --------------------------------------------------------------

    def aggregates(self) -> dict[str, Any]:
        """JSON-ready copy of the counters (no spans, no raw samples)."""
        now = perf_counter()
        self.self_s[self._stack[-1]] += now - self._mark
        self._mark = now
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "tally": dict(self.tally),
        }

    def snapshot(self) -> dict[str, Any]:
        """Aggregates plus samples and sampled spans, for a trace file."""
        return {
            **self.aggregates(),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "spans": [list(span) for span in self.spans],
            "wrapped": self.wrapped,
        }


_GROUPS = ("self_s", "calls", "tally")


def minus(after: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    """The aggregate tables of ``after`` less those of ``before``."""
    return {
        group: {
            key: value - before.get(group, {}).get(key, 0)
            for key, value in after.get(group, {}).items()
        }
        for group in _GROUPS
    }


def merge(into: dict[str, Any], other: dict[str, Any]) -> None:
    """Add ``other``'s aggregate tables into ``into`` (in place)."""
    for group in _GROUPS:
        table = into.setdefault(group, {})
        for key, value in other.get(group, {}).items():
            table[key] = table.get(key, 0) + value


# -- the wrapped surface -------------------------------------------------------


def _arg(index: int) -> Callable[[tuple[Any, ...]], Any]:
    return lambda args: args[index] if len(args) > index else None


def _message_txn(args: tuple[Any, ...]) -> Any:
    return getattr(args[1], "txn_id", None) if len(args) > 1 else None


def _is_noop_protocol(protocol: Any) -> bool:
    from repro.core.protocols import NoProtocol

    return isinstance(protocol, NoProtocol)


def _lock_outcome(tracer: Tracer, event: Any) -> None:
    if not event.ok:
        tracer.tally[f"locking.wait_failed.{type(event.value).__name__}"] += 1


def _after_acquire(tracer: Tracer, args: tuple[Any, ...], event: Any) -> None:
    """Classify a lock request from the event ``acquire`` returned: granted
    at once, queued, and for a queued one how the wait ended."""
    if not event.triggered:
        tracer.tally["locking.queued"] += 1
        event.callbacks.append(lambda evt: _lock_outcome(tracer, evt))
    elif not event.ok:
        tracer.tally["locking.queued"] += 1
        _lock_outcome(tracer, event)


def _after_encode(tracer: Tracer, args: tuple[Any, ...], frame: bytes) -> None:
    tracer.tally["rt.wire.bytes"] += len(frame)


_MARKING_METHODS = (
    "check_spawn", "validate_at_vote", "merge_marks", "on_vote_commit",
    "on_vote_abort", "on_decision_commit", "on_decision_abort_compensated",
    "on_transaction_terminated", "on_executed",
)

#: (module, class or None, attribute, layer, Tracer.wrap options)
TARGETS: list[tuple[str, str | None, str, str, dict[str, Any]]] = [
    ("repro.sim.engine", "Environment", "run", "sim", {}),
    ("repro.sim.engine", "Environment", "step", "sim", {}),
    ("repro.sim.engine", "Environment", "schedule", "sim", {}),
    ("repro.check.scheduler", "ControlledEnvironment", "step", "sim", {}),
    ("repro.net.network", "Network", "send", "net", {"txn": _message_txn}),
    ("repro.rt.transport", "TcpTransport", "send", "net",
     {"txn": _message_txn}),
    ("repro.locking.manager", "LockManager", "acquire", "locking",
     {"txn": _arg(1), "post": _after_acquire}),
    ("repro.locking.manager", "LockManager", "release", "locking",
     {"txn": _arg(1)}),
    ("repro.locking.manager", "LockManager", "release_all", "locking",
     {"txn": _arg(1)}),
    ("repro.locking.deadlock", "DeadlockDetector", "check", "locking", {}),
    ("repro.storage.wal", "WriteAheadLog", "append", "storage",
     {"txn": _arg(2)}),
    ("repro.storage.wal", "WriteAheadLog", "sync", "storage",
     {"sample": "storage.sync_s"}),
    ("repro.storage.kvstore", "KVStore", "get_or", "storage", {}),
    ("repro.storage.kvstore", "KVStore", "put", "storage", {}),
    ("repro.storage.kvstore", "KVStore", "delete", "storage", {}),
    *(
        ("repro.txn.local_manager", "LocalTransactionManager", attr, "txn",
         {"txn": _arg(1)})
        for attr in ("execute", "prepare", "local_commit", "complete_commit",
                     "rollback_subtxn")
    ),
    *(
        ("repro.core.protocols", cls, attr, "core",
         {"txn": _arg(1), "skip": _is_noop_protocol})
        for cls in ("MarkingProtocol", "P1Protocol", "P2Protocol",
                    "SimpleProtocol")
        for attr in _MARKING_METHODS
    ),
    ("repro.compensation.executor", "CompensationExecutor", "build_ops",
     "compensation", {"txn": _arg(1)}),
    ("repro.compensation.executor", "CompensationExecutor", "run",
     "compensation", {"txn": _arg(1)}),
    ("repro.sg.index", "ConflictIndex", "record", "sg", {}),
    ("repro.sg.graph", "GlobalSG", "from_history", "sg", {}),
    ("repro.check.explorer", "ModelChecker", "execute", "check", {}),
    ("repro.check.oracles", None, "run_oracles", "oracle", {}),
    ("repro.rt.wire", None, "encode_frame", "rt.encode",
     {"post": _after_encode}),
    ("repro.rt.wire", None, "encode_batch", "rt.encode", {}),
    ("repro.rt.wire", None, "message_to_json", "rt.encode", {}),
    ("repro.rt.wire", None, "decode_frame", "rt.decode", {}),
    ("repro.rt.wire", None, "message_from_json", "rt.decode", {}),
    ("repro.rt.wire", None, "unbatch", "rt.decode", {}),
]

#: modules that bound a wrapped module-level function with ``from x import
#: name`` before the wrapper existed: (module, name, defining module)
REBINDS = [
    ("repro.check.explorer", "run_oracles", "repro.check.oracles"),
    ("repro.rt.transport", "encode_batch", "repro.rt.wire"),
    ("repro.rt.transport", "message_to_json", "repro.rt.wire"),
    ("repro.rt.transport", "message_from_json", "repro.rt.wire"),
    ("repro.rt.transport", "unbatch", "repro.rt.wire"),
]


def install() -> Tracer:
    """Wrap every target that exists and return the process's tracer.

    A target a later change renamed or removed is skipped, not an error:
    ``trace.wrapped_targets`` reports how many were found, so a drop shows
    in the output instead of breaking the benchmark.
    """
    tracer = Tracer()
    for module_name, cls_name, attr, layer, options in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            present = attr in owner.__dict__
        except (ImportError, AttributeError):
            continue
        if present:
            tracer.wrap(owner, attr, layer, **options)
    for module_name, name, source in REBINDS:
        try:
            module = importlib.import_module(module_name)
            current = getattr(importlib.import_module(source), name)
        except (ImportError, AttributeError):
            continue
        if name in module.__dict__:
            tracer._restore.append((module, name, module.__dict__[name]))
            setattr(module, name, current)
    for special in (tracer._wrap_group_commit, tracer._wrap_process_bodies):
        try:
            special()
        except (ImportError, AttributeError, KeyError):
            pass
    return tracer
