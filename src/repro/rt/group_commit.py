"""WAL group commit: concurrent force points share one fsync.

The durability contract of a commit protocol is per-record: a force
point's log record (PREPARE before a YES vote, COMMIT/ABORT before the
ACK, the coordinator's DECIDE before its DECISION) must be on stable
storage before any message that *reveals* it leaves the process.  The
host's WAL runs in ``group_commit`` mode (forced appends are buffered,
not fsynced) and every outbound flush passes
:meth:`GroupCommitFlusher.barrier` first — the transport's durability
gate — so one fsync covers every force point appended since the last.

There is no batching window to tune: the window is the blocking fsync
itself.  Frames that arrive while it runs are handled in the next pump
drain, and the force points they produce share the next flush's fsync,
so group size tracks fsync latency — one session pays one fsync per
force point and no added wait, sixteen sessions coalesce on their own.
"""

from __future__ import annotations

from repro.storage.wal import WriteAheadLog


class GroupCommitFlusher:
    """The fsync site for one group-committed WAL."""

    def __init__(self, wal: WriteAheadLog) -> None:
        self.wal = wal
        #: fsync groups issued through the barrier
        self.groups = 0
        #: force points those groups covered (>= groups when coalescing)
        self.forces_covered = 0

    async def barrier(self) -> None:
        """Return once every force point appended so far is on disk.

        Never suspends, so no force point can slip in between the fsync
        and the caller's next step.  No-op when nothing awaits a sync.
        """
        if self.wal.needs_sync:
            # THE designated fsync site: every other force point coalesces
            # behind this barrier instead of blocking its handler.
            self.forces_covered += self.wal.sync()
            self.groups += 1
