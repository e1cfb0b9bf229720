"""``repro serve`` with the ``bench/trace.py`` timers installed.

The traced window's ``NetSystem`` subclass starts daemons through this file
instead of ``python -m repro``; the arguments are those of ``repro``
itself.  A daemon's trace lives in memory and is written to
``<data_dir>/<site>.trace.json`` whenever its status is requested (the
benchmark asks right before and right after the window, and a SIGKILL
leaves no later chance) and once more on orderly shutdown.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv: list[str]) -> int:
    import trace  # bench/trace.py: HERE is first on sys.path

    tracer = trace.install()

    from repro.cli import main as repro_main
    from repro.rt.daemon import SiteDaemon

    def dump(daemon: SiteDaemon) -> None:
        path = os.path.join(
            daemon.cluster.data_dir, f"{daemon.site_id}.trace.json"
        )
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)
        os.replace(path + ".tmp", path)

    status, shutdown = SiteDaemon.status, SiteDaemon.shutdown

    def traced_status(self: SiteDaemon) -> dict[str, object]:
        dump(self)
        return status(self)

    async def traced_shutdown(self: SiteDaemon) -> None:
        dump(self)
        await shutdown(self)

    SiteDaemon.status = traced_status  # type: ignore[method-assign]
    SiteDaemon.shutdown = traced_shutdown  # type: ignore[method-assign]
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
