"""The blessed surface of ``import repro`` is exactly ``__all__``.

PR 1 introduced deprecation shims for the pre-observability free
functions; this PR removes them.  These tests pin the replacement
contract: the package exposes the documented objects (System,
SystemConfig, the transport/backend types, the observability layer) and
*only* those — a new name on the package is an API decision, not an
accident of an import.
"""

import repro

#: the documented import surface, in sync with the package docstring
BLESSED_OBJECTS = {
    "BACKENDS",
    "Event",
    "EventBus",
    "MetricsReport",
    "Observability",
    "Span",
    "System",
    "SystemConfig",
    "Transport",
    "build_spans",
    "to_jsonl",
}

BLESSED_SUBPACKAGES = {
    "analysis",
    "commit",
    "compensation",
    "core",
    "errors",
    "harness",
    "ids",
    "locking",
    "net",
    "obs",
    "rt",
    "sg",
    "sim",
    "storage",
    "txn",
    "workload",
}


class TestPublicSurface:
    def test_all_is_exactly_the_blessed_surface(self):
        assert set(repro.__all__) == BLESSED_OBJECTS | BLESSED_SUBPACKAGES

    def test_every_blessed_object_resolves(self):
        for name in sorted(BLESSED_OBJECTS):
            assert getattr(repro, name) is not None, name

    def test_every_blessed_subpackage_imports(self):
        import importlib

        for name in sorted(BLESSED_SUBPACKAGES):
            module = importlib.import_module(f"repro.{name}")
            assert module.__name__ == f"repro.{name}"

    def test_no_stray_public_names(self):
        # Anything public on the package object must be blessed or a
        # submodule that gets bound as a side effect of the re-exports.
        import types

        for name in dir(repro):
            if name.startswith("_") or name == "annotations":
                continue
            if isinstance(getattr(repro, name), types.ModuleType):
                continue
            assert name in BLESSED_OBJECTS, (
                f"unblessed public attribute repro.{name}"
            )

    def test_transport_types_are_blessed(self):
        from repro.net.network import Network
        from repro.net.transport import Transport

        assert repro.Transport is Transport
        assert repro.BACKENDS == ("sim", "net")
        # The simulated Network satisfies the Transport protocol
        # structurally (the runtime TcpTransport is covered by the
        # conformance suite, which needs sockets).
        assert issubclass(Network, Transport)


class TestShimsRemoved:
    def test_collect_metrics_shim_is_gone(self):
        import repro.harness as harness

        assert not hasattr(harness, "collect_metrics")
        try:
            import repro.harness.metrics  # noqa: F401
        except ModuleNotFoundError:
            pass
        else:
            raise AssertionError("repro.harness.metrics should be removed")

    def test_trace_shim_is_gone(self):
        import repro.harness as harness

        assert not hasattr(harness, "transaction_timeline")
        try:
            import repro.harness.trace  # noqa: F401
        except ModuleNotFoundError:
            pass
        else:
            raise AssertionError("repro.harness.trace should be removed")

    def test_metrics_report_still_importable_from_harness(self):
        from repro.harness import MetricsReport
        from repro.obs.metrics import MetricsReport as ObsReport

        assert MetricsReport is ObsReport
