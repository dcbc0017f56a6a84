"""The conservation law the oracle reads off a metrics registry,
``submitted == completed + shed + withdrawn`` per (vertex, kind), fed
hand-built registries instead of runs."""

from repro.fuzz.oracle import conservation_violations
from repro.runtime.metrics import MetricsRegistry


def books(*, withdrawn_recv: float) -> MetricsRegistry:
    """Connector ``c``: source ``a`` submitted 10 sends (6 completed, 3
    shed, 1 timed out); sink ``b`` submitted 8 receives (6 completed, the
    rest ``withdrawn_recv``)."""
    registry = MetricsRegistry()
    sub = registry.counter("repro_ops_submitted_total")
    done = registry.counter("repro_ops_completed_total")
    wd = registry.counter("repro_ops_withdrawn_total")
    shed = registry.counter("repro_overload_shed_total")
    sub.labels("c", "a", "send").inc(10)
    done.labels("c", "a", "send").inc(6)
    shed.labels("c", "a", "shed_newest").inc(3)
    wd.labels("c", "a", "send").inc(1)
    sub.labels("c", "b", "recv").inc(8)
    done.labels("c", "b", "recv").inc(6)
    if withdrawn_recv:
        wd.labels("c", "b", "recv").inc(withdrawn_recv)
    return registry


def test_conforming_books_with_sheds_and_withdrawals_pass():
    assert conservation_violations(books(withdrawn_recv=2)) == []


def test_a_missing_withdrawal_is_named():
    (violation,) = conservation_violations(books(withdrawn_recv=1),
                                           label="run: ")
    assert violation == (
        "run: c/b/recv: submitted 8 != completed 6 + shed/withdrawn 1")
