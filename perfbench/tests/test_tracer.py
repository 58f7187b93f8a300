"""Span self time and the wrappers' install/uninstall."""

from harness.tracer import Tracer, export, install, summarize


def test_self_time_excludes_nested_wrapped_calls():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    wrapped_inner = tracer.wrap("partition.validate", inner)

    def outer():
        now[0] += 1.0
        wrapped_inner()
        now[0] += 3.0

    tracer.wrap("partition.plan", outer)()
    records = {r["name"]: r for r in export(tracer.spans)}
    assert records["partition.plan"]["self"] == 4.0
    assert records["partition.validate"]["self"] == 2.0
    assert records["partition.validate"]["parent"] == "partition.plan"
    assert not records["partition.validate"]["outer"]
    s = summarize(records.values())
    assert s["outer_ms"]["partition"] == 6000.0 and s["top_ms"] == 6000.0


def test_install_wraps_and_uninstall_restores_the_program():
    from repro.partition.base import PartitionPlan
    from repro.runtime.session import RunSession
    from repro.sparse.crs import CRSMatrix

    before = (vars(PartitionPlan)["validate"], vars(RunSession)["run"],
              vars(CRSMatrix)["from_coo"])
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert vars(PartitionPlan)["validate"] is not before[0]
        assert isinstance(vars(CRSMatrix)["from_coo"], classmethod)
    finally:
        uninstall()
    after = (vars(PartitionPlan)["validate"], vars(RunSession)["run"],
             vars(CRSMatrix)["from_coo"])
    assert after == before
