"""Self-tests of the benchmark: tracer arithmetic, seeded generators and
failure accounting.  Run with ``python3 -m pytest perfbench``."""

import importlib
import json
import os
import sys

import numpy as np
import pytest

import run
import tracer as tracing
import workloads


def _cvmodes():
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    importlib.import_module("cvmodes.cli")
    return importlib.import_module("cvmodes")


def _pins():
    return {"reproduce_json_sha256": None, "scan_sha256": {}}


def test_self_time_of_synthetic_nested_call(monkeypatch):
    now = [0]
    monkeypatch.setattr(tracing.time, "perf_counter_ns", lambda: now[0])
    tr = tracing.Tracer()

    def inner():
        now[0] += 5

    def hook(tr, args, kwargs, result, parent):
        now[0] += 1   # counter work inside the parent span
        tr.count("inner")

    inner = tr.wrap(inner, "m.inner", hook)

    def outer():
        now[0] += 3
        inner()
        inner()
        now[0] += 2

    outer = tr.wrap(outer, "m.outer")
    outer()
    spans = tr.spans()
    assert list(spans["parent"]) == [-1, 0, 0]
    assert list(spans["hook_ns"]) == [2, 0, 0]
    assert tr.counters == {"inner": 2}
    assert list(tracing.self_times(spans["parent"], spans["start_ns"],
                                   spans["end_ns"], spans["hook_ns"])) == [5, 5, 5]
    assert tracing.summarize(spans) == {"m.inner": (2, 10.0), "m.outer": (1, 5.0)}
    assert tracing.child_share(spans, "m.outer", ("m.inner",)) == pytest.approx(10 / 15)


def test_tracer_rebinds_root_and_submodule_names():
    cv = _cvmodes()
    original = cv.run_pipeline
    tr = tracing.Tracer()
    tr.install(cv)
    tr.enable()
    try:
        cv.run_pipeline(cv.distribution_config(
            source={"kind": "opo", "r": 0.5, "eta": 0.9}, analyses=("photons",)))
    finally:
        tr.disable()
    assert cv.run_pipeline is original
    spans = tr.spans()
    names = [str(spans["names"][k]) for k in spans["name_id"]]
    root = names.index("pipeline.run_pipeline")
    assert spans["parent"][root] == -1
    # pipeline calls validate through its own `from .core import validate`
    children = {names[k] for k in np.flatnonzero(spans["parent"] == root)}
    assert {"core.validate", "core.purity", "transforms.apply"} <= children


@pytest.mark.parametrize("name", ["sweep", "scan", "files"])
def test_generators_are_deterministic(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
    a = cls(7, str(tmp_path / "a"), _pins())
    b = cls(7, str(tmp_path / "b"), _pins())
    c = cls(8, str(tmp_path / "c"), _pins())
    assert a.mix() == b.mix()
    inputs = {
        "sweep": lambda w: [w.delta, w.eta, w.r],
        "scan": lambda w: w.covs,
        "files": lambda w: [s["state"]["cov"] for s in w.sets] + [w.params],
    }[name]
    for x, y in zip(inputs(a), inputs(b)):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(inputs(a), inputs(c)))


def test_every_scan_seed_maps_to_a_pinned_pool():
    a = workloads.Scan(7, None, _pins())
    b = workloads.Scan(7 + workloads.Scan.POOLS, None, _pins())
    assert a.pool == b.pool == 7
    assert all(np.array_equal(x, y) for x, y in zip(a.covs, b.covs))
    with open(os.path.join(run.HERE, "pins.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)["scan_sha256"]
    assert sorted(pinned, key=int) == [str(k) for k in range(workloads.Scan.POOLS)]


def test_scan_pool_without_pin_fails_its_check():
    scan = workloads.Scan(5, None, _pins())
    scan.first = [[]] * scan.STATES
    with pytest.raises(workloads.CheckFailed, match="no pinned verdict digest"):
        scan.finish()


def test_corrupted_output_counts_as_failure_without_stopping():
    cv = _cvmodes()
    workload = workloads.Sweep(3, None, _pins())
    real_op = workload.op

    def corrupting_op(cv, i):
        result = real_op(cv, i)
        if i % 3 == 1:
            result.analyses["photons"] += 1e-6
        if i % 3 == 2:
            raise RuntimeError("injected")
        return result

    workload.op = corrupting_op
    loop = run.Loop(workload, cv, run.HostSpeed())
    samples = loop.run(0.0, min_ops=9)
    assert len(samples) == 9
    assert (loop.attempted, loop.failed) == (9, 6)
    assert "photon conservation" in loop.messages[0]
    assert "injected" in loop.messages[1]


def test_changed_reproduce_bytes_fail_their_digest():
    cv = _cvmodes()
    workload = workloads.Reproduce(0, None, {"reproduce_json_sha256": "0" * 64})
    workload.bind(cv)
    loop = run.Loop(workload, cv, run.HostSpeed())
    loop.run(0.0, min_ops=1)
    assert loop.failed == 1 and "digest" in loop.messages[0]


def test_host_speed_scale_follows_the_local_reference_time():
    host = run.HostSpeed()
    host.starts = list(range(0, 100, 10))
    host.durations = [run.NOMINAL_NS] * 5 + [2 * run.NOMINAL_NS] * 5
    assert list(host.scale([0, 95])) == [1.0, 0.5]
