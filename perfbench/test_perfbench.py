"""Tests of the benchmark itself:  PYTHONPATH=src python -m pytest perfbench -q"""

import json
import time

import pytest

import run
import tracer

WORKLOADS = ("series", "checks", "oracle")


@pytest.fixture
def runner():
    run.WORK.mkdir(exist_ok=True)
    yield run.Runner(json.loads(run.REFERENCE.read_text()), deadline=time.monotonic() + 120)
    run.WORK.rmdir()


def test_tampered_digest_counts_as_failure(runner):
    argv = run.commands("checks", 0)[0]
    key = " ".join(argv)
    runner.run(argv)
    assert runner.failures == []
    runner.reference = {**runner.reference, key: "0" * 64}
    runner.run(argv)
    assert runner.failures == [(key, "stdout differs from the reference")]
    assert runner.attempted == 2  # one failure in two: the tampered one alone


def test_output_checks():
    ref = {"verify --terms 2": run.hashlib.sha256(b"PASS a\nFAIL b\n").hexdigest()}
    assert run.check_output(["verify", "--terms", "2"], 0, b"PASS a\nFAIL b\n", ref) == \
        "a verify line is not PASS"
    assert run.check_output(["verify", "--terms", "2"], 1, b"", ref) == "exit code 1"
    assert run.check_output(["oracle"], 0, b"m=1: MISMATCH\n",
                            {"oracle": run.hashlib.sha256(b"m=1: MISMATCH\n").hexdigest()}) == \
        "an oracle line is not MATCH"
    assert run.check_output(["series"], 0, b"", {}) == "no reference digest"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_do_the_same_work(workload):
    a, b = run.commands(workload, 1), run.commands(workload, 2)
    assert sorted(a) == sorted(b)
    orders = {tuple(map(tuple, run.commands(workload, s))) for s in range(20)}
    assert len(orders) > 1  # the seed does permute the order


def test_every_generated_argv_has_a_reference():
    reference = json.loads(run.REFERENCE.read_text())
    generated = {" ".join(c) for w in WORKLOADS for s in range(200) for c in run.commands(w, s)}
    assert generated == set(reference)


def test_removed_function_is_reported_absent():
    from similitude import counting, dirichlet
    from similitude.counting import Target

    original = dirichlet.convolve
    t = tracer.Tracer()
    t.install(wrapped=("dirichlet.convolve", "counting.no_such_function", "no_such_module.f"))
    try:
        # wrapped in every namespace that imported it
        assert dirichlet.convolve is counting.convolve is not original
        counting.engine_sequence(Target.ZETA_J, 12)
    finally:
        t.uninstall()
    assert dirichlet.convolve is counting.convolve is original
    assert t.absent == ["counting.no_such_function", "no_such_module.f"]
    agg = tracer.aggregate({"names": t.names, "absent": t.absent, "spans": t.spans})
    assert agg["calls"] == {"dirichlet.convolve": 2}
    assert agg["counters"] == {"dirichlet.convolve.terms": 24}
    values, missing = tracer.layer_metrics(
        agg, ["dirichlet.convolve.calls", "counting.no_such_function.self_s"],
        wrapped=("dirichlet.convolve", "counting.no_such_function"))
    assert values == {"dirichlet.convolve.calls": 2}
    assert missing == ["counting.no_such_function.self_s"]


def test_self_times_sum_to_root_with_overlapping_workers():
    # (id, parent, name, start, end, thread, work): root on thread 1 calls a
    # child, then hands two overlapping spans to worker threads 2 and 3.
    s = 10**9
    spans = [
        (0, -1, 0, 0, 10 * s, 1, 0),
        (1, 0, 1, 1 * s, 3 * s, 1, 0),
        (2, 0, 2, 4 * s, 8 * s, 2, 0),
        (3, 2, 3, 5 * s, 6 * s, 2, 0),
        (4, 0, 2, 4 * s, 8 * s, 3, 0),
    ]
    selfs = tracer.self_times(spans)
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert selfs[0] == pytest.approx(10 - 2 - 4)  # minus its child and the workers' union
    assert selfs[1] == pytest.approx(2.0)
    # the two workers overlap fully, so each gets half of its wall time
    assert selfs[2] == pytest.approx((4 - 1) / 2)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[4] == pytest.approx(2.0)
