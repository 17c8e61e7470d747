"""Self-tests of the benchmark harness (not part of the repository's test suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing as tr  # noqa: E402
from job import output_digest  # noqa: E402
from workloads import WORKLOADS, gate  # noqa: E402


class FakeClock:
    """Clock that moves only when told to."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = tr.Tracer(clock)

    def leaf(dt):
        clock.t += dt

    def middle():
        clock.t += 1.0
        tracer.span("leaf", leaf)(2.0)
        clock.t += 0.5
        tracer.span("leaf", leaf)(3.0)

    def outer():
        tracer.span("middle", middle)()
        clock.t += 4.0
        tracer.span("leaf", leaf)(0.25)

    tracer.span("outer", outer)()
    spans = tracer.spans
    assert [s[tr.NAME] for s in spans] == ["outer", "middle", "leaf", "leaf", "leaf"]
    assert [s[tr.PARENT] for s in spans] == [-1, 0, 1, 1, 0]
    assert tr.self_times(spans) == [4.0, 1.5, 2.0, 3.0, 0.25]
    # the self times of a tree add up to the duration of its root
    assert sum(tr.self_times(spans)) == spans[0][tr.T1] - spans[0][tr.T0]


def test_span_records_exception_and_size():
    tracer = tr.Tracer(FakeClock())

    def boom(x):
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.span("boom", boom, size=lambda args: len(args[0]))([1, 2])
    tracer.span("ok", len, size=lambda args: len(args[0]))([1, 2, 3])
    assert tracer.spans[0][tr.ERR] == "ValueError"
    assert tracer.spans[0][tr.SIZE] is None
    assert tracer.spans[1][tr.ERR] is None
    assert tracer.spans[1][tr.SIZE] == 3


@pytest.mark.parametrize(
    "n, level, value",
    [
        (0, 50.0, 0.0),
        (19, 50.0, 10.0),  # p90 would leave 1 beyond: fall back to the median
        (20, 50.0, 10.5),  # 20 - ceil(0.9*20) = 2 beyond p90
        (100, 90.0, 90.0),  # exactly 10 beyond p90
        (109, 90.0, 99.0),  # 10 beyond p90; p99 leaves 1
        (999, 90.0, 900.0),  # p99 leaves 9 beyond, one short
        (1000, 99.0, 990.0),  # p99.9 leaves 1
        (10000, 99.9, 9990.0),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, level, value):
    samples = [float(i) for i in range(n, 0, -1)]  # 1..n in reverse order
    got_level, got = tr.tail_percentile(samples)
    assert (got_level, got) == (level, value)
    if n and got_level > 50.0:
        assert sum(1 for x in samples if x > got) >= tr.MIN_BEYOND


def test_layer_metrics_table_matches_output():
    spans = [["cli.run", -1, 0.0, 1.0, None, None]]
    out = tr.layer_metrics(spans, {"accepted_steps": 0, "back_steps": 0, "accepted_alternations": 0})
    missing = set(tr.LAYER_METRICS) - set(out)
    assert missing == {
        "trace.untraced_run_s", "trace.overhead_s", "trace.overhead_frac", "determinism.count_drift"
    }


def _history_arrays(history):
    return [
        (r.step, r.u.tobytes(), r.a.tobytes(), r.reaction, r.alt_iters,
         None if r.report is None else (r.report.delta, r.report.lb, r.report.ub))
        for r in history.steps
    ]


def test_wrapping_leaves_history_bitwise_identical(tmp_path):
    from pffrac import cli, driver, presets

    cfg = cli.config_from_setup(presets.load_preset("sent", 0.1))
    cfg["program"]["n_steps"] = "3"
    plain = cli.run_to_dir(cfg, tmp_path / "plain")

    tracer = tr.Tracer()
    tracer.install(tr.TARGETS)
    try:
        wrapped = tracer.span(tr.RUN_ROOT, cli.run_to_dir)(cfg, tmp_path / "traced")
    finally:
        tracer.uninstall()

    assert not tracer.missing
    assert plain.n_accepted == wrapped.n_accepted == 3
    assert _history_arrays(plain) == _history_arrays(wrapped)
    assert output_digest(tmp_path / "plain") == output_digest(tmp_path / "traced")
    names = {s[tr.NAME] for s in tracer.spans}
    assert {"solver.alternate_minimize", "linsolve.splu", "material.tangent_split", "vtkio.write"} <= names
    # every wrapper was removed again
    assert cli.run is driver.run
    assert not hasattr(driver.alternate_minimize, "__wrapped__")


def test_gate_counts_unaccepted_and_rejected_steps(tmp_path):
    from pffrac import cli, presets

    w = WORKLOADS["sent-crack"]
    cfg = cli.config_from_setup(presets.load_preset("sent", 0.1))
    cfg["program"]["n_steps"] = "1"
    cli.run_to_dir(cfg, tmp_path)
    # one accepted step: the others were never accepted
    assert gate(w, tmp_path, 0, 0, "") == (w.steps - 1, [])
    # a step the audit rejects fails too
    assert gate(w, tmp_path, 0, 1, "two-sided inequality fails at steps: 1\n") == (w.steps, [])
    # an audit mismatch or an unexpected exit code fails the whole job
    failed, problems = gate(w, tmp_path, 0, 1, "step 1: E csv=1.0 recomputed=2.0\n")
    assert failed == w.steps and problems
    assert gate(w, tmp_path, 2, 0, "") == (w.steps, ["run exit 2"])


def test_benchmark_json_lists_the_harness_metrics_and_workloads():
    import json

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench["per_layer"] == [
        {"name": k, "unit": unit, "better": better}
        for k, (unit, better, _moves, _workload) in tr.LAYER_METRICS.items()
    ]
    assert bench["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values() if w.timed
    ]
    for _unit, _better, moves, workload in tr.LAYER_METRICS.values():
        assert moves in {m["name"] for m in bench["end_to_end"]}
        assert workload in WORKLOADS


def _fake_output(out_dir, reactions):
    """run.json and load_disp.csv of a completed run with these reactions."""
    import json

    (out_dir / "run.json").write_text(json.dumps({"accepted_steps": len(reactions), "aborted": False}))
    rows = ["step,w,reaction", "0,0,0"] + [f"{n},{n * 1e-4},{r!r}" for n, r in enumerate(reactions, 1)]
    (out_dir / "load_disp.csv").write_text("\n".join(rows) + "\n")


def test_gate_checks_the_peak_band_of_the_cut_program(tmp_path):
    w = WORKLOADS["sent-crack"]
    want, rtol, step, _ = w.peak
    assert step == w.steps  # the cut program reaches its largest load at its last step
    curve = [want * n / step for n in range(1, w.steps + 1)]
    _fake_output(tmp_path, curve)
    assert gate(w, tmp_path, 0, 0, "") == (0, [])

    _fake_output(tmp_path, [r * (1 + 2 * rtol) for r in curve])
    failed, problems = gate(w, tmp_path, 0, 0, "")
    assert failed == w.steps and problems[0].startswith("peak ")

    early = curve[:]
    early[60] = 1.005 * want  # right height, wrong step
    _fake_output(tmp_path, early)
    failed, problems = gate(w, tmp_path, 0, 0, "")
    assert failed == w.steps and "at step 61" in problems[0]


def test_gate_checks_the_recorded_reactions(tmp_path):
    w = WORKLOADS["bend3d-elastic"]
    _fake_output(tmp_path, list(w.reactions))
    assert gate(w, tmp_path, 0, 0, "") == (0, [])
    _fake_output(tmp_path, [w.reactions[0], w.reactions[1] * (1 + 1e-3)])
    failed, problems = gate(w, tmp_path, 0, 0, "")
    assert failed == w.steps and problems[0].startswith("reaction ")


def test_calibrator_scales_each_interval_by_the_references_around_it():
    import calibrate

    assert calibrate.EVERY_S == 2.0
    refs = iter([0.1, 0.2, 0.05, 0.1])
    cal = calibrate.Calibrator(ref=lambda: next(refs))
    cal.checkpoint()  # 0.1
    first = cal.record(1.5)
    cal.checkpoint()  # less than EVERY_S since the last reference: none taken
    second = cal.record(1.0)
    cal.checkpoint()  # 0.2
    cal.checkpoint(force=True)  # no work since the last reference: none taken
    third = cal.record(0.5)
    cal.checkpoint(force=True)  # 0.05
    assert cal.refs == [0.1, 0.2, 0.05]
    n = calibrate.NOMINAL_S
    assert cal.scaled(first) == pytest.approx(1.5 * n / 0.15)
    assert cal.scaled(second) == pytest.approx(1.0 * n / 0.15)
    assert cal.scaled(third) == pytest.approx(0.5 * n / 0.125)


def test_reference_helper_answers_and_ends():
    import calibrate

    ref = calibrate.Reference()
    try:
        assert all(0.0 < ref() < 10.0 for _ in range(2))
    finally:
        ref.close()
    assert ref.proc.returncode == 0


def test_job_count_depends_on_seconds_only():
    from run import MIN_JOBS, job_count

    w = WORKLOADS["bend3d-elastic"]
    assert job_count(w, 3 * w.job_s) == job_count(w, 3.5 * w.job_s) == 3
    assert job_count(w, 1.0) == MIN_JOBS
