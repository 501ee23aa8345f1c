"""Self-tests of the benchmark: inputs, checks, span recorder, deadline.

Run with ``python -m pytest bench/tests``.
"""

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

import checks
import run
import spans
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_document_bytes(workload):
    first = workloads.generate(workload, 7, 40)
    assert first == workloads.generate(workload, 7, 40)
    assert [t for *_, t in first] != [t for *_, t in workloads.generate(workload, 8, 40)]


@pytest.mark.parametrize("workload,count", [("resolve-n3", 50), ("oracle-n2", 50),
                                            ("small-mix", 4000)])
def test_workload_documents_are_distinct(workload, count):
    texts = [t for *_, t in workloads.generate(workload, 3, count)]
    assert len(set(texts)) == len(texts) == count
    assert workloads.canary_op()[2] not in texts


def test_generator_does_not_import_convres():
    code = ("import sys, workloads\n"
            "for w in workloads.WORKLOADS: workloads.generate(w, 1, 20)\n"
            "assert not [m for m in sys.modules if m.startswith('convres')]\n")
    subprocess.run([sys.executable, "-c", code], check=True, cwd=run.HERE)


def test_poly_text_is_canonical():
    assert workloads.poly_text({(0, 1): 3, (2, 0): 1, (0, 0): 5}, 7) == "D1^2 + 3*D2 + 5"
    assert workloads.poly_text({(1, 0): 7}, 7) == "0"


def _op(cmd, options, text):
    from convres.cli import parse_input, run_command

    options = SimpleNamespace(**{**run.OPTION_DEFAULTS, **options})
    return run_command(cmd, parse_input(text), options)[0]


def test_checks_accept_right_reports_and_flag_wrong_ones():
    ops = workloads.generate("small-mix", 5, 40)
    for cmd in ("resolve", "hilbert", "check", "observable"):
        cmd, options, text = next(op for op in ops if op[0] == cmd)
        report = _op(cmd, options, text)
        assert checks.check_op("small-mix", cmd, options, text, report) == (None, None)
        if cmd == "resolve":
            report["degree_table"][0][0] += 1
        elif cmd == "hilbert":
            report["values"][1] += 1
        elif cmd == "check":
            report["pd"] = not report["pd"]
        else:
            report["observable"] = not report["observable"]
            report["parity_check"] = [["1"] * len(json.loads(text)["matrix"])]
            report["witness"] = {"element": ["1"] * len(json.loads(text)["matrix"]),
                                 "multiplier": "1"}
        assert checks.check_op("small-mix", cmd, options, text, report)[0] is not None


def test_self_time_on_a_fake_call_tree():
    now = [0.0]
    rec = spans.SpanRecorder(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    leaf = rec.wrap("m.leaf", lambda: tick(2))
    mid = rec.wrap("m.mid", lambda: (tick(1), leaf(), tick(3)))
    top = rec.wrap("m.top", lambda: (tick(5), mid(), leaf(), tick(1)))
    deep = rec.wrap("m.deep", lambda k: (tick(1), k and deep(k - 1)))
    top()
    deep(2)
    summary = spans.summarize(rec.spans)
    assert summary["m.top"] == {"calls": 1, "total_s": 14.0, "self_s": 6.0}
    assert summary["m.mid"] == {"calls": 1, "total_s": 6.0, "self_s": 4.0}
    assert summary["m.leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    # A recursive call counts again in calls and self time, not in total time.
    assert summary["m.deep"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}


def test_recorder_patches_every_binding_and_restores_them():
    import convres
    import convres.complexes
    import convres.groebner
    import convres.observability

    original = convres.groebner.syzygy_basis
    rec = spans.SpanRecorder()
    rec.install()
    try:
        traced = convres.complexes.syzygy_basis
        assert traced is not original
        assert (convres.groebner.syzygy_basis is traced
                and convres.observability.syzygy_basis is traced
                and convres.syzygy_basis is traced)
        _op("resolve", {"hilbert_max": 3}, '{"p": 2, "n": 2, "kind": "code", '
                                           '"matrix": [["D1", "D2"]]}')
    finally:
        rec.restore()
    assert rec.missing == []
    assert convres.complexes.syzygy_basis is convres.groebner.syzygy_basis
    assert convres.complexes.syzygy_basis is original and convres.syzygy_basis is original
    summary = spans.summarize(rec.spans)
    assert summary["groebner.syzygy_basis"]["calls"] > 0
    assert rec.counters["complexes.minimal_resolution.out_cols"] == 3


def test_deadline_turns_the_canary_into_a_counted_failure(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.3)
    engine = run.import_convres(set(sys.modules))
    outcomes = run.run_ops(engine, [workloads.canary_op()])
    assert outcomes[0]["error"].startswith("timeout")
    metrics = run.end_to_end(outcomes, setup_s=0.0, peak_rss_mb=1.0)
    assert metrics["op_p50_s"] == metrics["op_p90_s"] == 0.3
    assert metrics["ops_ok_frac"] == 0
