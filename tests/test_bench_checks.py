"""The benchmark's output checks on its own seed-0 ops.

``bench/checks.py`` calls ``truncated_code_space``, ``truncated_exactness``,
``truncated_kernel`` (on parity checks with zero columns, among others)
and ``rref_mod_p``; an exception there ends a benchmark run.  Running the
checks here on the first ops of two workloads makes a break of that
contract fail the tests instead.
"""

import importlib.util
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from convres.cli import parse_input, run_command

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
spec = importlib.util.spec_from_file_location("report_digest", ROOT / "tools" / "report_digest.py")
report_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_digest)

# The options every op is run with, read from bench/run.py by
# ``report_digest.bench_constants``.
OPTION_DEFAULTS = report_digest.OPTION_DEFAULTS


@pytest.mark.parametrize("workload, count", [("small-mix", 300), ("oracle-n2", 5)])
def test_bench_checks_pass_on_the_first_seed_0_ops(monkeypatch, workload, count):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import workloads

    start = time.perf_counter()
    ops = workloads.generate(workload, 0, count)
    for cmd, options, text in ops:
        report, _ = run_command(cmd, parse_input(text),
                                SimpleNamespace(**{**OPTION_DEFAULTS, **options}))
        assert checks.check_op(workload, cmd, options, text, report) == (None, None), text
    if workload == "small-mix":
        assert {cmd for cmd, _, _ in ops} == {"check", "observable", "resolve", "hilbert"}
    assert time.perf_counter() - start < 20
