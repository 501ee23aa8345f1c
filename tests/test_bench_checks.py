"""The benchmark's output checks on its own seed-0 ops.

``bench/checks.py`` calls ``truncated_code_space``, ``truncated_exactness``,
``truncated_kernel`` (on parity checks with zero columns, among others)
and ``rref_mod_p``; an exception there ends a benchmark run.  Running the
checks here on the first ops of two workloads makes a break of that
contract fail the tests instead.
"""

import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from convres.cli import parse_input, run_command

BENCH = Path(__file__).resolve().parents[1] / "bench"

# The options every op is run with, as ``OPTION_DEFAULTS`` in bench/run.py.
OPTION_DEFAULTS = {"hilbert_max": None, "max_d": None, "oracle": None,
                   "property": None, "strict": None, "prop3_bound": None}


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
