"""Benchmark for the convres CLI: seeded workloads, closed loop, one client.

Each op is one CLI request done in-process: ``convres.cli.parse_input``,
then ``convres.cli.run_command``, then the JSON report as the CLI
renders it.  Ops run back to back for ``--seconds`` seconds (default
RUN_SECONDS), each under a SIGALRM deadline; every output is checked
afterwards against the oracle (see ``checks.py``), outside the timed
region.  ``--seconds`` bounds the timed loop and nothing else: the
document pool and the traced op count are fixed per workload.

    python3 bench/run.py --workload resolve-n3 --seed 0 --trace 0
    python3 bench/run.py                 # every workload, one process each

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(defined in README.md), with times scaled to a reference machine speed
(see REF_NOMINAL_S) and the unscaled totals printed alongside.  With
``--trace 1`` it holds the per-layer metrics of a traced pass over a
fixed number of ops (see ``spans.py``), in unscaled seconds.  Report
digests, latencies and spans go to ``bench/out/``.  The exit status is
1 when an op fails (a wrong output, a timeout or a ConvresError) and 2
when the package under test cannot be loaded from ``src/``.
"""

import os

# Pin native thread pools before numpy loads: one thread per workload process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import gzip
import hashlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy  # noqa: F401  (loaded once, outside the set-up timing)

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# When this benchmark was added, every op on the default seed completed
# within about 0.7 s (2-core x86 box, Python 3.11), so 5 s separates slow
# from stuck.
DEADLINE_S = 5.0
SETUP_REPS = 5
RUN_SECONDS = 15
# Documents generated per run: about three times the ops done in
# RUN_SECONDS when this benchmark was added, so a faster engine still
# finds fresh inputs.
POOL_SIZE = {"resolve-n3": 90, "oracle-n2": 120, "small-mix": 18000}
# Ops in the traced pass: about the ops done in RUN_SECONDS then, fixed
# so that per-layer counts repeat exactly for a seed.
TRACE_OPS = {"resolve-n3": 24, "oracle-n2": 33, "small-mix": 5250}
# Machine-speed reference: a fixed pure-Python kernel is timed at least
# every REF_EVERY_S seconds of the loop, and every reported time is
# scaled by REF_NOMINAL_S / (reference time around it).  On shared
# machines the speed of one process drifts by +-20% over seconds; the
# scaling cancels most of that.  REF_NOMINAL_S is the kernel's time on
# an idle 2-core Xeon, so scaled times read as seconds on that machine.
REF_NOMINAL_S = 0.004
REF_EVERY_S = 0.25

OPTION_DEFAULTS = {"hilbert_max": None, "max_d": None, "oracle": None,
                   "property": None, "strict": None, "prop3_bound": None}

UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "op_p90_s": "s",
         "ops_ok_frac": "ratio", "peak_rss_mb": "MB"}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def import_convres(baseline):
    """Import a fresh copy of convres from ``src/``.

    Modules loaded since ``baseline`` (a set of module names) are
    dropped first, so import cost and module-level caches start over.
    """
    for name in set(sys.modules) - baseline:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import convres.cli
    import convres.errors
    if Path(convres.__file__).resolve().parent != SRC / "convres":
        raise ImportError(f"convres loaded from {convres.__file__}, not from {SRC}")
    return SimpleNamespace(cli=convres.cli, render=convres.cli._render,
                           error=convres.errors.ConvresError)


def _reference_kernel():
    acc = {}
    for i in range(20000):
        key = (i % 97, i % 13)
        acc[key] = (acc.get(key, 0) + i * 7) % 101
    return acc


def reference_time() -> float:
    """Best of three timings of the reference kernel.

    The garbage collector is off meanwhile, so the size of the engine's
    heap cannot change the reading.
    """
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _reference_kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def setup(workload, seed, baseline):
    """Import convres and generate the documents; median of several tries."""
    times = []
    for _ in range(SETUP_REPS):
        ref = reference_time()
        start = time.perf_counter()
        engine = import_convres(baseline)
        ops = workloads.generate(workload, seed, POOL_SIZE[workload])
        inputs_sha = hashlib.sha256("\n".join(text for _, _, text in ops).encode()).hexdigest()
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2 * REF_NOMINAL_S / (ref + reference_time()))
    return engine, ops, inputs_sha, statistics.median(times)


def run_ops(engine, ops, seconds=None, recorder=None):
    """Run ops back to back, stopping after ``seconds`` when given.

    Returns the outcomes, one dict per op with the op, its wall latency,
    the reference readings around it, its latency scaled to the
    reference speed (``scaled``), and either the report or the error.
    """
    signal.signal(signal.SIGALRM, _alarm)
    outcomes = []
    refs = [reference_time()]
    last_ref = loop_start = time.perf_counter()
    for index, (cmd, options, text) in enumerate(ops):
        now = time.perf_counter()
        if seconds is not None and now - loop_start >= seconds:
            break
        if now - last_ref >= REF_EVERY_S:
            refs.append(reference_time())
            last_ref = time.perf_counter()
        if recorder is not None:
            recorder.op = index
        out = {"cmd": cmd, "options": options, "text": text, "error": None,
               "ref_index": len(refs) - 1}
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                doc = engine.cli.parse_input(text)
                report, _ = engine.cli.run_command(
                    cmd, doc, SimpleNamespace(**{**OPTION_DEFAULTS, **options}))
                rendered = engine.render(report)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            out["report"] = report
            out["sha256"] = hashlib.sha256(rendered.encode()).hexdigest()
        except OpTimeout:
            out["error"] = f"timeout after {DEADLINE_S} s"
        except engine.error as exc:
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["latency"] = time.perf_counter() - start
        outcomes.append(out)
    refs.append(reference_time())
    for out in outcomes:
        # The readings just before and just after the op bracket it.
        k = out.pop("ref_index")
        out["refs"] = (refs[k], refs[k + 1])
        out["scaled"] = out["latency"] * 2 * REF_NOMINAL_S / (refs[k] + refs[k + 1])
    return outcomes


def verify(workload, outcomes):
    """Check every completed op; set ``wrong`` and ``note`` on each."""
    for out in outcomes:
        if out["error"] is None:
            out["wrong"], out["note"] = checks.check_op(
                workload, out["cmd"], out["options"], out["text"], out["report"])


def failed(out) -> bool:
    return out["error"] is not None or out.get("wrong") is not None


def end_to_end(outcomes, setup_s, peak_rss_mb):
    # A failed op counts as taking the whole deadline.
    lat = [DEADLINE_S if failed(o) else o["scaled"] for o in outcomes]
    n_failed = sum(map(failed, outcomes))
    return {
        "setup_s": setup_s,
        "ops_per_s": len(outcomes) / sum(o["scaled"] for o in outcomes),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8]
        if len(lat) > 1 else lat[0],
        "ops_ok_frac": 1 - n_failed / len(outcomes),
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer(recorder, plain, traced, canary):
    metrics = spans.layer_metrics(recorder)
    overhead = sum(o["scaled"] for o in traced) / sum(o["scaled"] for o in plain) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    # The canary runs only in resolve-n3; elsewhere both read 0.
    if canary is None:
        metrics["canary.wall_s"] = (0.0, "s")
    else:
        metrics["canary.wall_s"] = (DEADLINE_S if failed(canary) else canary["scaled"], "s")
    metrics["canary.failed"] = (int(canary is not None and failed(canary)), "count")
    return metrics


def write_out(name, outcomes, inputs_sha):
    OUT.mkdir(exist_ok=True)
    record = {
        "inputs_sha256": inputs_sha,
        "columns": ["op", "command", "report_sha256", "failure", "latency_s",
                    "scaled_s", "reference_s_before", "reference_s_after"],
        "reports": [[i, o["cmd"], o.get("sha256"), o["error"] or o.get("wrong"),
                     o["latency"], o["scaled"], *o["refs"]]
                    for i, o in enumerate(outcomes)],
    }
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def run_workload(args) -> int:
    baseline = set(sys.modules)
    try:
        engine, ops, inputs_sha, setup_s = setup(args.workload, args.seed, baseline)
    except ImportError as exc:
        print(f"error: cannot load convres: {exc}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if not args.trace:
        outcomes = run_ops(engine, ops, seconds=args.seconds)
        peak = peak_rss_mb()  # before the checks, which allocate on their own
        verify(args.workload, outcomes)
        metrics = {k: (v, UNITS[k]) for k, v in end_to_end(outcomes, setup_s, peak).items()}
        correct = not any(map(failed, outcomes))
    else:
        count = TRACE_OPS[args.workload]
        outcomes = run_ops(engine, ops[:count])
        engine = import_convres(baseline)
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            traced = run_ops(engine, ops[:count], recorder=recorder)
        finally:
            recorder.restore()
        for missing in recorder.missing:
            print(f"warning: {missing} not found; its metrics read 0", file=sys.stderr)
        canary = None
        if args.workload == "resolve-n3":
            canary = run_ops(engine, [workloads.canary_op()])[0]
            print(f"canary: {canary['error'] or 'completed'} in {canary['latency']:.2f} s")
        verify(args.workload, outcomes)
        metrics = per_layer(recorder, outcomes, traced, canary)
        same = [a.get("sha256") for a in outcomes] == [b.get("sha256") for b in traced]
        if not same:
            print("error: traced reports differ from untraced ones", file=sys.stderr)
        correct = same and not any(map(failed, outcomes))
        OUT.mkdir(exist_ok=True)
        with gzip.open(OUT / f"{name}-spans.json.gz", "wt") as fh:
            json.dump(recorder.spans, fh)
    path = write_out(name, outcomes, inputs_sha)

    n_failed = sum(map(failed, outcomes))
    print(f"workload {args.workload} seed {args.seed}: {len(outcomes)} ops, "
          f"{n_failed} failed (ops_failed_frac {n_failed / len(outcomes):.4f}), "
          f"deadline {DEADLINE_S} s; reports in {path.relative_to(HERE.parent)}")
    wall = sum(o["latency"] for o in outcomes)
    median = statistics.median(o["latency"] for o in outcomes)
    speed = wall / sum(o["scaled"] for o in outcomes)
    print(f"  unscaled: {wall:.3f} s in ops, median op {median:.6g} s; "
          f"machine slower than reference by x{speed:.3f}")
    for o in outcomes:
        if failed(o):
            print(f"  failed: {o['cmd']} {o['text']}: {o['error'] or o['wrong']}")
        elif o.get("note"):
            print(f"  note: {o['cmd']} {o['text']}: {o['note']}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": n_failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; a table of the last lines."""
    status = 0
    rows = []
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        if not lines or not lines[-1].startswith("{"):
            print(f"FAIL: {workload} exited with status {proc.returncode} and no result")
            continue
        rows.append((workload, json.loads(lines[-1])))
    for workload, result in rows:
        verdict = "ok" if result["correct"] else "WRONG OUTPUT"
        print(f"{workload}: {verdict}, {result['attempted']} ops, {result['failed']} failed "
              f"(ops_failed_frac {result['failed'] / result['attempted']:.4f})")
        for key, m in result["metrics"].items():
            print(f"  {key:48s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS,
                        help="length of the timed loop (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
