"""``tools/report_digest.py``, the byte-identity gate over the benchmark pools."""

import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("report_digest", ROOT / "tools" / "report_digest.py")
report_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_digest)

SIZES = {"resolve-n3": 1, "oracle-n2": 1, "small-mix": 16}

# The digests of a fixed seed-0 slice of the pools.  A change to any
# report they render fails here; a new pin goes with a report change
# recorded in CHANGES.md.
PINNED_SIZES = {"resolve-n3": 6, "oracle-n2": 4, "small-mix": 600}
PINNED = {
    "resolve-n3": "3b0eed193abd9d4cc6590d2491e0c3e1ea269dca74918383238e495ef5ccb79e",
    "oracle-n2": "6642b8d5d016c8219c8cdeb23d47d4023799b76496f93b33ef2b4d9dec5a398f",
    "small-mix": "226b88a04db57860dec280528f405b04e6ad2dcd47cbb5d6824ccb1fb079a43b",
}


def _chunks(text):
    """{workload: [(header, body)]} of a written digest text."""
    out = {}
    for chunk in text.split("## ")[1:]:
        header, body = chunk.split("\n", 1)
        workload, rest = header.split(" ", 1)
        out.setdefault(workload, []).append((rest, body))
    return out


def test_digests_hash_every_rendering_and_check_every_complex():
    out = io.StringIO()
    result = report_digest.digests(ROOT, 0, out, SIZES)
    assert list(result) == list(report_digest.workloads.WORKLOADS)
    assert report_digest.digests(ROOT, 0, None, SIZES) == result
    chunks = _chunks(out.getvalue())
    for workload, entries in chunks.items():
        text = "".join(f"## {workload} {h}\n{b}" for h, b in entries)
        assert hashlib.sha256(text.encode()).hexdigest() == result[workload]

    cli, error = report_digest.import_cli(ROOT)
    ops = report_digest.workloads.generate("small-mix", 0, SIZES["small-mix"])
    entries = dict(chunks["small-mix"])
    assert len(entries) == len(chunks["small-mix"])
    commands, errors = set(), 0
    for index, (cmd, options, text) in enumerate(ops):
        body = entries[f"{index} {cmd}"]
        complex_text = text if cmd == "check" else None
        if cmd == "resolve":
            complex_text = json.dumps(json.loads(body)["complex_document"], sort_keys=True)
        for prop in report_digest.PROPERTIES:
            header = f"{index} check {prop}"
            assert (header in entries) == (complex_text is not None)
            if complex_text is not None:
                check = {"property": prop, "strict": False}
                assert entries[header] == report_digest.render(cli, error, "check", check,
                                                               complex_text)[0]
                errors += entries[header].startswith("error: ")
        commands.add(cmd)
    # The pool reaches both complex sources and an error text.
    assert {"check", "resolve"} <= commands and errors


def test_reports_on_a_fixed_slice_are_byte_identical():
    assert report_digest.digests(ROOT, 0, sizes=PINNED_SIZES) == PINNED


def test_compare_counts_differing_renderings_by_command_and_key(tmp_path, capsys):
    old = ('## w 0 observable\n{\n  "observable": true,\n  "parity_check": [["1"]]\n}\n'
           '## w 0 check pd\n{\n  "result": false,\n  "witness_column": ["1"]\n}\n'
           '## w 1 observable\nerror: p must be prime\n'
           '## v 0 resolve\n{"result": true}\n')
    new = old.replace('[["1"]]', '[["D1"]]').replace('["1"]\n', '["D1"]\n')
    new = new.replace("error: p must be prime", "error: p must be a prime")
    assert report_digest.compare(old, new) == {
        ("v", "resolve"): (1, 0, set()),
        ("w", "check pd"): (1, 1, {"witness_column"}),
        ("w", "observable"): (2, 2, {"parity_check", "error"}),
    }
    assert report_digest.compare(old, old + "## v 1 resolve\n{}\n")[("v", "resolve")] == \
        (2, 1, {"missing"})
    (tmp_path / "old.txt").write_text(old)
    (tmp_path / "new.txt").write_text(new)
    assert report_digest.main(["--compare", str(tmp_path / "old.txt"), str(tmp_path / "new.txt")]) == 1
    assert capsys.readouterr().out == (
        "v resolve: 0 of 1 renderings differ\n"
        "w check pd: 1 of 1 renderings differ, in witness_column\n"
        "w observable: 2 of 2 renderings differ, in error, parity_check\n")
    assert report_digest.main(["--compare", str(tmp_path / "old.txt"), str(tmp_path / "old.txt")]) == 0


def test_renderings_are_what_the_command_line_prints(tmp_path, capsys):
    cli, error = report_digest.import_cli(ROOT)
    path = tmp_path / "doc.json"
    for text in ('{"p": 2, "n": 1, "kind": "code", "matrix": [["0"]]}',
                 '{"p": 2, "n": 2, "kind": "code", "matrix": [["D1", "D2"]]}'):
        path.write_text(text)
        status = cli.main(["resolve", str(path)])
        printed = capsys.readouterr()
        rendered, report = report_digest.render(cli, error, "resolve", {}, text)
        assert rendered == (printed.out if status == 0 else printed.err)
        assert (report is None) == (status == 2)


def test_pool_sizes_and_option_defaults_are_those_the_benchmark_runs():
    # A separate interpreter imports bench/run.py itself, which pins
    # thread pools in its environment on import.
    code = ("import json, sys; sys.path.insert(0, 'bench'); import run; "
            "print(json.dumps([run.POOL_SIZE, run.OPTION_DEFAULTS]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True).stdout
    pools, defaults = json.loads(out)
    assert report_digest.POOL_SIZE == pools and report_digest.OPTION_DEFAULTS == defaults
    assert set(pools) == set(report_digest.workloads.WORKLOADS)
