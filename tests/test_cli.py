import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from convres import Poly, cli, complexes, groebner, observability, oracle
from convres.algebra import is_prime
from convres.cli import MAX_D, MAX_N, main, parse_input
from convres.errors import InputError

KOSZUL_CODE = '{"p": 2, "n": 2, "kind": "code", "matrix": [["D1", "D2"]]}'
KOSZUL_COMPLEX = ('{"p": 2, "n": 2, "kind": "complex", '
                  '"matrices": [[["D1", "D2"]], [["D2"], ["D1"]]]}')
BAD_F2 = ('{"p": 2, "n": 1, "kind": "complex", '
          '"matrices": [[["D1+1", "D1"], ["D1", "D1"]]]}')
# A small-mix benchmark code (seed 304): its degree-0 codeword is spanned
# only by shifts of degree 11 and up.
LATE_CODEWORD = ('{"p": 3, "n": 2, "kind": "code", "matrix": [["2*D2^2 + 2*D1 + 2*D2", '
                 '"2*D1^2 + 2*D2^2 + D2", "2*D2"], ["2*D1*D2 + 2*D2^2", "2", "2*D2^2"]]}')
# A reduced resolution whose second leading matrix keeps the scalar 1.
NOT_MINIMAL = ('{"p": 101, "n": 2, "kind": "complex", "matrices": '
               '[[["D1", "D2", "D1"]], [["D2", "1"], ["-D1", "0"], ["0", "-1"]]]}')


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_input_code():
    doc = parse_input(KOSZUL_CODE)
    assert doc.kind == "code" and doc.p == 2 and doc.n == 2
    assert doc.code.q == 1 and doc.code.generators.ncols == 2


def test_parse_input_rejections():
    with pytest.raises(InputError, match="prime"):
        parse_input('{"p": 4, "n": 1, "kind": "code", "matrix": [["D1"]]}')
    with pytest.raises(InputError, match="zero column"):
        parse_input('{"p": 2, "n": 1, "kind": "code", "matrix": [["D1", "0"]]}')
    with pytest.raises(InputError, match="variable"):
        parse_input('{"p": 2, "n": 1, "kind": "code", "matrix": [["D7"]]}')
    with pytest.raises(InputError, match="JSON"):
        parse_input("{nope")
    with pytest.raises(InputError, match="complex"):
        parse_input('{"p": 2, "n": 1, "kind": "complex", '
                    '"matrices": [[["D1"]], [["D1"]]]}')
    with pytest.raises(InputError, match="kind"):
        parse_input('{"p": 2, "n": 1, "kind": "thing", "matrix": [["D1"]]}')
    with pytest.raises(InputError, match="row 1"):
        parse_input('{"p": 2, "n": 2, "kind": "code", '
                    '"matrix": [["D1", "D2"], ["D1"]]}')


def test_resolve_report(tmp_path, capsys):
    path = write(tmp_path, "koszul.json", KOSZUL_CODE)
    assert main(["resolve", path, "--hilbert-max", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sizes"] == {"q": 1, "p": [2, 1]}
    assert report["forney_table"] == [[1, 1], [2]]
    assert report["memory"] == 1 and report["l"] == 2
    assert report["rate"] == {"tuple": [1, 2], "q": 1}
    assert report["hilbert"] == [0, 2, 5, 9, 14]
    assert all(report["checks"].values())


def test_resolve_round_trips_through_check(tmp_path, capsys):
    path = write(tmp_path, "koszul.json", KOSZUL_CODE)
    main(["resolve", path])
    report = json.loads(capsys.readouterr().out)
    complex_doc = json.dumps(report["complex_document"])
    path2 = write(tmp_path, "resolved.json", complex_doc)
    for prop in ("pd", "reduced", "minimal", "resolution"):
        assert main(["check", prop, path2]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"] is True


def test_check_resolution_accepts_an_exact_complex_that_is_not_reduced(tmp_path, capsys):
    # G_1 = [[D1+1, D1], [D1, D1]] has determinant D1, so it is injective,
    # but its leading part [[D1, D1], [D1, D1]] is not.
    path = write(tmp_path, "bad.json", BAD_F2)
    assert main(["check", "resolution", path, "--strict"]) == 0
    assert json.loads(capsys.readouterr().out)["resolution"] is True
    assert main(["check", "reduced", path]) == 0
    assert json.loads(capsys.readouterr().out)["reduced"] is False


@pytest.mark.parametrize("prop, text, key", [("pd", BAD_F2, "witness_column"),
                                             ("reduced", BAD_F2, "reduced"),
                                             ("minimal", NOT_MINIMAL, "scalar_entry")],
                         ids=["pd", "reduced", "minimal"])
def test_failing_check_packs_the_complex_once(tmp_path, capsys, monkeypatch, prop, text, key):
    # One packed leading part over S serves the verdict and the witness:
    # every column is packed once and none is lifted into T.  The verdict
    # is one Schreyer pass over G^L, which takes the syzygies of every
    # level (neither complex fails before its last level), and the
    # witness of a failing ``check pd`` is level 1 of that same pass.
    calls = {"_to_flat": 0, "_lift_flat": 0, "_schreyer": 0}
    for name in calls:
        owner = groebner if name == "_schreyer" else complexes
        def counted(*args, name=name, original=getattr(owner, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, counted)
    path = write(tmp_path, "doc.json", text)
    assert main(["check", prop, path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"] is False and key in out
    sizes = parse_input(text).complex.sizes
    assert calls == {"_to_flat": sum(sizes), "_lift_flat": 0, "_schreyer": len(sizes)}
    assert not hasattr(Poly, "homogenize")


def test_failing_check_pd_completes_level_one_once(tmp_path, capsys, monkeypatch):
    # The verdict and the witness come from one tracked completion of G_1^L.
    made = []

    class Counted(groebner._Completion):
        def __init__(self, order):
            made.append(order)
            super().__init__(order)

    monkeypatch.setattr(groebner, "_Completion", Counted)
    path = write(tmp_path, "bad.json", BAD_F2)
    assert main(["check", "pd", path]) == 0
    assert json.loads(capsys.readouterr().out)["witness_column"] == ["1", "1"]
    assert len(made) == 1


def test_check_pd_failure_reports_witness(tmp_path, capsys):
    path = write(tmp_path, "bad.json", BAD_F2)
    assert main(["check", "pd", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pd"] is False
    assert out["witness_column"] == ["1", "1"]
    assert main(["check", "pd", path, "--strict"]) == 1
    capsys.readouterr()


def test_hilbert_command(tmp_path, capsys):
    path = write(tmp_path, "koszul.json", KOSZUL_CODE)
    assert main(["hilbert", path, "--max-d", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [0, 2, 5, 9, 14]
    assert main(["hilbert", path, "--max-d", "4", "--oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [0, 2, 5, 9, 14]


def test_observable_command(tmp_path, capsys):
    path = write(tmp_path, "koszul.json", KOSZUL_CODE)
    assert main(["observable", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["observable"] is False and out["witness"]["element"] == ["1"]
    assert main(["observable", path, "--strict"]) == 1
    capsys.readouterr()

    free = write(tmp_path, "free.json",
                 '{"p": 2, "n": 2, "kind": "code", "matrix": [["D1"], ["D2"]]}')
    assert main(["observable", free, "--strict"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["observable"] is True and out["parity_check"]


def test_observable_prop3_bound(tmp_path, capsys):
    uni = write(tmp_path, "uni.json",
                '{"p": 2, "n": 1, "kind": "code", "matrix": [["D1"], ["1"]]}')
    assert main(["observable", uni, "--prop3-bound", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["observable"] is True and out["prop3"] is True
    # unsupported for n >= 2
    path = write(tmp_path, "koszul.json", KOSZUL_CODE)
    assert main(["observable", path, "--prop3-bound", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bound, message", [("6", "candidate polynomials"),
                                             ("-3", "at least 1")])
def test_observable_rejects_a_prop3_bound_before_sieving(tmp_path, capsys, bound, message):
    path = write(tmp_path, "uni.json",
                 '{"p": 101, "n": 1, "kind": "code", "matrix": [["D1"], ["1"]]}')
    start = time.monotonic()
    assert main(["observable", path, "--prop3-bound", bound]) == 2
    elapsed = time.monotonic() - start
    out, err = capsys.readouterr()
    assert out == "" and message in err
    assert elapsed < 5.0, f"took {elapsed:.1f} s"


@pytest.mark.parametrize("n, p, bound, message", [
    (2, 2, "1", "n = 1 only"), (1, 2, "50", "candidate polynomials"), (1, 2, "0", "at least 1")],
    ids=["n = 2", "bound 50 over F_2", "bound 0"])
def test_a_refused_prop3_bound_does_no_work(tmp_path, capsys, monkeypatch, n, p, bound, message):
    calls, checked = [], []
    for name in ("is_observable", "minimal_resolution"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    real = observability.check_prop3_bound
    monkeypatch.setattr(cli, "check_prop3_bound",
                        lambda *args: checked.append(args) or real(*args))
    path = write(tmp_path, "code.json",
                 json.dumps({"p": p, "n": n, "kind": "code", "matrix": [["D1"], ["1"]]}))
    assert main(["observable", path, "--prop3-bound", bound]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err
    assert calls == [] and checked == [(p, n, int(bound))]


def test_resolve_tests_a_prime_once_per_process(tmp_path, capsys):
    path = write(tmp_path, "code.json",
                 '{"p": 2147483647, "n": 2, "kind": "code", "matrix": [["D1", "D2"]]}')
    is_prime.cache_clear()
    for _ in range(3):
        assert main(["resolve", path]) == 0
    capsys.readouterr()
    info = is_prime.cache_info()
    assert info.misses == 1 and info.hits >= 6, info


def test_oracle_verify_command(tmp_path, capsys):
    code_path = write(tmp_path, "koszul.json", KOSZUL_CODE)
    assert main(["oracle-verify", code_path, "--max-d", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["all"] is True
    cx_path = write(tmp_path, "cx.json", KOSZUL_COMPLEX)
    assert main(["oracle-verify", cx_path, "--max-d", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["truncated_exactness"] == [True] * 4 and out["agreement"] is True


def test_oracle_reaches_a_codeword_that_needs_a_high_cap(tmp_path, capsys):
    path = write(tmp_path, "late.json", LATE_CODEWORD)
    assert main(["hilbert", path, "--max-d", "3", "--oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [1, 5, 11, 19]
    assert main(["oracle-verify", path, "--max-d", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hilbert_agreement"] == [True] * 4 and out["all"] is True


@pytest.mark.parametrize("argv, kind", [
    (["oracle-verify", "--max-d", "-1"], "code"),
    (["oracle-verify", "--max-d", "-1"], "complex"),
    (["hilbert", "--max-d", "-3", "--oracle"], "code"),
    (["hilbert", "--max-d", "-1"], "code"),
    (["resolve", "--hilbert-max", "-1"], "code"),
])
def test_a_negative_degree_bound_is_an_input_error(tmp_path, capsys, argv, kind):
    path = write(tmp_path, "doc.json", KOSZUL_CODE if kind == "code" else KOSZUL_COMPLEX)
    assert main(argv[:1] + [path] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be non-negative" in err


@pytest.mark.parametrize("argv, kind", [
    (["oracle-verify", "--max-d", str(MAX_D + 1)], "code"),
    (["oracle-verify", "--max-d", str(MAX_D + 1)], "complex"),
    (["hilbert", "--max-d", "30000000", "--oracle"], "code"),
    (["hilbert", "--max-d", str(MAX_D + 1)], "code"),
    (["resolve", "--hilbert-max", "30000000"], "code"),
])
def test_a_degree_bound_above_max_d_is_an_input_error(tmp_path, capsys, argv, kind):
    path = write(tmp_path, "doc.json", KOSZUL_CODE if kind == "code" else KOSZUL_COMPLEX)
    assert main(argv[:1] + [path] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"must be at most {MAX_D}" in err


def test_max_d_itself_is_accepted(tmp_path, capsys):
    path = write(tmp_path, "koszul.json", KOSZUL_CODE)
    assert main(["resolve", path, "--hilbert-max", str(MAX_D)]) == 0
    values = json.loads(capsys.readouterr().out)["hilbert"]
    assert len(values) == MAX_D + 1 and values[:4] == [0, 2, 5, 9]


def test_n_above_max_n_is_rejected_before_any_ring_is_built(monkeypatch):
    def no_ring(*args, **kwargs):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(cli, "Ring", no_ring)
    with pytest.raises(InputError, match=f"from 1 to {MAX_N}") as info:
        parse_input(f'{{"p": 2, "n": {MAX_N + 1}, "kind": "code", "matrix": [["D1"]]}}')
    assert info.value.location == "n"


def test_a_huge_n_exits_2_at_once(tmp_path):
    path = write(tmp_path, "wide.json", '{"p": 2, "n": 1000000, "kind": "code", '
                                        '"matrix": [["D1"]]}')
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "convres.cli", "resolve", path],
                          capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"from 1 to {MAX_N}" in proc.stderr and "[at n]" in proc.stderr


LONG = "1" * 5000  # more digits than int() converts


def _code_text(p=2, n=2, entry="D1"):
    return json.dumps({"p": p, "n": n, "kind": "code", "matrix": [[entry]]})


@pytest.mark.parametrize("text, message", [
    (_code_text(p=1_000_000_000_000_000_003), "p must be prime (and below 2^31) [at p]"),
    (_code_text(p=True), "p must be prime (and below 2^31) [at p]"),
    (_code_text(n=True), f"n must be an integer from 1 to {MAX_N} [at n]"),
    (_code_text(entry=LONG), "number with 5000 digits is too long (column 0)"),
    (_code_text(entry=f"D1^{LONG}"), "number with 5000 digits is too long (column 3)"),
    (_code_text(entry=f"D2 + D{LONG}"), "number with 5000 digits is too long (column 5)"),
    (_code_text(entry="2\u00b2"), "unexpected character '\u00b2' (column 1)"),
    (_code_text(entry="D\u00b2"), "variable name needs an index (column 0)"),
], ids=["huge odd p", "p true", "n true", "long coefficient", "long exponent",
        "long variable index", "superscript digit", "superscript index"])
def test_bad_numbers_exit_2_at_once(tmp_path, text, message):
    path = write(tmp_path, "bad.json", text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "convres.cli", "resolve", path],
                          capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_max_n_itself_is_accepted(tmp_path, capsys):
    path = write(tmp_path, "wide.json", f'{{"p": 2, "n": {MAX_N}, "kind": "code", '
                                        f'"matrix": [["D1"]]}}')
    assert main(["resolve", path]) == 0
    assert json.loads(capsys.readouterr().out)["forney_table"] == [[1]]


def test_kind_mismatch_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "koszul.json", KOSZUL_CODE)
    assert main(["check", "pd", path]) == 2
    capsys.readouterr()
    cx_path = write(tmp_path, "cx.json", KOSZUL_COMPLEX)
    assert main(["resolve", cx_path]) == 2
    capsys.readouterr()


def test_missing_file_is_an_input_error(tmp_path, capsys):
    assert main(["resolve", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_reports_are_deterministic(tmp_path, capsys):
    path = write(tmp_path, "koszul.json", KOSZUL_CODE)
    main(["resolve", path, "--hilbert-max", "3"])
    first = capsys.readouterr().out
    main(["resolve", path, "--hilbert-max", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_out_writes_the_report_verbatim(tmp_path, capsys):
    path = write(tmp_path, "koszul.json", KOSZUL_CODE)
    target = tmp_path / "report.json"
    main(["resolve", path, "--out", str(target)])
    printed = capsys.readouterr().out
    assert target.read_text() == printed


def test_unwritable_out_is_an_error_without_a_report(tmp_path, capsys):
    path = write(tmp_path, "koszul.json", KOSZUL_CODE)
    assert main(["resolve", path, "--out", str(tmp_path / "missing" / "report.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_non_utf8_input_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + KOSZUL_CODE.encode("utf-16-le"))
    assert main(["resolve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: not UTF-8 text")


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "deep.json", "[" * 100_000)
    assert main(["resolve", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: JSON nested too deeply")
    with pytest.raises(InputError, match="nested too deeply"):
        parse_input("[" * 100_000)


def test_parse_rejects_a_term_degree_beyond_the_engine_limit():
    top = '{"p": 2, "n": 2, "kind": "code", "matrix": [["D1^1073741823 + 1"]]}'
    assert parse_input(top).code.generators.entry(0, 0).degree == 2**30 - 1
    over = ('{"p": 2, "n": 2, "kind": "complex", "matrices": '
            '[[["D1", "D1^536870912*D2^536870912"]]]}')
    with pytest.raises(InputError, match=r"exceeds .*limit.*matrices\[0\]\[0\]\[1\]"):
        parse_input(over)


def test_resolve_rejects_an_exponent_beyond_the_engine_limit(tmp_path, capsys):
    path = write(tmp_path, "huge.json",
                 '{"p": 2, "n": 2, "kind": "code", "matrix": [["D1^2147483648"]]}')
    assert main(["resolve", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "exceeds" in err


def test_hilbert_needs_no_syzygy_beyond_the_engine_limit(tmp_path, capsys):
    # The completion over S reaches weight 800,000,000; the last Koszul
    # syzygy of the resolution would weigh 1,200,000,000.
    path = write(tmp_path, "koszul.json", '{"p": 101, "n": 3, "kind": "code", "matrix": '
                 '[["D1^400000000", "D2^400000000", "D3^400000000"]]}')
    assert main(["hilbert", path, "--max-d", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [0, 0, 0, 0]
    assert main(["resolve", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: term weight 1200000000 exceeds the supported 1073741823\n"


# Every entry is within the parse limit, but the twisted degree of the
# second matrix's column is 1,200,000,000.
HEAVY_COMPLEX = ('{"p": 2, "n": 2, "kind": "complex", "matrices": '
                 '[[["D1^600000000", "D2^600000000"]], '
                 '[["D2^600000000"], ["D1^600000000"]]]}')


@pytest.mark.parametrize("prop", ["pd", "reduced", "minimal", "resolution"])
def test_check_rejects_a_twisted_weight_beyond_the_engine_limit(tmp_path, capsys, prop):
    path = write(tmp_path, "heavy.json", HEAVY_COMPLEX)
    assert main(["check", prop, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: term weight 1200000000 exceeds the supported 1073741823\n"


def test_oracle_verify_rejects_a_complex_beyond_the_oracle_limit(tmp_path, capsys):
    path = write(tmp_path, "heavy.json", HEAVY_COMPLEX)
    assert main(["oracle-verify", path, "--max-d", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert err.endswith(" above its limit of 16777216 entries\n")


@pytest.mark.parametrize("argv, kind, size", [
    (["oracle-verify", "--max-d", "10000"], "code", "100030002 x 50025003"),
    (["hilbert", "--max-d", "10000", "--oracle"], "code", "100030002 x 50025003"),
    (["oracle-verify", "--max-d", "10000"], "complex", "1 x 50015001"),
])
def test_an_oversized_oracle_request_fails_before_any_block(tmp_path, capsys, monkeypatch,
                                                            argv, kind, size):
    # The largest degree is asked first, so it is refused before the
    # echelon grows: the Koszul code at cap 10001 has 2 * C(10002, 2)
    # shifts, and the degree-<= 10000 slice of S has C(10002, 2) terms.
    def no_block(echelon, c, keyed):
        raise AssertionError(f"block {c} was built")

    monkeypatch.setattr(oracle._CodeEchelon, "_add_block", no_block)
    path = write(tmp_path, "doc.json", KOSZUL_CODE if kind == "code" else KOSZUL_COMPLEX)
    assert main(argv[:1] + [path] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: the oracle would need a {size} matrix, "
                                 "above its limit of 16777216 entries\n")
