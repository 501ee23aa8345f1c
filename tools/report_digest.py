"""One sha256 per benchmark workload over every report a source tree renders.

    python tools/report_digest.py SRC [--seed S] [--out FILE]

SRC is a checkout whose ``src/convres`` is imported; the documents come
from ``bench/workloads.py`` next to this tool, at the pool sizes that
``bench/run.py`` sets, so two checkouts digest the same pools.  For each
workload every op of the seed's pool is run the way the command line
runs it, and its rendered report (or the ``error: ...`` text the command
line prints) is hashed.  Every complex document met on the way, a
``check`` document of the pool or the ``complex_document`` of a
``resolve`` report, is also checked for each of ``pd``, ``reduced``,
``minimal`` and ``resolution``.  Equal digests on two trees mean
byte-identical reports.  ``--out`` writes the hashed text, one headed
entry per rendering, so two trees can be diffed.

    python tools/report_digest.py --compare OLD NEW

reads two ``--out`` texts and prints, for each workload and command, how
many renderings differ and in which top-level report keys (``error``
where either side is an error text).  The exit status is 1 when any
rendering differs.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

PROPERTIES = ("pd", "reduced", "minimal", "resolution")


def bench_constants(*names: str) -> tuple:
    """The literal values that ``bench/run.py`` assigns to ``names``, read
    from its source without importing it."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    values = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name) and node.targets[0].id in names}
    return tuple(values[name] for name in names)


# The pool sizes the benchmark runs, and the options an op may leave out.
POOL_SIZE, OPTION_DEFAULTS = bench_constants("POOL_SIZE", "OPTION_DEFAULTS")


def import_cli(src: Path):
    """``convres.cli`` imported from ``src / "src"``, and the error base class."""
    sys.path.insert(0, str(src / "src"))
    import convres.cli
    import convres.errors
    where = Path(convres.__file__).resolve().parent
    if where != (src / "src" / "convres").resolve():
        raise ImportError(f"convres loaded from {where}, not from {src}")
    return convres.cli, convres.errors.ConvresError


def render(cli, error, cmd: str, options: dict, text: str):
    """The rendered report of one op and the report itself, or the error text and None."""
    try:
        doc = cli.parse_input(text)
        report, _ = cli.run_command(cmd, doc, SimpleNamespace(**{**OPTION_DEFAULTS, **options}))
    except error as exc:
        return f"error: {exc}\n", None
    return cli._render(report), report


def entries(cli, error, workload: str, seed: int, count: int):
    """(header, rendered text) for every rendering of one workload's pool."""
    for index, (cmd, options, text) in enumerate(workloads.generate(workload, seed, count)):
        rendered, report = render(cli, error, cmd, options, text)
        yield f"{index} {cmd}", rendered
        if cmd == "check":
            complex_text = text
        elif report is not None and "complex_document" in report:
            complex_text = json.dumps(report["complex_document"], sort_keys=True)
        else:
            continue
        for prop in PROPERTIES:
            check = {"property": prop, "strict": False}
            yield f"{index} check {prop}", render(cli, error, "check", check, complex_text)[0]


def digests(src: Path, seed: int, out=None, sizes=POOL_SIZE) -> dict:
    """{workload: sha256 hex} over the renderings of each pool; each one is
    also written to ``out`` (a text file) under a header line."""
    cli, error = import_cli(src)
    result = {}
    for workload in workloads.WORKLOADS:
        sha = hashlib.sha256()
        for header, rendered in entries(cli, error, workload, seed, sizes[workload]):
            chunk = f"## {workload} {header}\n{rendered}"
            sha.update(chunk.encode())
            if out is not None:
                out.write(chunk)
        result[workload] = sha.hexdigest()
    return result


def read_out(text: str) -> dict:
    """{workload: {header: rendered text}} of a text written by ``--out``."""
    out: dict = {}
    body = None
    for line in text.splitlines(keepends=True):
        if line.startswith("## "):
            workload, header = line[3:].rstrip("\n").split(" ", 1)
            body = out.setdefault(workload, {})[header] = []
        else:
            body.append(line)
    return {w: {h: "".join(lines) for h, lines in entries.items()} for w, entries in out.items()}


def changed_keys(old: str, new: str) -> set:
    """The top-level report keys in which two renderings differ; ``error``
    when either is an error text."""
    if old.startswith("error: ") or new.startswith("error: "):
        return {"error"}
    a, b = json.loads(old), json.loads(new)
    return {key for key in a.keys() | b.keys() if a.get(key) != b.get(key)}


def compare(old: str, new: str) -> dict:
    """{(workload, command): (renderings, differing, keys)} over two ``--out``
    texts; the command is the header without its op index, and a rendering
    that only one side has differs in the key ``missing``."""
    a, b = read_out(old), read_out(new)
    result: dict = {}
    for workload in a.keys() | b.keys():
        x, y = a.get(workload, {}), b.get(workload, {})
        for header in x.keys() | y.keys():
            group = (workload, header.split(" ", 1)[1])
            total, differing, keys = result.get(group, (0, 0, set()))
            if header not in x or header not in y:
                diff = {"missing"}
            else:
                diff = changed_keys(x[header], y[header]) if x[header] != y[header] else set()
            result[group] = (total + 1, differing + bool(diff), keys | diff)
    return dict(sorted(result.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, nargs="?", help="checkout holding src/convres")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None, help="also write the hashed text")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --out texts instead of rendering")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (path.read_text(encoding="utf-8") for path in args.compare)
        groups = compare(old, new)
        for (workload, command), (total, differing, keys) in groups.items():
            where = f", in {', '.join(sorted(keys))}" if keys else ""
            print(f"{workload} {command}: {differing} of {total} renderings differ{where}")
        return int(any(differing for _, differing, _ in groups.values()))
    if args.src is None:
        parser.error("a checkout or --compare is required")
    if args.out is None:
        result = digests(args.src, args.seed)
    else:
        with open(args.out, "w", encoding="utf-8") as out:
            result = digests(args.src, args.seed, out)
    for workload, sha in result.items():
        print(f"{sha}  {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
