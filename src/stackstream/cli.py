"""Command-line front end: parse pipeline spec files, plan, run, explain.

Spec files are line oriented. A pipeline starts with a memory budget and
an input, chains stages top to bottom, optionally fans out through a
tee/join block, and ends at a sink:

    source 1 GiB
    read volume_in
    gaussian sigma=1.5
    write volume_out
    sink

Branches:

    tee
    gaussian sigma=1.0
    ---
    median r=1
    join add

Exit codes: 0 planned/ran fine, 1 spec syntax error, 2 planning error or
infeasible budget, 3 runtime I/O failure.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import io as sio
from . import ops, runtime
from .core import (Budget, EngineError, PipelineGraph, PlanningError,
                   StageError, VolumeMeta, chain, dtype_by_kind, tee_graph)
from .costmodel import layout_report
from .planner import plan as make_plan

TMPDIR_ENV = "STACKSTREAM_TMPDIR"

UNIT_BYTES = {"B": 1, "KiB": 1024, "MiB": 1024**2, "GiB": 1024**3,
              "TiB": 1024**4}


class SpecSyntaxError(Exception):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"line {line} col {col}: {msg}")
        self.line = line
        self.col = col


def parse_bytes(text: str, line: int = 0, col: int = 1) -> int:
    m = re.fullmatch(r"\s*([0-9]+(?:\.[0-9]+)?)\s*(B|KiB|MiB|GiB|TiB)\s*", text)
    if not m:
        raise SpecSyntaxError(line, col,
                              f"expected '<number> <B|KiB|MiB|GiB|TiB>', got {text!r}")
    return int(float(m.group(1)) * UNIT_BYTES[m.group(2)])


def format_bytes(n: int) -> str:
    return f"{n} B"


_REQUIRED = object()


def _values(ln: int, words, syntax):
    """get(key, conv=str, default) over the values of one stage line.

    words are the (column, text) of the keyword and of each token after
    it. Every malformed, missing or unknown value is a SpecSyntaxError
    that names the line and the character column of the token at fault.
    """
    n = syntax.positional
    if len(words) <= n:
        col, last = words[-1]
        raise SpecSyntaxError(ln, col + len(last) + 1, f"{syntax.keyword} takes "
                              + " ".join(syntax.keys[:n]))
    given = dict(zip(syntax.keys, words[1:n + 1]))
    for col, tok in words[n + 1:]:
        if "=" not in tok:
            raise SpecSyntaxError(ln, col, f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key not in syntax.keys[n:]:
            raise SpecSyntaxError(ln, col, f"unknown key {key!r}")
        given[key] = (col, val)

    def get(key, conv=str, default=_REQUIRED):
        if key not in given:
            if default is _REQUIRED:
                raise SpecSyntaxError(ln, words[0][0], f"missing required key {key!r}")
            return default
        col, text = given[key]
        try:
            return conv(text)
        except ValueError as exc:
            raise SpecSyntaxError(ln, col, f"bad value for {key}: {text!r} ({exc})") from None

    return get


def parse(text: str):
    """Parse a pipeline spec; returns (PipelineGraph, Budget).

    Syntax errors carry line and column; everything about volumes,
    budgets fitting, and window validity is left to the planner.
    """
    budget_cap = None
    pre = []
    branches = None
    cur_branch = None
    join_stage = None
    post = []
    seen_sink = False
    idx = 0

    def target_list():
        if branches is not None and join_stage is None:
            return cur_branch
        if join_stage is not None:
            return post
        return pre

    def mk_name(op):
        nonlocal idx
        idx += 1
        return f"{op}{idx}"

    keywords = {syn.keyword: syn for rec in ops.OPS.values() for syn in rec.spec}
    lines = text.splitlines()
    for ln, raw in enumerate(lines, start=1):
        words = [(m.start() + 1, m.group())
                 for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if not words:
            continue
        if seen_sink:
            raise SpecSyntaxError(ln, 1, "content after sink")
        cmd, args = words[0][1], [w for _, w in words[1:]]
        if cmd == "source":
            if budget_cap is not None:
                raise SpecSyntaxError(ln, 1, "duplicate source line")
            budget_cap = parse_bytes(" ".join(args), ln)
            continue
        if budget_cap is None:
            raise SpecSyntaxError(ln, 1, "pipeline must start with 'source <bytes>'")
        if cmd == "sink":
            seen_sink = True
            continue
        if cmd == "tee":
            if branches is not None:
                raise SpecSyntaxError(ln, 1, "nested tee unsupported")
            branches = []
            cur_branch = []
            branches.append(cur_branch)
            continue
        if cmd == "---":
            if branches is None or join_stage is not None:
                raise SpecSyntaxError(ln, 1, "'---' outside tee block")
            cur_branch = []
            branches.append(cur_branch)
            continue
        if cmd == "join":
            if branches is None or join_stage is not None:
                raise SpecSyntaxError(ln, 1, "'join' without open tee block")
            if args != ["add"]:
                raise SpecSyntaxError(ln, len(cmd) + 2,
                                      f"unknown join function {args!r} (expected add)")
            join_stage = ops.add_join(name=mk_name("add"))
            continue
        if cmd not in keywords:
            raise SpecSyntaxError(ln, words[0][0], f"unknown stage {cmd!r}")
        syntax = keywords[cmd]
        target_list().append(syntax.parse(_values(ln, words, syntax), mk_name(cmd)))

    if budget_cap is None:
        raise SpecSyntaxError(1, 1, "missing 'source <bytes>' line")
    if not seen_sink:
        raise SpecSyntaxError(len(lines) or 1, 1, "missing 'sink' line")
    if branches is not None and join_stage is None:
        raise SpecSyntaxError(len(lines) or 1, 1, "tee block never joined")
    if not pre:
        raise SpecSyntaxError(1, 1, "pipeline has no input stage")

    if branches is None:
        graph = chain(*pre)
    else:
        if len(branches) != 2 or any(not b for b in branches):
            raise SpecSyntaxError(1, 1, "tee needs exactly two non-empty branches")
        tee = ops.tee(name="tee0")
        graph = tee_graph(pre + [tee], branches, join_stage, post)
    return graph, Budget(cap=budget_cap)


# ---------------------------------------------------------------------------
# pretty printing (canonical spec text)
# ---------------------------------------------------------------------------

def _stage_text(st) -> str:
    for syntax in ops.record(st).spec:
        line = syntax.show(st)
        if line is not None:
            return line
    raise PlanningError(f"stage {st.name!r} ({st.op_kind}) has no spec syntax")


def pretty_print(graph: PipelineGraph, budget: Budget) -> str:
    """Canonical spec text; parse(pretty_print(parse(s))) is a fixpoint."""
    lines = [f"source {format_bytes(budget.cap)}"]

    def after(name):
        succs = graph.successors(name)
        return succs[0] if succs else None

    name = graph.source().name
    while name is not None:
        if graph.node(name).op_kind != "tee":
            lines.append(_stage_text(graph.node(name)))
            name = after(name)
            continue
        lines.append("tee")
        join = None
        for i, cur in enumerate(graph.successors(name)):
            if i:
                lines.append("---")
            while cur is not None and graph.node(cur).op_kind != "zip_add":
                lines.append(_stage_text(graph.node(cur)))
                cur = after(cur)
            join = cur or join
        lines.append("join add")
        name = after(join) if join else None
    lines.append("sink")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load_spec(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)
    return parse(text)


def _tmpdir(args) -> str:
    if getattr(args, "tmpdir", None):
        return args.tmpdir
    return os.environ.get(TMPDIR_ENV, tempfile.gettempdir())


def _io_report(graph, seed) -> str:
    src = graph.source()
    meta = src.params["meta"]
    # a chunk store's own chunks, or cubes of edge 16 at most
    grid = sio.load_manifest(src.params["dir"])
    if grid.files is not None:
        edge = max(1, min(16, meta.nx, meta.ny, meta.depth))
        grid = sio.ChunkGrid(meta, edge, edge, edge)
    kd = (1, 1, 1)
    for stg in graph.nodes:
        dims_of = ops.record(stg).kernel_dims
        if dims_of is not None:
            kd = tuple(max(a, b) for a, b in zip(kd, dims_of(stg)))
    # halo analysis needs odd kernel edges no larger than a chunk
    kd = tuple(k if k <= c else (c if c % 2 else c - 1)
               for k, c in zip(kd, (grid.cx, grid.cy, grid.cz)))
    return layout_report(meta, grid, kd, seed=seed)


def _plan(args, tmpdir):
    """Parse the spec and plan it with the command's options, its
    mid-writes under tmpdir. The planner refuses a stage in the wrong place
    (a sink mid-chain, a chain that ends in no sink); a write into a
    directory its segment reads fails here, as the run would fail it."""
    graph, budget = _load_spec(args.spec)
    if args.epsilon is not None:
        budget = Budget(budget.cap, args.epsilon)
    p = make_plan(graph, budget, tmpdir=tmpdir, grow_windows=not args.force_exact_windows,
                  concurrent=args.threads > 1)
    runtime.check_directories(p)
    return graph, p


def cmd_plan(args) -> int:
    graph, p = _plan(args, _tmpdir(args))
    print(p.render())
    if args.io:
        print(_io_report(graph, args.seed))
    return 0 if p.verdict in ("fits", "repaired") else 2


def cmd_run(args) -> int:
    """Plan and execute in a directory of the run's own under the tmpdir,
    so that runs sharing a tmpdir never meet, and remove it after."""
    root = Path(_tmpdir(args))
    root.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="stackstream-", dir=root)
    try:
        _, p = _plan(args, work)
        if p.verdict == "infeasible":
            print(p.render())
            return 2
        report = runtime.execute_plan(p, threads=args.threads, tmpdir=work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(p.render())
    print(report.render())
    if report.leaked_slices:
        print("error: slice leak detected", file=sys.stderr)
        return 3
    return 0


def cmd_explain(args) -> int:
    graph, _ = _load_spec(args.spec)
    if not args.io:
        print("nothing to explain (use --io)", file=sys.stderr)
        return 1
    ops.check_roles(graph)  # the table reads the geometry off the read source
    print(_io_report(graph, args.seed))
    return 0


def _triple(flag: str, text: str):
    """Three comma-separated integers, or None once the error is printed."""
    try:
        return ops._numbers(3)(text)
    except ValueError as exc:
        print(f"error: {flag} {text!r}: {exc}", file=sys.stderr)
        return None


def cmd_gen(args) -> int:
    dims = _triple("--dims", args.dims)
    chunks = _triple("--chunks", args.chunks) if args.chunks else ()
    if dims is None or chunks is None:
        return 1
    meta = VolumeMeta(dims[0], dims[1], dims[2], dtype_by_kind(args.dtype))
    # an integer voxel rounds, as every cast in the engine does
    value = args.value if meta.dtype.kind == "f32" else np.rint(args.value)
    if not meta.dtype.holds(value):
        print(f"error: --value {args.value:g}: not a {args.dtype} voxel", file=sys.stderr)
        return 1
    # slice by slice, from one rng drawn in z order as synth_volume draws it,
    # so a volume larger than memory can be made
    rng = np.random.default_rng(args.seed)
    sio.write_planes(args.out, (sio.synth_slice_array(meta, z, args.kind, value, rng)
                                for z in range(meta.depth)), meta, chunks or None)
    print(f"wrote {meta} ({args.kind}) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stackstream",
                                 description="memory-budgeted slice streaming")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="pipeline spec file")
        p.add_argument("--threads", type=int, default=1,
                       help="1 = reference in-order mode, >1 = pipelined stages")
        p.add_argument("--tmpdir", default=None,
                       help=f"scratch dir for mid-writes and spills (or ${TMPDIR_ENV})")
        p.add_argument("--epsilon", type=int, default=None,
                       help="per-stage overhead allowance in bytes")
        p.add_argument("--force-exact-windows", action="store_true",
                       help="keep declared window sizes (debugging)")

    pp = sub.add_parser("plan", help="estimate memory and print the ledger")
    common(pp)
    pp.add_argument("--io", action="store_true", help="append the I/O cost table")
    pp.add_argument("--seed", type=int, default=0)
    pp.set_defaults(fn=cmd_plan)

    pr = sub.add_parser("run", help="plan, execute and report")
    common(pr)
    pr.set_defaults(fn=cmd_run)

    pe = sub.add_parser("explain", help="I/O layout cost table")
    pe.add_argument("spec")
    pe.add_argument("--io", action="store_true")
    pe.add_argument("--seed", type=int, default=0)
    pe.set_defaults(fn=cmd_explain)

    pg = sub.add_parser("gen", help="generate a synthetic test volume")
    pg.add_argument("--kind", choices=sio.GEN_KINDS, default="random")
    pg.add_argument("--dims", required=True, help="nx,ny,nz")
    pg.add_argument("--dtype", choices=("u8", "u16", "f32"), default="u8")
    pg.add_argument("--value", type=float, default=0)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--chunks", default=None, help="cx,cy,cz for a chunk store")
    pg.add_argument("--out", required=True)
    pg.set_defaults(fn=cmd_gen)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except SpecSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PlanningError as exc:
        print(f"planning error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"runtime I/O failure: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
