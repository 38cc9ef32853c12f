"""Command-line experiment harness.

Every run is reproducible byte for byte: all parameters are exact
rationals (floats are refused), every sampler is seeded, and outputs are
emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import chain

import numpy as np

from . import back_forth, decomposition, random_graphs, step_isometry
from .errors import (
    BadFile, BadGraph, OutOfDomain, RadoLabError, TooManyVertices, UnknownBuiltin,
    UnknownSubcommand,
)
from .geometry import (
    BUILTIN_BALLS,
    PolytopeBall,
    ball_from_json,
    ball_to_json,
    cube_ball,
    parse_rational,
    table_to_json,
    vec_from_json,
    vec_to_json,
)


@dataclass(frozen=True)
class ExperimentConfig:
    subcommand: str
    options: dict


def _json(data: bytes):
    return json.loads(data.decode("utf-8"))


def _load(path: str, parse, read=_json):
    """`parse` applied to `read` of the bytes of the file at `path` (its JSON document).

    A file that cannot be opened, is not JSON, or lacks a field or has one
    of the wrong shape raises `BadFile`; errors the parse raises itself,
    such as `BadRational`, pass through as they are.
    """
    try:
        with open(path, "rb") as fh:
            return parse(read(fh.read()))
    except RadoLabError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BadFile(f"{path}: {type(exc).__name__}: {exc}") from exc


def resolve_ball(source: str) -> PolytopeBall:
    """A ball from 'builtin:<name>' or a JSON file path."""
    if source.startswith("builtin:"):
        name = source[len("builtin:"):]
        maker = BUILTIN_BALLS.get(name)
        if maker is None:
            raise UnknownBuiltin(f"no builtin ball named {name!r}")
        return maker()
    return _load(source, ball_from_json)


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Exact parse of a CLI invocation into a config; diagnostics name the field."""
    if argv and argv[0] not in SUBCOMMANDS and not argv[0].startswith("-"):
        raise UnknownSubcommand(f"unknown subcommand {argv[0]!r}")
    top = argparse.ArgumentParser(prog="rado-lab", add_help=True)
    sub = top.add_subparsers(dest="subcommand")
    for name, (_, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    try:
        ns = top.parse_args(argv)
    except SystemExit as exc:  # argparse reports the offending field itself
        if exc.code not in (0, None):
            raise RadoLabError("argument parsing failed") from None
        raise
    if ns.subcommand is None:
        raise UnknownSubcommand("no subcommand given")
    options = {k: v for k, v in vars(ns).items() if k != "subcommand"}
    # Checked after parsing: argparse turns a ValueError (OutOfDomain is one)
    # raised by a type function into its own usage error.  random.Random(-s)
    # would silently replay seed s.
    if options.get("seed", 0) < 0:
        raise OutOfDomain(f"--seed must be nonnegative, got {options['seed']}")
    return ExperimentConfig(subcommand=ns.subcommand, options=options)


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """`text`, or each of its pieces in turn, to stdout, or to the file `out`;
    one that cannot be written raises `BadFile`."""
    pieces = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise BadFile(f"{out}: {type(exc).__name__}: {exc}") from exc


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _run_decompose(opts: dict) -> int:
    ball = resolve_ball(opts["ball"])
    dec = decomposition.linf_decomposition(ball)
    try:
        order = len(decomposition.linear_isometry_group(ball))
    except TooManyVertices:
        order = None
    payload = {
        "d_inf": dec.d_inf,
        "linf_directions": [vec_to_json(d.x) for d in dec.linf_basis],
        "u_basis": [vec_to_json(b) for b in dec.u_basis],
        "isometry_group_order": order,
    }
    _emit(_json_text(payload), opts.get("out"))
    return 0


def _run_check_step_isometry(opts: dict) -> int:
    ball = resolve_ball(opts["ball"])
    pairs = _load(
        opts["map"], lambda obj: [(vec_from_json(a), vec_from_json(b)) for a, b in obj["pairs"]]
    )
    check = step_isometry.verify_step_isometry(ball, pairs)
    if check.ok:
        sys.stdout.write("ok\n")
        return 0
    i, j = check.pair_indices
    sys.stdout.write(
        "violation: pair (%s, %s) -> (%s, %s): floors %d vs %d\n"
        % (
            vec_to_json(pairs[i][0]), vec_to_json(pairs[j][0]),
            vec_to_json(pairs[i][1]), vec_to_json(pairs[j][1]),
            check.floor_domain, check.floor_image,
        )
    )
    return 1


def _graph_fields(g: random_graphs.GeomGraph) -> dict:
    """Every graph-file field except `edges`."""
    return {
        "ball": ball_to_json(g.sample.ball),
        "window": str(g.sample.window),
        "seed": g.sample.seed,
        "typicality": list(g.sample.typicality),
        "points": table_to_json(g.sample.nums, g.sample.den),
        "p": str(g.p),
        "rng_seed": g.rng_seed,
    }


def graph_to_json(g: random_graphs.GeomGraph) -> dict:
    """The graph file as a JSON object: what `graph_from_json` reads back."""
    return {**_graph_fields(g), "edges": g.edges.tolist()}


_EDGES_OPEN, _EDGES_CLOSE = b'\n "edges": [\n', b"\n ]"
_EDGE_ROW = b"  [\n   %b,\n   %b\n  ],\n"  # a row and its separator, as `_json_text` indents them
_ROW_PIECES = _EDGE_ROW.split(b"%b")  # the fixed text before, between and after the indices
_ROW_SKELETON, _ROW_SEAM = b"".join(_ROW_PIECES), b"\n  ],\n"  # a seam ends all rows but the last
# Index slots i and j run from _SLOT_STARTS past the comma before them (the last
# row's second, or 2 bytes before the chunk, for i; the row's first, for j) to
# _SLOT_ENDS before the comma after them.
_SLOT_STARTS = np.array([len(b",\n" + _ROW_PIECES[0]), len(_ROW_PIECES[1])])
_SLOT_ENDS = np.array([0, _ROW_PIECES[2].index(b",")])
_EDGE_ROWS = 1 << 14  # edges written per chunk
_READ_BYTES = 1 << 18  # bytes of the edges block read per chunk, up to the next row seam
# Built from Python lists: the code pages of a numpy loop first run at import
# would count towards every process's peak resident set.
_DIGIT = np.array([int(chr(b)) if chr(b) in "0123456789" else 10 for b in range(256)])
_REPUNIT = np.array([(10 ** k - 1) // 9 for k in range(19)])  # k ones at [k]


def graph_chunks(g: random_graphs.GeomGraph) -> Iterator[str]:
    """The graph file, byte for byte `_json_text(graph_to_json(g))`, in pieces: the
    text up to the edge rows, the rows `_EDGE_ROWS` edges at a time, then the rest.
    A chunk is one record per edge in numpy: `_EDGE_ROW`'s fixed pieces around two
    index fields taken from one table per file, the text of every index up to the
    largest, right-aligned and NUL-padded to its width; the NULs are then squeezed
    out.  An index not below the point count raises `BadGraph` before any piece,
    so the table has at most one entry per point.
    """
    top, n = int(g.edges.max(initial=-1)), len(g.sample.nums)
    if top >= n:
        raise BadGraph(f"edge index {top} is not below the {n} points")
    text = _json_text({**_graph_fields(g), "edges": []})
    if not len(g.edges):
        yield text
        return
    head, tail = text.split('\n "edges": []', 1)  # a one-space indent is top level
    yield head + _EDGES_OPEN.decode()
    width = len(str(top))
    entries = b"".join(str(v).encode().rjust(width, b"\0") for v in range(top + 1))
    table = np.frombuffer(entries, dtype=f"V{width}")
    lengths = [f"V{len(piece)}" for piece in _ROW_PIECES]
    row = np.dtype([("open", lengths[0]), ("i", f"V{width}"), ("mid", lengths[1]),
                    ("j", f"V{width}"), ("close", lengths[2])])
    template = np.frombuffer(_EDGE_ROW % ((bytes(width),) * 2), dtype=row)
    block = np.repeat(template, min(len(g.edges), _EDGE_ROWS))
    for at in range(0, len(g.edges), _EDGE_ROWS):
        chunk = g.edges[at : at + _EDGE_ROWS]
        rows = block[: len(chunk)]
        rows["i"], rows["j"] = table.take(chunk[:, 0]), table.take(chunk[:, 1])
        flat = rows.view(np.uint8)
        text = flat[flat != 0].tobytes().decode()
        yield text if at + _EDGE_ROWS < len(g.edges) else text[: -len(",\n")]
    yield _EDGES_CLOSE.decode() + tail


def _edge_block(data: bytes, start: int, stop: int) -> np.ndarray | None:
    """The (E, 2) int64 array of the edges block `data[start:stop]` in
    `graph_chunks`' layout, else None; E is the block's `[` count.

    The block is read about `_READ_BYTES` at a time, each chunk cut just after
    a `_ROW_SEAM`, into one preallocated array.  A chunk must be `_EDGE_ROW`s (so
    one `[` per row; the block's last row has no separator) with digits added.
    Then each row has two commas, and they fix both index slots: i runs from
    `_SLOT_STARTS[0]` past the previous row's second comma (or the chunk's
    start) to the first comma, j from `_SLOT_STARTS[1]` past the first comma
    to `_SLOT_ENDS[1]` before the second.  As the skeleton leaves exactly a
    slot's width of digits between the commas around it, the slots hold every
    digit when each holds nothing else.  And each value is written as JSON
    writes integers: 1 to 18 digits (below 10**18, so no value overflows
    int64), with no leading zero.
    """
    edges, row = np.empty((data.count(b"[", start, stop), 2), dtype=np.int64), 0
    while start < stop:
        cut = data.find(_ROW_SEAM, min(start + _READ_BYTES, stop), stop)
        cut = stop if cut < 0 else cut + len(_ROW_SEAM)
        chunk = data[start:cut] + (b",\n" if cut == stop else b"")
        skeleton = chunk.translate(None, b"0123456789")
        rows = len(skeleton) // len(_ROW_SKELETON)
        if skeleton != _ROW_SKELETON * rows:
            return None
        text = np.frombuffer(chunk, dtype=np.uint8)
        commas = np.flatnonzero(text == b","[0])
        ends = commas.reshape(rows, 2) - _SLOT_ENDS
        starts = np.concatenate(([-len(b",\n")], commas[:-1])).reshape(rows, 2) + _SLOT_STARTS
        widths = ends - starts
        top = widths.max()
        if widths.min() < 1 or top > 18:
            return None
        # Horner's rule over each slot's last `top` bytes, where the places left of a
        # narrower slot read its first digit, `lead`, again: taken out after the loop.
        lead = _DIGIT.take(text.take(starts))
        values, worst, at = lead.copy(), lead.copy(), np.empty_like(starts)
        for k in range(top - 1, 0, -1):
            np.maximum(np.subtract(ends, k, out=at), starts, out=at)
            digit = _DIGIT.take(text.take(at))
            np.maximum(worst, digit, out=worst)
            values *= 10
            values += digit
        values -= lead * (_REPUNIT[top] - _REPUNIT.take(widths))
        if worst.max() > 9 or ((lead == 0) & (widths > 1)).any():
            return None
        edges[row : row + rows] = values
        row, start = row + rows, cut
    return edges if row == len(edges) > 0 else None


def _graph_json(data: bytes):
    """The graph file's JSON document, with an edges block in `graph_chunks`'
    layout read by `_edge_block` into an int64 array.

    Any other file goes through `json.loads`, as does one whose remaining
    text names a second "edges" or holds an escape: so both ways give the
    same graph, or the same error.
    """
    start = data.find(_EDGES_OPEN)
    # The block holds no quote, so it closes before the next key's quote.
    stop = data.rfind(_EDGES_CLOSE, start, data.find(b'"', start + len(_EDGES_OPEN)))
    if 0 <= start < stop:
        head, tail = data[:start], data[stop + len(_EDGES_CLOSE):]
        plain = not any(b'"edges"' in part or b"\\" in part for part in (head, tail))
        edges = _edge_block(data, start + len(_EDGES_OPEN), stop) if plain else None
        obj = None if edges is None else _json(head + b'\n "edges": []' + tail)
        if isinstance(obj, dict) and "edges" in obj:
            obj["edges"] = edges
            return obj
    return _json(data)


def _edges_from_json(raw, n: int) -> np.ndarray:
    """The (E, 2) int64 edges of a graph file: distinct integer pairs 0 <= i < j < n.

    `raw` is the JSON list, or the int64 array `_graph_json` reads.
    """
    if isinstance(raw, np.ndarray):
        edges = raw
    else:
        try:
            edges = np.array(raw if raw != [] else np.zeros((0, 2), dtype=np.int64))
        except ValueError:  # ragged rows; the 0-d array fails the check below
            edges = np.array(None)
        if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind != "i":
            raise BadGraph("edges must be a list of [i, j] integer pairs")
        if bool in set(map(type, chain.from_iterable(raw))):  # [true, 2] passes as int64
            raise BadGraph("edge indices must be integers, not booleans")
        edges = edges.astype(np.int64, copy=False)
    bad = (edges[:, 0] < 0) | (edges[:, 0] >= edges[:, 1]) | (edges[:, 1] >= n)
    if bad.any():
        raise BadGraph(f"edge {edges[np.argmax(bad)].tolist()} is not a pair 0 <= i < j < {n}")
    if (np.diff(np.sort(edges[:, 0] * n + edges[:, 1])) == 0).any():
        raise BadGraph("edges repeat a pair")
    return edges


def graph_from_json(obj: dict) -> random_graphs.GeomGraph:
    sample = random_graphs.PointSample.from_points(
        ball_from_json(obj["ball"]), [vec_from_json(p) for p in obj["points"]],
        parse_rational(obj["window"]), obj["seed"], tuple(obj["typicality"]),
    )
    return random_graphs.GeomGraph(
        sample=sample,
        edges=_edges_from_json(obj["edges"], len(sample.nums)),
        p=parse_rational(obj["p"]),
        rng_seed=obj["rng_seed"],
    )


def _run_sample_graph(opts: dict) -> int:
    ball = resolve_ball(opts["ball"])
    dec = decomposition.linf_decomposition(ball)
    sample = random_graphs.sample_typical_points(
        ball, dec, opts["window"], opts["n"], opts["seed"]
    )
    graph = random_graphs.unit_graph(sample)
    if opts["p"] != 1:
        graph = random_graphs.bernoulli_subgraph(graph, opts["p"], opts["seed"])
    _emit(graph_chunks(graph), opts["out"])
    return 0


_BJ_ROWS = 1 << 12  # rows of the bj-audit table rendered per chunk


def _bj_lines(report: random_graphs.BjReport) -> Iterator[str]:
    """The bj-audit CSV, `_BJ_ROWS` rows at a time.  Most rows repeat a count,
    so each count's text after k is formatted once per chunk.  A row's fraction
    is repr(satisfied / pairs): int true division rounds correctly, as
    float(Fraction(satisfied, pairs)) does, and a row with no pair reads 1.0."""
    yield "k,pairs,satisfied,fraction\n"
    pairs = report.pairs
    for at in range(0, len(report.satisfied), _BJ_ROWS):
        chunk = report.satisfied[at : at + _BJ_ROWS].tolist()
        tails = {
            sat: ",%d,%d,%r\n" % (pairs, sat, sat / pairs if pairs else 1.0) for sat in set(chunk)
        }
        yield "".join([str(k) + tails[sat] for k, sat in enumerate(chunk, start=at + 2)])


def _run_bj_audit(opts: dict) -> int:
    graph = _load(opts["graph"], graph_from_json, _graph_json)
    report = random_graphs.bj_audit(graph, opts["kmax"])
    _emit(_bj_lines(report), opts.get("out"))
    if report.one_sided_violations:
        sys.stderr.write(
            "one-sided violations: %d\n" % report.one_sided_violations
        )
        return 2
    return 0


def _run_agreement(opts: dict) -> int:
    rate = random_graphs.edge_agreement_probability(
        opts["p"], opts["trials"], opts["seed"]
    )
    payload = {
        "p": str(opts["p"]),
        "trials": opts["trials"],
        "agreements": int(rate * opts["trials"]),
        "rate": str(rate),
        "rate_float": float(rate),
    }
    _emit(_json_text(payload), opts.get("out"))
    return 0


def _run_bf(opts: dict) -> int:
    ball = resolve_ball(opts["ball"])
    report = back_forth.bf_run_experiment(
        ball, opts["nu"], opts["fibre"], opts["p"], opts["budget"], opts["seed"],
        window=opts["window"],
    )
    _emit(_json_text(report.to_json()), opts.get("out"))
    return 0


def _run_s0(opts: dict) -> int:
    params = back_forth.S0Params(
        u_ball=cube_ball(1),
        n_u=opts["nu"],
        fibre_n=opts["fibre"],
        window=opts["window"],
        budget=opts["budget"],
        p=opts["p"],
    )
    result = back_forth.s0_experiment(params, opts["trials"], opts["seed"])
    lines = ["trial,agreed,bf_completed"]
    for trial, agreed, completed in result.rows:
        lines.append(
            "%d,%d,%s" % (trial, int(agreed), "" if completed is None else int(completed))
        )
    _emit("\n".join(lines) + "\n", opts.get("out"))
    return 0


_BALL = ("--ball", {"required": True})
_INT = {"type": int, "required": True}
_OUT = ("--out", {"default": None})
_P = ("--p", {"type": parse_rational, "required": True})
_SEED = ("--seed", {"type": int, "required": True})
_WINDOW = ("--window", {"type": parse_rational, "default": Q(1)})

# name -> (runner, arguments as (flag, add_argument keywords)), in help order.
SUBCOMMANDS = {
    "decompose": (_run_decompose, (("ball", {}), _OUT)),
    "check-step-isometry": (_run_check_step_isometry, (("ball", {}), ("map", {}))),
    "sample-graph": (_run_sample_graph, (
        _BALL, ("--n", _INT), ("--window", {"type": parse_rational, "required": True}),
        ("--p", {"type": parse_rational, "default": Q(1)}), _SEED, _OUT,
    )),
    "bj-audit": (_run_bj_audit, (("--graph", {"required": True}), ("--kmax", _INT), _OUT)),
    "agreement": (_run_agreement, (_P, ("--trials", _INT), _SEED, _OUT)),
    "bf-run": (_run_bf, (
        _BALL, ("--nu", _INT), ("--fibre", _INT), _P, ("--budget", _INT), _SEED, _WINDOW, _OUT,
    )),
    "s0-experiment": (_run_s0, (
        _P, ("--trials", _INT), _SEED, ("--nu", {"type": int, "default": 400}),
        ("--fibre", {"type": int, "default": 200}), ("--budget", {"type": int, "default": 50}),
        _WINDOW, _OUT,
    )),
}


def run(config: ExperimentConfig) -> int:
    return SUBCOMMANDS[config.subcommand][0](config.options)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_config(argv)
        return run(config)
    except RadoLabError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
