"""Command-line experiment harness.

Every run is reproducible byte for byte: all parameters are exact
rationals (floats are refused), every sampler is seeded, and outputs are
emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys
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


def _emit(text: str, out: str | None) -> None:
    """`text` to stdout, or to the file `out`; one that cannot be written raises `BadFile`."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
        "points": [vec_to_json(p) for p in g.sample.points],
        "p": str(g.p),
        "rng_seed": g.rng_seed,
    }


def graph_to_json(g: random_graphs.GeomGraph) -> dict:
    """The graph file as a JSON object: what `graph_from_json` reads back."""
    return {**_graph_fields(g), "edges": g.edges.tolist()}


_EDGE = "  [\n   %d,\n   %d\n  ]"  # one edge row as `_json_text` indents it
_EDGE_ROWS = 1 << 14  # edges formatted per %-operation


def graph_text(g: random_graphs.GeomGraph) -> str:
    """The graph file, byte for byte `_json_text(graph_to_json(g))`.

    The edge block comes from the fixed `_EDGE` template, formatted from
    the int64 array a chunk of rows at a time, instead of through the
    pure-Python indenting JSON encoder and a list of every pair.
    """
    text = _json_text({**_graph_fields(g), "edges": []})
    if not len(g.edges):
        return text
    head, tail = text.split('\n "edges": []', 1)  # a one-space indent is top level
    rows = [
        ",\n".join([_EDGE] * len(chunk)) % tuple(chunk.ravel().tolist())
        for chunk in np.split(g.edges, range(_EDGE_ROWS, len(g.edges), _EDGE_ROWS))
    ]
    return "".join([head, '\n "edges": [\n', ",\n".join(rows), "\n ]", tail])


_EDGES_OPEN, _EDGES_CLOSE = b'\n "edges": [\n', b"\n ]"
_EDGE_SKELETON = _EDGE.replace("%d", "").encode()
_TO_SPACES = bytes.maketrans(b"[],\n", b"    ")


def _edge_block(block: bytes) -> np.ndarray | None:
    """The (E, 2) int64 array of an edges block in `graph_text`'s layout, else None.

    The block must be `_EDGE` rows with nonempty digit runs in place of
    each %d, written as JSON writes integers: no leading zero, which the
    digit count of the values checks, and below 10**18, so that no run
    saturates numpy's int64 parse.
    """
    skeleton = block.translate(None, b"0123456789")
    rows, rest = divmod(len(skeleton) + 2, len(_EDGE_SKELETON) + 2)
    if rest or skeleton != _EDGE_SKELETON + (b",\n" + _EDGE_SKELETON) * (rows - 1):
        return None
    values = np.fromstring(block.translate(_TO_SPACES), dtype=np.int64, sep=" ")
    if len(values) != 2 * rows or values.max() >= 10 ** 18:
        return None
    digits, power = len(values), 10
    while power <= values.max():
        digits += int(np.count_nonzero(values >= power))
        power *= 10
    return values.reshape(rows, 2) if digits == len(block) - len(skeleton) else None


def _graph_json(data: bytes):
    """The graph file's JSON document, with an edges block in `graph_text`'s
    layout read by `_edge_block` into an int64 array.

    Any other file goes through `json.loads`, as does one whose remaining
    text names a second "edges" or holds an escape: so both ways give the
    same graph, or the same error.
    """
    start = data.find(_EDGES_OPEN)
    # The block holds no quote, so it closes before the next key's quote.
    stop = data.rfind(_EDGES_CLOSE, start, data.find(b'"', start + len(_EDGES_OPEN)))
    if start < 0 or stop <= start:
        return _json(data)
    head, tail = data[:start], data[stop + len(_EDGES_CLOSE):]
    if any(b'"edges"' in part or b"\\" in part for part in (head, tail)):
        return _json(data)
    edges = _edge_block(data[start + len(_EDGES_OPEN):stop])
    if edges is None:
        return _json(data)
    obj = _json(head + b'\n "edges": []' + tail)
    if not isinstance(obj, dict) or "edges" not in obj:
        return _json(data)
    obj["edges"] = edges
    return obj


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
    ball = ball_from_json(obj["ball"])
    sample = random_graphs.PointSample(
        ball=ball,
        points=tuple(vec_from_json(p) for p in obj["points"]),
        window=parse_rational(obj["window"]),
        seed=obj["seed"],
        typicality=tuple(obj["typicality"]),
    )
    return random_graphs.GeomGraph(
        sample=sample,
        edges=_edges_from_json(obj["edges"], len(sample.points)),
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
    _emit(graph_text(graph), opts["out"])
    return 0


def _run_bj_audit(opts: dict) -> int:
    graph = _load(opts["graph"], graph_from_json, _graph_json)
    report = random_graphs.bj_audit(graph, opts["kmax"])
    lines = ["k,pairs,satisfied,fraction"]
    for k, pairs, satisfied, fraction in report.rows:
        lines.append("%d,%d,%d,%s" % (k, pairs, satisfied, repr(float(fraction))))
    _emit("\n".join(lines) + "\n", opts.get("out"))
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
        ("--p", {"type": parse_rational, "default": Q(1)}), _SEED, ("--out", {"required": True}),
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
