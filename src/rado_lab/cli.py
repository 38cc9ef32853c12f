"""Command-line experiment harness.

Every run is reproducible byte for byte: all parameters are exact
rationals (floats are refused), every sampler is seeded, and outputs are
emitted with sorted keys.  RADO_LAB_THREADS caps trial parallelism for
the Monte Carlo experiments; the default of 1 runs everything inline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction as Q

from . import back_forth, decomposition, random_graphs, step_isometry
from .errors import OutOfDomain, RadoLabError, TooManyVertices, UnknownBuiltin, UnknownSubcommand
from .geometry import (
    BUILTIN_BALLS,
    PolytopeBall,
    ball_from_json,
    load_ball,
    parse_rational,
    vec_from_json,
    vec_to_json,
)


@dataclass(frozen=True)
class ExperimentConfig:
    subcommand: str
    options: dict


def resolve_ball(source: str) -> PolytopeBall:
    """A ball from 'builtin:<name>' or a JSON file path."""
    if source.startswith("builtin:"):
        name = source[len("builtin:"):]
        maker = BUILTIN_BALLS.get(name)
        if maker is None:
            raise UnknownBuiltin(f"no builtin ball named {name!r}")
        return maker()
    return load_ball(source)


def _seed(text: str) -> int:
    """A master seed; random.Random(-s) would silently replay seed s."""
    seed = int(text)
    if seed < 0:
        raise OutOfDomain(f"--seed must be nonnegative, got {seed}")
    return seed


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
    return ExperimentConfig(subcommand=ns.subcommand, options=options)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    with open(opts["map"], "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    pairs = [
        (vec_from_json(src), vec_from_json(dst)) for src, dst in payload["pairs"]
    ]
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


def graph_to_json(g: random_graphs.GeomGraph) -> dict:
    from .geometry import ball_to_json

    return {
        "ball": ball_to_json(g.sample.ball),
        "window": str(g.sample.window),
        "seed": g.sample.seed,
        "typicality": list(g.sample.typicality),
        "points": [vec_to_json(p) for p in g.sample.points],
        "p": str(g.p),
        "rng_seed": g.rng_seed,
        "edges": [list(e) for e in g.edges],
    }


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
        edges=tuple((int(i), int(j)) for i, j in obj["edges"]),
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
    _emit(_json_text(graph_to_json(graph)), opts["out"])
    return 0


def _run_bj_audit(opts: dict) -> int:
    with open(opts["graph"], "r", encoding="utf-8") as fh:
        graph = graph_from_json(json.load(fh))
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


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("RADO_LAB_THREADS", "1")))
    except ValueError:
        return 1


def _run_s0(opts: dict) -> int:
    from .geometry import cube_ball

    params = back_forth.S0Params(
        u_ball=cube_ball(1),
        n_u=opts["nu"],
        fibre_n=opts["fibre"],
        window=opts["window"],
        budget=opts["budget"],
        p=opts["p"],
    )
    result = back_forth.s0_experiment(
        params, opts["trials"], opts["seed"], threads=_threads()
    )
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
_SEED = ("--seed", {"type": _seed, "required": True})
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
