"""The benchmark's four workloads: README CLI command lists and their inputs.

Each workload is one fixed list of `rado-lab` commands.  Its inputs (ball
and map files, CLI seeds) are generated from the workload seed and the
round number, so every round of a run gets fresh inputs and no command
input repeats within one process.  `check_*` functions validate a
command's output on any seed; the recorded digests in `digests.json`
pin the exact bytes on the default seed.

Why these four (see README.md in this directory for the layer map):

* kernel_generic -- generic (LP-gauge) balls: exact-simplex solves dominate.
* graph_cube     -- README-size cube graphs: numpy, bitset BFS, JSON I/O,
                    per-pair Fraction floors; no LP at all.
* s0_gadget      -- README S0 experiment: Fraction sampler and the gadget's
                    closed-form norm calls.
* bf_extend      -- back-and-forth runs that cannot block (p = 1), so the
                    per-step extension and audit cost is measured.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[int, str, str], str | None]
    inputs: tuple[str, ...] = ()   # files the command reads
    outputs: tuple[str, ...] = ()  # files the command writes (part of its output bytes)


# Sizes per scale.  "full" is what the benchmark measures; "tiny" only
# exercises every code path for the smoke test.
SIZES = {
    "full": {
        "ball_dims": (2, 3), "prism": True,
        "hex_n": 100, "kmax": 4,
        "cube_n": 2000, "cube_graphs": 1, "map_points": 300,
        "s0": ((1, 400, 200), (1, 400, 1)),  # (trials, nu, fibre)
        "bf": ((50, 200, "1", 100), (400, 1, "1", 100), (400, 200, "1/2", 50)),
    },
    "tiny": {
        "ball_dims": (2,), "prism": False,
        "hex_n": 12, "kmax": 3,
        "cube_n": 40, "cube_graphs": 1, "map_points": 12,
        "s0": ((1, 12, 4), (2, 12, 1)),
        "bf": ((6, 4, "1", 8), (12, 1, "1", 8), (12, 4, "1/2", 8)),
    },
}


# ---------------------------------------------------------------------------
# Output checks.  Each returns None when the output is right, else a reason.


def _expect_rc(rc: int, want: int = 0) -> str | None:
    return None if rc == want else f"exit code {rc}, expected {want}"


def check_decompose(dim: int):
    def check(rc, out, err):
        bad = _expect_rc(rc)
        if bad:
            return bad
        got = json.loads(out)
        if len(got["linf_directions"]) != got["d_inf"]:
            return "d_inf does not match the listed directions"
        if got["d_inf"] + len(got["u_basis"]) != dim:
            return "d_inf + dim U differs from the ball's dimension"
        order = got["isometry_group_order"]
        if order is not None and (order < 2 or order % 2):
            return f"isometry group order {order} cannot contain +-identity"
        return None

    return check


def check_bj_audit(n: int, kmax: int):
    def check(rc, out, err):
        bad = _expect_rc(rc)
        if bad:
            return bad
        lines = out.splitlines()
        if lines[0] != "k,pairs,satisfied,fraction" or len(lines) != kmax:
            return "unexpected bj-audit table shape"
        for k, line in zip(range(2, kmax + 1), lines[1:]):
            kk, pairs, sat, _ = line.split(",")
            if int(kk) != k or int(pairs) != n * (n - 1) // 2 or not 0 <= int(sat) <= int(pairs):
                return f"bad bj-audit row {line!r}"
        return None

    return check


def check_empty_stdout(rc, out, err):
    return _expect_rc(rc) or (None if out == "" else "unexpected stdout")


def check_step_ok(rc, out, err):
    return _expect_rc(rc) or (None if out == "ok\n" else f"map rejected: {out.strip()}")


def check_s0(trials: int):
    def check(rc, out, err):
        bad = _expect_rc(rc)
        if bad:
            return bad
        lines = out.splitlines()
        if lines[0] != "trial,agreed,bf_completed" or len(lines) != trials + 1:
            return "unexpected s0 table shape"
        for t, line in enumerate(lines[1:]):
            trial, agreed, completed = line.split(",")
            if int(trial) != t or agreed not in "01" or (agreed == "0") != (completed == ""):
                return f"bad s0 row {line!r}"
        return None

    return check


def check_bf(budget: int, must_complete: bool):
    def check(rc, out, err):
        bad = _expect_rc(rc)
        if bad:
            return bad
        got = json.loads(out)
        steps, matched = got["steps_attempted"], got["matched_count"]
        if not 1 <= steps <= budget or matched > steps:
            return f"steps {steps}, matched {matched} outside the budget {budget}"
        if must_complete and (got["blocked"] is not None or matched != budget):
            return f"p = 1 run blocked ({got['blocked']}) after {steps} steps"
        return None

    return check


# ---------------------------------------------------------------------------
# Input generation.


def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 10 ** 6))


def random_symmetric_ball(rng: random.Random, dim: int, vertices: int):
    """A ball from the test suite's random recipe (tests/conftest.py),
    redrawn until it has exactly the given number of vertices."""
    from rado_lab.errors import RadoLabError
    from rado_lab.geometry import validate_ball
    from rado_lab.linalg import vneg

    while True:
        pts = set()
        for _ in range(vertices // 2):
            p = tuple(Q(rng.randrange(-8, 9), 4) for _ in range(dim))
            if any(c != 0 for c in p):
                pts.add(p)
                pts.add(vneg(p))
        try:
            ball = validate_ball(sorted(pts))
        except RadoLabError:
            continue
        if len(ball.vertices) == vertices:
            return ball


def kernel_generic(rng: random.Random, size: dict, tmp: str) -> list[Command]:
    from rado_lab.geometry import dump_ball

    cmds = []
    for dim in size["ball_dims"]:
        # One ball per vertex count the recipe draws (2 dim .. 2 dim + 4):
        # decompose's cost is set mostly by the vertex count, so a fixed
        # mix keeps rounds comparable across seeds.
        for vertices in range(2 * dim, 2 * dim + 5, 2):
            path = os.path.join(tmp, f"ball_d{dim}_v{vertices}.json")
            dump_ball(random_symmetric_ball(rng, dim, vertices), path)
            cmds.append(Command(("decompose", path), check_decompose(dim), inputs=(path,)))
    if size["prism"]:
        cmds.append(Command(("decompose", "builtin:hexagonal_prism"), check_decompose(3)))
    graph = os.path.join(tmp, "hexagon_graph.json")
    n, kmax = size["hex_n"], size["kmax"]
    cmds.append(Command(
        ("sample-graph", "--ball", "builtin:hexagon", "--n", str(n), "--window", "3",
         "--p", "1/2", "--seed", _cli_seed(rng), "--out", graph),
        check_empty_stdout, outputs=(graph,),
    ))
    cmds.append(Command(
        ("bj-audit", "--graph", graph, "--kmax", str(kmax)),
        check_bj_audit(n, kmax), inputs=(graph,),
    ))
    return cmds


def _step_isometry_map(rng: random.Random, points: int, path: str) -> None:
    """A finite map x -> f(x) for a random family step-isometry f of linf^3."""
    from rado_lab.geometry import vec_to_json
    from rado_lab.step_isometry import apply_linf, random_step_isometry

    spec = random_step_isometry(3, 4, rng.randrange(10 ** 6))
    den = 2 ** 12
    xs: set = set()
    while len(xs) < points:
        xs.add(tuple(Q(rng.randrange(-4 * den, 4 * den), den) for _ in range(3)))
    pairs = [[vec_to_json(x), vec_to_json(apply_linf(spec, x))] for x in sorted(xs)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pairs": pairs}, fh)


def graph_cube(rng: random.Random, size: dict, tmp: str) -> list[Command]:
    cmds = []
    n, kmax = size["cube_n"], size["kmax"]
    for k in range(size["cube_graphs"]):
        graph = os.path.join(tmp, f"cube_graph_{k}.json")
        cmds.append(Command(
            ("sample-graph", "--ball", "builtin:cube_2", "--n", str(n), "--window", "3",
             "--p", "1/2", "--seed", _cli_seed(rng), "--out", graph),
            check_empty_stdout, outputs=(graph,),
        ))
        cmds.append(Command(
            ("bj-audit", "--graph", graph, "--kmax", str(kmax)),
            check_bj_audit(n, kmax), inputs=(graph,),
        ))
    path = os.path.join(tmp, "step_map.json")
    _step_isometry_map(rng, size["map_points"], path)
    cmds.append(Command(
        ("check-step-isometry", "builtin:cube_3", path), check_step_ok, inputs=(path,),
    ))
    return cmds


def s0_gadget(rng: random.Random, size: dict, tmp: str) -> list[Command]:
    return [
        Command(
            ("s0-experiment", "--p", "1/2", "--trials", str(trials), "--seed", _cli_seed(rng),
             "--nu", str(nu), "--fibre", str(fibre)),
            check_s0(trials),
        )
        for trials, nu, fibre in size["s0"]
    ]


def bf_extend(rng: random.Random, size: dict, tmp: str) -> list[Command]:
    return [
        Command(
            ("bf-run", "--ball", "builtin:cube_1", "--nu", str(nu), "--fibre", str(fibre),
             "--p", p, "--budget", str(budget), "--seed", _cli_seed(rng)),
            check_bf(budget, must_complete=p == "1"),
        )
        for nu, fibre, p, budget in size["bf"]
    ]


WORKLOADS = {
    "kernel_generic": kernel_generic,
    "graph_cube": graph_cube,
    "s0_gadget": s0_gadget,
    "bf_extend": bf_extend,
}


def build(workload: str, seed: int, round_: int, scale: str, tmp: str) -> list[Command]:
    """The command list of one round, with its input files written to tmp."""
    rng = random.Random(f"{workload}/{seed}/{round_}")
    return WORKLOADS[workload](rng, SIZES[scale], tmp)
