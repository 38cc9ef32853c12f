import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from fractions import Fraction as Q
from itertools import zip_longest
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rado_lab import back_forth, cli, decomposition, geometry, lp, random_graphs
from rado_lab.errors import (
    BadRational, OutOfDomain, RadoLabError, UnknownBuiltin, UnknownSubcommand,
)
from rado_lab.geometry import ball_to_json, cube_ball


def first_difference(a: str, b: str):
    """None, or the first line where two texts differ, with its index.

    pytest's own diff of two large texts can take minutes.
    """
    for index, pair in enumerate(zip_longest(a.split("\n"), b.split("\n"))):
        if pair[0] != pair[1]:
            return index, pair
    return None


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestParseConfig:
    def test_decompose_builtin(self):
        config = cli.parse_config(["decompose", "builtin:cube_3"])
        assert config.subcommand == "decompose"
        assert cli.resolve_ball(config.options["ball"]) == cube_ball(3)

    def test_float_probability_rejected(self):
        with pytest.raises(BadRational):
            cli.parse_config(
                ["agreement", "--p", "0.3", "--trials", "10", "--seed", "1"]
            )

    def test_exact_probability_accepted(self):
        config = cli.parse_config(
            ["agreement", "--p", "3/10", "--trials", "10", "--seed", "1"]
        )
        assert config.options["p"] == Q(3, 10)

    def test_negative_seed_rejected(self, capsys):
        # random.Random seeds with |seed|, so -7 would silently replay seed 7.
        with pytest.raises(OutOfDomain):
            cli.parse_config(["agreement", "--p", "3/10", "--trials", "50", "--seed", "-7"])
        code = cli.main(["agreement", "--p", "3/10", "--trials", "50", "--seed", "-7"])
        assert code == 2
        assert "OutOfDomain" in capsys.readouterr().err

    def test_unknown_builtin(self):
        with pytest.raises(UnknownBuiltin):
            cli.resolve_ball("builtin:nonsense")

    def test_unknown_subcommand(self):
        with pytest.raises(UnknownSubcommand):
            cli.parse_config(["frobnicate"])


_BF = ["bf-run", "--ball", "builtin:cube_1", "--nu", "4", "--fibre", "2", "--seed", "1"]
_S0 = ["s0-experiment", "--seed", "1", "--nu", "4", "--fibre", "2", "--budget", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        _BF + ["--p", "2", "--budget", "4"],  # used to run silently as p = 1
        _BF + ["--p", "-1", "--budget", "4"],  # used to run silently as p = 0
        _S0 + ["--p", "3/2", "--trials", "2"],  # used to report every trial agreed
        _BF + ["--p", "1/2", "--budget", "0"],
        ["bf-run", "--ball", "builtin:cube_1", "--nu", "0", "--fibre", "2", "--p", "1/2",
         "--budget", "4", "--seed", "1"],
        _S0 + ["--p", "1/2", "--trials", "0"],
        # Seed 1 draws no agreeing trial, so bf_run never sees the budget.
        ["s0-experiment", "--p", "1/2", "--trials", "1", "--seed", "1", "--nu", "4",
         "--fibre", "2", "--budget", "0"],
        ["sample-graph", "--ball", "builtin:cube_2", "--n", "0", "--window", "2",
         "--seed", "1", "--out", os.devnull],
        ["agreement", "--p", "2", "--trials", "10", "--seed", "1"],
    ],
)
def test_out_of_domain_exits_2(argv, capsys):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: OutOfDomain: ") and "Traceback" not in err


_AUDIT = ["bj-audit", "--kmax", "3", "--graph"]


@pytest.mark.parametrize(
    "argv, text, error",
    [
        (["decompose", "{}"], "not json", "BadFile"),
        (["decompose", "{}"], '{"dim": 2}', "BadFile"),
        (_AUDIT + ["{}"], None, "BadFile"),  # no such file
        (_AUDIT + ["{}"], '{"points": []}', "BadFile"),
        (_AUDIT + ["{}"], "[1, 2]", "BadFile"),
        (["check-step-isometry", "builtin:cube_1", "{}"], '{"map": []}', "BadFile"),
        # An error of the format's own parser passes through as it is.
        (["decompose", "{}"], '{"dim": "x", "vertices": []}', "BadRational"),
        (["decompose", "{}"], '{"dim": true, "vertices": [["1"], ["-1"]]}', "BadRational"),
    ],
)
def test_malformed_input_file_exits_2(tmp_path, capsys, argv, text, error):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    code = cli.main([arg.format(path) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {error}: ")


def test_unwritable_out_exits_2(tmp_path, capsys):
    for argv, out in [
        (["agreement", "--p", "1/2", "--trials", "5", "--seed", "1"], tmp_path / "no-dir" / "x"),
        (["decompose", "builtin:cube_2"], tmp_path),
    ]:
        code = cli.main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: BadFile: {out}: ") and "Traceback" not in err


def test_s0_experiment_ignores_rado_lab_threads(monkeypatch, capsys):
    # The trials run inline in one process, whatever the environment holds.
    argv = _S0 + ["--p", "1/2", "--trials", "3"]
    assert cli.main(argv) == 0
    want = capsys.readouterr()
    monkeypatch.setenv("RADO_LAB_THREADS", "abc")
    assert cli.main(argv) == 0
    assert capsys.readouterr() == want


def test_coins_do_not_import_numpy_random(tmp_path):
    # Importing numpy.random adds about 5 MB resident to every process that
    # draws coins.  A fresh process, since hypothesis imports it into this one.
    script = "\n".join([
        "import sys",
        "from rado_lab import cli",
        "assert cli.main(%r) == 0" % ["sample-graph", "--ball", "builtin:cube_2", "--n", "30",
                                      "--window", "2", "--p", "1/2", "--seed", "1",
                                      "--out", str(tmp_path / "graph.json")],
        "assert cli.main(['agreement', '--p', '1/3', '--trials', '50', '--seed', '1']) == 0",
        # The fibred sampler draws its R-components in bulk too.
        "assert cli.main(%r) == 0" % (_BF + ["--p", "1/2", "--budget", "4", "--out", os.devnull]),
        "assert cli.main(%r) == 0" % (_S0 + ["--p", "1/2", "--trials", "2", "--out", os.devnull]),
        "print('numpy.random' in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_ball_past_facet_guard_exits_2_at_load(tmp_path, capsys):
    # 25 symmetric pairs of points on the Euclidean unit sphere of R^4, all
    # extreme: C(50, 4) vertex 4-subsets exceed geometry.MAX_FACET_SUBSETS,
    # and validate_ball enumerates facets eagerly.
    points = []
    for a, b, c in [(a, b, c) for a in range(1, 4) for b in range(3) for c in range(3)][:25]:
        n = a * a + b * b + c * c
        points.append([Q(2 * a, n + 1), Q(2 * b, n + 1), Q(2 * c, n + 1), Q(n - 1, n + 1)])
    points = [[str(x) for x in p] for p in points] + [[str(-x) for x in p] for p in points]
    ball_path = tmp_path / "ball.json"
    ball_path.write_text(json.dumps({"dim": 4, "vertices": points}))
    code = cli.main(["decompose", str(ball_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: TooManyVertices: ")


def test_no_linear_program_runs(tmp_path, monkeypatch, capsys):
    # Every README command, at tiny sizes, on builtin balls and on a JSON
    # ball with an interior point and edge midpoints: the exact simplex is
    # a test reference only.
    def refuse(problem):
        raise AssertionError("a linear program ran")

    for module in (geometry, decomposition, lp):
        monkeypatch.setattr(module, "solve", refuse)
    ball_path = tmp_path / "ball.json"
    ball_path.write_text(json.dumps({"dim": 2, "vertices": [
        ["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"],
        ["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"], ["0", "0"],
        ["1/2", "1/3"], ["-1/2", "-1/3"],
    ]}))
    map_path = tmp_path / "map.json"
    map_path.write_text(
        json.dumps({"pairs": [[["0", "0"], ["0", "0"]], [["1/2", "3"], ["2/5", "3"]]]})
    )
    graph_path = tmp_path / "graph.json"
    commands = [
        ["decompose", "builtin:hexagonal_prism"],
        ["decompose", str(ball_path)],
        ["check-step-isometry", str(ball_path), str(map_path)],
        ["sample-graph", "--ball", "builtin:hexagon", "--n", "30", "--window", "2",
         "--p", "1/2", "--seed", "7", "--out", str(graph_path)],
        ["bj-audit", "--graph", str(graph_path), "--kmax", "3"],
        ["agreement", "--p", "3/10", "--trials", "20", "--seed", "1"],
        ["bf-run", "--ball", "builtin:cube_1", "--nu", "6", "--fibre", "2", "--p", "1/2",
         "--budget", "4", "--seed", "1"],
        ["s0-experiment", "--p", "1/2", "--trials", "2", "--seed", "1", "--nu", "6",
         "--fibre", "2", "--budget", "4"],
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


class TestDecompose:
    def test_hexagonal_prism(self, capsys):
        code, out = run_cli(["decompose", "builtin:hexagonal_prism"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["d_inf"] == 1
        assert payload["linf_directions"] == [["0", "0", "1"]]
        assert len(payload["u_basis"]) == 2
        assert payload["isometry_group_order"] == 24

    def test_cube_4_bytes(self, capsys):
        code, out = run_cli(["decompose", "builtin:cube_4"], capsys)
        assert code == 0
        assert out == textwrap.dedent("""\
        {
         "d_inf": 4,
         "isometry_group_order": 384,
         "linf_directions": [
          [
           "1",
           "0",
           "0",
           "0"
          ],
          [
           "0",
           "1",
           "0",
           "0"
          ],
          [
           "0",
           "0",
           "1",
           "0"
          ],
          [
           "0",
           "0",
           "0",
           "1"
          ]
         ],
         "u_basis": []
        }
        """)

    def test_byte_determinism(self, capsys):
        _, first = run_cli(["decompose", "builtin:square"], capsys)
        _, second = run_cli(["decompose", "builtin:square"], capsys)
        assert first == second


class TestCheckStepIsometry:
    def test_ok_and_violation(self, tmp_path, capsys):
        ball_path = tmp_path / "ball.json"
        ball_path.write_text(json.dumps(ball_to_json(cube_ball(1))))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"pairs": [[["0"], ["0"]], [["1/2"], ["2/5"]]]}))
        code, out = run_cli(["check-step-isometry", str(ball_path), str(good)], capsys)
        assert code == 0 and out == "ok\n"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pairs": [[["0"], ["0"]], [["3/5"], ["6/5"]]]}))
        code, out = run_cli(["check-step-isometry", str(ball_path), str(bad)], capsys)
        assert code == 1 and "floors 0 vs 1" in out

    @pytest.mark.parametrize(
        "pairs, code, out, err",
        [
            ([[["0", "0"], ["0", "0"]], [["1/2"], ["1/2", "1"]]], 2, "",
             "error: DimensionMismatch: points of mixed length in dimension 2\n"),
            ([], 0, "ok\n", ""),
            # A domain projection far past int64 against an image one 10**21 finer.
            ([[["0", "0"], ["0", "0"]], [[f"{2 ** 80}/7", "0"], [f"1/{10 ** 21}", "0"]]], 1,
             "violation: pair (['0', '0'], ['1208925819614629174706176/7', '0']) -> "
             "(['0', '0'], ['1/1000000000000000000000', '0']): "
             "floors 172703688516375596386596 vs 0\n", ""),
        ],
        ids=["mixed_length", "empty", "wide"],
    )
    def test_point_inputs(self, tmp_path, capsys, pairs, code, out, err):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"pairs": pairs}))
        got = cli.main(["check-step-isometry", "builtin:square", str(path)])
        assert (got, *capsys.readouterr()) == (code, out, err)


_SPLICE = 987654321987  # an edge index replaced by a raw JSON token


def _graph_texts(payload: dict, edges=None, token: str | None = None) -> list[str]:
    """A graph file as compact JSON and in `graph_chunks`' layout (`json.dumps`,
    sorted keys, indent 1), with `edges`; `token` replaces `_SPLICE` in both."""
    if edges is not None:
        payload = {**payload, "edges": edges}
    texts = [json.dumps(payload), json.dumps(payload, sort_keys=True, indent=1) + "\n"]
    if token is not None:
        assert [text.count(str(_SPLICE)) for text in texts] == [1, 1]
        texts = [text.replace(str(_SPLICE), token) for text in texts]
    return texts


_MALFORMED_EDGES = [  # (edges, token replacing _SPLICE, error, read by numpy)
    ([[0, 9]], None, "BadGraph", True),  # past the 5 points
    ([[-1, 2]], None, "BadGraph", False),
    ([[1, 1]], None, "BadGraph", True),
    ([[0.5, 2]], None, "BadGraph", False),
    ([[0, 1], [1, 0]], None, "BadGraph", True),  # i > j
    ([[0, 1], [0, 1]], None, "BadGraph", True),
    ([[0, 1], [2]], None, "BadGraph", False),
    ([[0, 1, 2]], None, "BadGraph", False),
    ([[0, "1"]], None, "BadGraph", False),
    ({"0": 1}, None, "BadGraph", False),
    ([[True, 2]], None, "BadGraph", False),  # a bool beside an int passes as int64
    ([[0, False]], None, "BadGraph", False),
    ([[0, _SPLICE]], "01", "BadFile", False),  # JSON has no leading zeros
    ([[0, _SPLICE]], "00", "BadFile", False),
    ([[0, 10 ** 18 - 1]], None, "BadGraph", True),
    ([[0, 9999999999999999999]], None, "BadGraph", False),  # past int64
    ([[0, 99999999999999999999]], None, "BadGraph", False),
    ([[0, _SPLICE]], "", "BadFile", False),
]


_EXTRA_FIELDS = [
    {}, {"extra": [[0, 1]], "z": 1},  # keys after the edges block
    {"edges2": [[1, 2]]}, {"f": []},  # `f` becomes a second "edges" key
]


def _read_by_numpy(text: str) -> bool:
    """Whether the graph reader parses the file's edges block with numpy."""
    try:
        return isinstance(cli._graph_json(text.encode())["edges"], np.ndarray)
    except (ValueError, KeyError, TypeError):
        return False


def _audit_each(tmp_path, capsys, texts: list[str]) -> list[tuple[int, str, str]]:
    """(exit code, stdout, error class) of `bj-audit --kmax 3` on each text."""
    results = []
    for text in texts:
        path = tmp_path / "audited.json"
        path.write_text(text)
        code = cli.main(["bj-audit", "--graph", str(path), "--kmax", "3"])
        out, err = capsys.readouterr()
        results.append((code, out, ":".join(err.split(":")[:2])))
    return results


class TestGraphPipeline:
    def test_sample_bj_roundtrip(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        for n, p in (("5", "0"), ("80", "1/2")):  # p = 0 keeps no edge
            code, _ = run_cli(
                [
                    "sample-graph", "--ball", "builtin:cube_2", "--n", n,
                    "--window", "3", "--p", p, "--seed", "7",
                    "--out", str(graph_path),
                ],
                capsys,
            )
            assert code == 0
            payload = json.loads(graph_path.read_text())
            graph = cli.graph_from_json(payload)
            assert cli.graph_to_json(graph) == payload  # exact rational round-trip
            assert graph.p == Q(p)
            assert (payload["edges"] == []) == (p == "0")

        code, out = run_cli(["bj-audit", "--graph", str(graph_path), "--kmax", "3"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,pairs,satisfied,fraction"
        assert len(lines) == 3

    @pytest.mark.parametrize("rows", [3, cli._EDGE_ROWS])
    @pytest.mark.parametrize(
        "ball, n, p, edges",
        [("cube_2", 1, Q(1), 0), ("cube_2", 30, Q(0), 0), ("cube_2", 2, Q(1), 1),
         ("cube_2", 300, Q(1), 13832), ("hexagon", 200, Q(1, 3), 1634)],
    )
    def test_graph_text_matches_the_json_encoder(self, ball, n, p, edges, rows):
        ball = geometry.BUILTIN_BALLS[ball]()
        dec = decomposition.linf_decomposition(ball)
        g = random_graphs.unit_graph(random_graphs.sample_typical_points(ball, dec, Q(3), n, 7))
        if p != 1:
            g = random_graphs.bernoulli_subgraph(g, p, 7)
        assert len(g.edges) == edges
        with mock.patch.object(cli, "_EDGE_ROWS", rows):
            text = "".join(cli.graph_chunks(g))
        expected = json.dumps(cli.graph_to_json(g), sort_keys=True, indent=1) + "\n"
        assert first_difference(text, expected) is None

    def test_one_point_graph_audits_vacuously(self, tmp_path, capsys):
        # No pair to audit: each row reports fraction 1.
        graph_path = tmp_path / "graph.json"
        run_cli(
            ["sample-graph", "--ball", "builtin:cube_2", "--n", "1", "--window", "3",
             "--seed", "1", "--out", str(graph_path)],
            capsys,
        )
        code, out = run_cli(["bj-audit", "--graph", str(graph_path), "--kmax", "3"], capsys)
        assert code == 0
        assert out == "k,pairs,satisfied,fraction\n2,0,0,1.0\n3,0,0,1.0\n"

    @pytest.fixture
    def payload(self, tmp_path, capsys):
        """The JSON object of a 5-point graph file."""
        graph_path = tmp_path / "graph.json"
        run_cli(
            ["sample-graph", "--ball", "builtin:cube_2", "--n", "5", "--window", "3",
             "--seed", "1", "--out", str(graph_path)],
            capsys,
        )
        return json.loads(graph_path.read_text())

    @pytest.mark.parametrize(
        "edges, token, error, fast",
        _MALFORMED_EDGES,
        ids=[f"edges{i}" for i in range(len(_MALFORMED_EDGES))],
    )
    def test_malformed_edges_exit_2(self, tmp_path, capsys, payload, edges, token, error, fast):
        # Compact JSON takes `json.loads`; `graph_chunks`' layout the numpy reader.
        texts = _graph_texts(payload, edges, token)
        assert [_read_by_numpy(text) for text in texts] == [False, fast]
        results = _audit_each(tmp_path, capsys, texts)
        assert results[0] == results[1] == (2, "", f"error: {error}")

    @pytest.mark.parametrize(
        "last, code, out, err",
        [
            (["1/2", "1/3", "1/5"], 2, "",
             "error: DimensionMismatch: points of mixed length in dimension 2\n"),
            (["1/2"], 2, "", "error: DimensionMismatch: points of mixed length in dimension 2\n"),
            ("1/2", 2, "", "error: BadRational: not an exact rational literal: '/'\n"),
            ([1, 2], 0, "k,pairs,satisfied,fraction\n2,10,3,0.3\n3,10,1,0.1\n", ""),
        ],
        ids=["three_coordinates", "one_coordinate", "string", "json_integers"],
    )
    def test_point_inputs(self, tmp_path, capsys, payload, last, code, out, err):
        payload["points"][-1] = last
        path = tmp_path / "graph.json"
        path.write_text(_graph_texts(payload)[1])
        got = cli.main(["bj-audit", "--graph", str(path), "--kmax", "3"])
        assert (got, *capsys.readouterr()) == (code, out, err)

    def test_points_off_the_grid(self, tmp_path, capsys, payload):
        # Non-grid literals, one unreduced, are read exactly: the edge (2, 3)
        # lies at distance 2/3, and no floor is off by a scale.
        assert payload["edges"] == [[2, 3]]
        payload["points"] = [["1/3", "-5/7"], ["10/4", "2"], ["7/9", "1/3"], ["10/7", "-1/3"],
                             ["2", "7/9"]]
        path = tmp_path / "graph.json"
        path.write_text(_graph_texts(payload)[1])
        got = cli.main(["bj-audit", "--graph", str(path), "--kmax", "3"])
        assert (got, *capsys.readouterr()) == (
            0, "k,pairs,satisfied,fraction\n2,10,3,0.3\n3,10,1,0.1\n", ""
        )

    def test_truncated_or_nested_block_exits_2(self, tmp_path, capsys, payload):
        payload["edges"] = [[0, 1], [0, 2], [1, 3]]
        texts = [text[: len(text) // 2 + cut] for cut in (0, 7) for text in _graph_texts(payload)]
        # A block in `graph_chunks`' layout, but one level down: no top-level edges.
        nested = json.dumps({**payload, "edges": None}).replace('"edges": null', '"x": {"y": 1')
        texts.append(nested[:-1] + ',\n "edges": [\n  [\n   2,\n   3\n  ]\n ]}}')
        assert [_read_by_numpy(text) for text in texts] == [False] * 5
        assert {_audit_each(tmp_path, capsys, [text])[0] for text in texts} == {
            (2, "", "error: BadFile")
        }

    @pytest.mark.parametrize("extra", _EXTRA_FIELDS)
    def test_both_readers_give_the_same_graph(self, tmp_path, capsys, payload, extra):
        texts = _graph_texts({**payload, **extra})
        if "f" in extra:
            texts = [text.replace('"f":', '"edges":') for text in texts]
        assert [_read_by_numpy(text) for text in texts] == [False, "f" not in extra]
        edges = [cli.graph_from_json(cli._graph_json(text.encode())).edges.tolist() for text in texts]
        assert edges[0] == edges[1] == ([] if "f" in extra else payload["edges"])
        results = _audit_each(tmp_path, capsys, texts)
        assert results[0] == results[1] and results[0][0] == 0

    @pytest.mark.parametrize(
        "edges, token, error, fast",
        _MALFORMED_EDGES,
        ids=[f"edges{i}" for i in range(len(_MALFORMED_EDGES))],
    )
    def test_malformed_edges_at_every_seam(
        self, tmp_path, capsys, payload, edges, token, error, fast
    ):
        # One byte per read: each chunk is cut at the next row seam.
        with mock.patch.object(cli, "_READ_BYTES", 1):
            self.test_malformed_edges_exit_2(tmp_path, capsys, payload, edges, token, error, fast)

    @pytest.mark.parametrize("extra", _EXTRA_FIELDS)
    def test_both_readers_at_every_seam(self, tmp_path, capsys, payload, extra):
        with mock.patch.object(cli, "_READ_BYTES", 1):
            self.test_both_readers_give_the_same_graph(tmp_path, capsys, payload, extra)

    @pytest.mark.parametrize("at", [0, 1, 2])  # before the first seam, between two, after the last
    @pytest.mark.parametrize(
        "token, error",
        [("02", "BadFile"), ("2.0", "BadGraph"), ("-2", "BadGraph"),
         ("[2]", "BadGraph")],  # a stray `[`: four in the block, three rows
    )
    def test_malformed_row_beside_a_seam_falls_back(
        self, tmp_path, capsys, payload, at, token, error
    ):
        edges = [[0, 1], [1, 2], [2, 3]]
        edges[at] = [edges[at][0], _SPLICE]
        texts = _graph_texts(payload, edges, token)
        for read_bytes in (1, cli._READ_BYTES):
            with mock.patch.object(cli, "_READ_BYTES", read_bytes):
                assert [_read_by_numpy(text) for text in texts] == [False, False]
                results = _audit_each(tmp_path, capsys, texts)
            assert results[0] == results[1] == (2, "", f"error: {error}")

    def test_a_digit_moved_in_its_row_reads_as_json_does(self, tmp_path, capsys, payload):
        # Each digit of each edge row, moved into every other gap of its row.
        # The skeleton, the value count and the digit count all still hold, so
        # only the slot check keeps the numpy reader from a digit outside its
        # slot.  Either way the result is `json.loads`' alone: a digit moved
        # into the whitespace beside its slot is still JSON, one moved into the
        # other slot is read as the value it joins.
        payload["points"] += [payload["points"][0]] * 7  # 12 points, for two-digit indices
        text = _graph_texts(payload, [[0, 2], [3, 10], [10, 11]])[1]
        block = text.index("[\n  [")
        block_end = text.index("\n ]", block)
        moved = set()
        for at in (i for i in range(block, block_end) if text[i].isdigit()):
            row = text.rindex("  [", block, at)
            end = min(text.index("]", at) + len("],\n"), block_end)
            rest = text[:at] + text[at + 1 :]
            moved.update(rest[:gap] + text[at] + rest[gap:] for gap in range(row, end))
        moved = sorted(moved - {text})
        assert any("0  [\n   ,\n   2\n  ]" in m for m in moved)
        with mock.patch.object(cli, "_edge_block", lambda *args: None):
            want = _audit_each(tmp_path, capsys, moved)
        assert want.count((2, "", "error: BadFile")) > len(moved) // 2
        for read_bytes in (1, cli._READ_BYTES):
            with mock.patch.object(cli, "_READ_BYTES", read_bytes):
                for m in filter(_read_by_numpy, moved):
                    assert cli._graph_json(m.encode())["edges"].tolist() == json.loads(m)["edges"]
                assert _audit_each(tmp_path, capsys, moved) == want

    @pytest.mark.parametrize("rows", [1, 2, 3, cli._EDGE_ROWS])
    def test_index_widths_within_and_across_chunks(self, rows):
        # Indices cross 9/10, 99/100 and 999/1000 inside one chunk (the
        # default) and at every place a chunk can end (1 to 3 rows each).
        sample = random_graphs.PointSample.from_points(
            cube_ball(1), [(Q(i),) for i in range(1001)], Q(3), 0
        )
        edges = np.array(
            [[0, 1], [8, 9], [9, 10], [10, 11], [5, 99], [98, 99], [99, 100], [7, 100],
             [100, 101], [998, 999], [999, 1000], [0, 1000], [3, 4]]
        )
        g = random_graphs.GeomGraph(sample=sample, edges=edges, p=Q(1), rng_seed=None)
        with mock.patch.object(cli, "_EDGE_ROWS", rows):
            text = "".join(cli.graph_chunks(g))
        assert text == json.dumps(cli.graph_to_json(g), sort_keys=True, indent=1) + "\n"
        for read_bytes in (1, cli._READ_BYTES):
            with mock.patch.object(cli, "_READ_BYTES", read_bytes):
                assert cli._graph_json(text.encode())["edges"].tolist() == edges.tolist()

    def test_sample_graph_stdout_is_the_out_file(self, tmp_path, capsys):
        argv = ["sample-graph", "--ball", "builtin:cube_2", "--n", "200", "--window", "3",
                "--p", "1/2", "--seed", "5"]
        path = tmp_path / "graph.json"
        with mock.patch.object(cli, "_EDGE_ROWS", 100):  # edges in several chunks
            assert run_cli(argv + ["--out", str(path)], capsys) == (0, "")
            code, out = run_cli(argv, capsys)
        assert code == 0 and out.encode() == path.read_bytes()
        assert len(json.loads(out)["edges"]) > 300

    def test_large_kmax_is_one_pass(self, tmp_path, capsys, payload):
        # Rows come off one histogram, so k_max costs a row each, not a pass each.
        path = tmp_path / "graph.json"
        path.write_text(_graph_texts(payload, payload["edges"])[1])
        code, short = run_cli(["bj-audit", "--graph", str(path), "--kmax", "6"], capsys)
        started = time.perf_counter()
        code, out = run_cli(["bj-audit", "--graph", str(path), "--kmax", "100000"], capsys)
        assert time.perf_counter() - started < 1.0
        lines = out.split("\n")
        assert code == 0 and len(lines) == 1 + 99_999 + 1 and lines[-1] == ""
        assert out.startswith(short)

    def test_rows_are_streamed(self, tmp_path, capsys, payload):
        # At k_max = 10**6 the rows were tuples holding a Fraction each, then
        # every line and their join: 252 MB traced.  The counts are now one
        # int64 array (8 MB) and the lines go out `_BJ_ROWS` at a time.
        path, rows = tmp_path / "graph.json", tmp_path / "rows.csv"
        path.write_text(_graph_texts(payload, payload["edges"])[1])
        code, short = run_cli(["bj-audit", "--graph", str(path), "--kmax", "6"], capsys)
        tracemalloc.start()
        try:
            code = cli.main(
                ["bj-audit", "--graph", str(path), "--kmax", str(10 ** 6), "--out", str(rows)]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 12 * 2 ** 20
        out = rows.read_text()
        assert out.startswith(short) and out.count("\n") == 10 ** 6
        k, pairs, sat, fraction = out[out.rindex("\n", 0, -1) + 1 : -1].split(",")
        assert (k, pairs) == (str(10 ** 6), "10")
        assert fraction == repr(float(Q(int(sat), 10)))

    @pytest.mark.parametrize("kmax", [10 ** 6 + 1, 10 ** 20])
    def test_kmax_past_the_row_cap_exits_2(self, tmp_path, capsys, monkeypatch, payload, kmax):
        # 10**20 used to overflow int64 in `np.minimum`; both are refused
        # before the audit projects or packs anything.
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload))

        def no_arrays(*args):
            raise AssertionError("array work before the k_max check")

        monkeypatch.setattr(random_graphs, "norm_keys", no_arrays)
        code = cli.main(["bj-audit", "--graph", str(path), "--kmax", str(kmax)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: OutOfDomain: k_max must lie in [2, 1000000]")

    def test_identical_config_identical_bytes(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            run_cli(
                [
                    "sample-graph", "--ball", "builtin:cube_2", "--n", "40",
                    "--window", "2", "--p", "1/3", "--seed", "21",
                    "--out", str(path),
                ],
                capsys,
            )
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


# Indices of every width from 1 to 19 digits, each side of every power of ten:
# 10**18 - 1 is the widest the numpy reader reads, 10**18 falls back to JSON.
_BOUNDARIES = [10 ** k + d for k in range(1, 19) for d in (-1, 0)]
_INDICES = (
    st.integers(0, 11)  # within the 12 points, so some graphs read back whole
    | st.sampled_from(_BOUNDARIES)
    | st.integers(1, 19).flatmap(lambda w: st.integers(10 ** w // 10, min(10 ** w, 2 ** 63) - 1))
)
_MUTATION_BYTES = b"0123456789 ,[]\n-."


@st.composite
def _edge_arrays(draw):
    """A sorted array of distinct pairs i < j, as `unit_graph` writes them."""
    pairs = draw(st.sets(st.tuples(_INDICES, _INDICES).filter(lambda p: p[0] != p[1]),
                         min_size=1, max_size=30))
    return np.array(sorted({(min(p), max(p)) for p in pairs}), dtype=np.int64)


_TWELVE = random_graphs.PointSample.from_points(cube_ball(1), [(Q(i),) for i in range(12)],
                                                Q(3), 0)


@st.composite
def _point_samples(draw):
    """0, 1, 2 or 12 points in the plane as an integer table over a denominator
    from 1 to 2**70, not reduced: negative, integer and off-grid coordinates."""
    n, den = draw(st.sampled_from([0, 1, 2, 12])), draw(st.integers(1, 2 ** 70))
    coord = st.integers(-3 * den, 3 * den) | st.integers(-3, 3).map(lambda k: k * den)
    nums, den = geometry.integer_table(draw(st.lists(st.tuples(coord, coord), min_size=n,
                                                     max_size=n)), 2, den)
    return random_graphs.PointSample(cube_ball(2), nums, den, Q(3), 0, ())


def _graph_with_edges(edges: np.ndarray, sample=_TWELVE) -> random_graphs.GeomGraph:
    return random_graphs.GeomGraph(sample=sample, edges=edges, p=Q(1), rng_seed=None)


def _read_back(data: bytes):
    """What the graph reader makes of `data`: the edges of its JSON document as
    JSON text (so a float or a boolean shows), then the graph's edges or its
    error; or the document's own error."""
    try:
        obj = cli._graph_json(data)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    edges = obj["edges"]
    document = json.dumps(edges.tolist() if isinstance(edges, np.ndarray) else edges)
    try:
        return document, cli.graph_from_json(obj).edges.tolist()
    except (RadoLabError, ValueError, KeyError, TypeError) as exc:
        return document, f"{type(exc).__name__}: {exc}"


class TestEdgeRowsProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        edges=_edge_arrays(),
        rows=st.sampled_from([1, 2, 3, cli._EDGE_ROWS]),
        read_bytes=st.sampled_from([1, 40, 1000, cli._READ_BYTES]),
        edit=st.sampled_from(["insert", "delete", "replace"]),
        where=st.floats(0, 1, exclude_max=True),
        byte=st.sampled_from(_MUTATION_BYTES),
        sample=st.just(_TWELVE) | _point_samples(),
    )
    @example(  # every width, and both sides of each power of ten, in one file
        edges=np.array([[10 ** k - 1, 10 ** k] for k in range(1, 19)] + [[0, 10 ** 18 + 7]]),
        rows=3, read_bytes=1, edit="replace", where=0.5, byte=ord("9"), sample=_TWELVE,
    )
    def test_written_read_and_mutated(self, edges, rows, read_bytes, edit, where, byte, sample):
        g = _graph_with_edges(edges, sample)
        with mock.patch.object(cli, "_EDGE_ROWS", rows):
            text = "".join(cli.graph_chunks(g))
        # The points as `vec_to_json` writes their Fractions, so the writer's
        # rendering from the table is pinned off the grid.
        points = [geometry.vec_to_json(p) for p in g.sample.points]
        assert text == cli._json_text({**cli.graph_to_json(g), "points": points})
        data = text.encode()
        # Edges may index past the points, so the points are read back on their own.
        obj = {**cli._graph_json(data), "edges": []}
        assert cli.graph_from_json(obj).sample.points == g.sample.points
        start = data.index(cli._EDGES_OPEN) + len(cli._EDGES_OPEN)
        stop = data.index(cli._EDGES_CLOSE, start)
        at = start + int(where * (stop - start))
        edited = {
            "insert": data[:at] + bytes([byte]) + data[at:],
            "delete": data[:at] + data[at + 1 :],
            "replace": data[:at] + bytes([byte]) + data[at + 1 :],
        }[edit]
        with mock.patch.object(cli, "_READ_BYTES", read_bytes):
            got = cli._graph_json(data)["edges"]
            assert isinstance(got, np.ndarray) == (edges.max() < 10 ** 18)
            assert np.array_equal(np.asarray(got), edges)
            read = _read_back(edited)
            with mock.patch.object(cli, "_edge_block", lambda *args: None):
                assert read == _read_back(edited)


def test_readme_graph_is_read_by_numpy():
    # A silent fallback would pass every test of what is read, yet `json.loads`
    # of this 7.8 MB file takes several times as long as the numpy reader.
    ball = cube_ball(2)
    sample = random_graphs.sample_typical_points(
        ball, decomposition.linf_decomposition(ball), Q(3), 2000, 0
    )
    g = random_graphs.bernoulli_subgraph(random_graphs.unit_graph(sample), Q(1, 2), 0)
    text = "".join(cli.graph_chunks(g))
    assert _read_by_numpy(text)
    assert np.array_equal(cli._graph_json(text.encode())["edges"], g.edges)


def test_sample_graph_builds_no_fraction_per_point(monkeypatch):
    # The sampler keeps its numerators, the kernels read them and the writer
    # renders them, so the README-size run builds exactly the Fractions of a
    # 20-point one, none per point: those of the ball and its decomposition,
    # 300 to 400 under Python 3.11, whose Fraction arithmetic goes through
    # `__new__`.  Points held as Fractions made 2 per coordinate more (4,402
    # in all).  The first run fills the decomposition's extreme-line cache,
    # so it is not counted.
    made = [0]
    new = Q.__new__

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", staticmethod(counted))
    counts = {}
    for n in (20, 20, 2000):
        made[0] = 0
        assert cli.main(["sample-graph", "--ball", "builtin:cube_2", "--n", str(n), "--window",
                         "3", "--p", "1/2", "--seed", "0", "--out", os.devnull]) == 0
        counts[n] = made[0]
    assert counts[2000] == counts[20] < 2000 // 4


def test_graph_file_memory_is_bounded(tmp_path):
    # Writing the file used to hold every row string and their join, and
    # reading it the whole block and two translations of it: 10.7 and
    # 12.1 MB traced at this size, where a chunk on each side is bounded.
    ball = cube_ball(2)
    sample = random_graphs.sample_typical_points(
        ball, decomposition.linf_decomposition(ball), Q(3), 1000, 7
    )
    g = random_graphs.unit_graph(sample)
    assert len(g.edges) >= 100_000
    path = tmp_path / "graph.json"
    tracemalloc.start()
    try:
        cli._emit(cli.graph_chunks(g), str(path))
        written = tracemalloc.get_traced_memory()[1]
        data = path.read_bytes()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        edges = cli._graph_json(data)["edges"]
        read = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(edges, g.edges)
    assert written < 4 * 2 ** 20
    assert read < edges.nbytes + 4 * 2 ** 20


class TestAgreement:
    def test_report(self, capsys):
        code, out = run_cli(
            ["agreement", "--p", "3/10", "--trials", "2000", "--seed", "3"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 2000
        assert abs(payload["rate_float"] - 0.58) < 0.05

    @pytest.mark.parametrize("p, trials, out", [
        ("1/1180591620717411303424", 3,
         '{\n "agreements": 3,\n "p": "1/1180591620717411303424",\n "rate": "1",\n'
         ' "rate_float": 1.0,\n "trials": 3\n}\n'),
        ("590295810358705651713/1180591620717411303424", 50,
         '{\n "agreements": 25,\n "p": "590295810358705651713/1180591620717411303424",\n'
         ' "rate": "1/2",\n "rate_float": 0.5,\n "trials": 50\n}\n'),
    ])
    def test_coins_past_int64_are_pinned(self, capsys, p, trials, out):
        # 2**70 denominators draw past int64; the bytes are those of the
        # per-coin `randrange` loop.
        assert run_cli(["agreement", "--p", p, "--trials", str(trials), "--seed", "1"], capsys) == (
            0, out
        )

    @pytest.mark.parametrize("trials", [10 ** 8 + 1, 10 ** 30])
    def test_trials_past_the_coin_cap_exit_2(self, capsys, monkeypatch, trials):
        # 10**30 used to die in `np.empty`; no coin is drawn for either.
        def no_coins(*args):
            raise AssertionError("coins drawn before the trials check")

        monkeypatch.setattr(random_graphs, "_coins", no_coins)
        code = cli.main(["agreement", "--p", "1/2", "--trials", str(trials), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: OutOfDomain: trials must lie in [1, 100000000]")


class TestBfCli:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("bf-run --ball builtin:cube_1 --nu 40 --fibre 100 --p 1 --budget 120 --seed 8",
             "a39e4e150dd5c9b01303b93d2667be11d6374f5a6a92c821da1ec21605f3e3ae"),
            ("bf-run --ball builtin:cube_1 --nu 20 --fibre 100 --p 1/2 --budget 60 --seed 8",
             "19af829029e52f4a8b8495bfc3372987440174e56297ad6ebf06899978078f52"),
            ("bf-run --ball builtin:hexagon --nu 12 --fibre 20 --p 1/2 --budget 40 --seed 5"
             " --window 3",
             "a79c7312ccf6843ea102093a0276138b9c43b9897dd426792d16aa1ecb7d005f"),
            ("s0-experiment --p 1/2 --trials 8 --seed 3 --nu 40 --fibre 50 --budget 8",
             "fd8895375bf31aa5a0c4ad082760d33853848eb322699671d25777705ede5e74"),
        ],
    )
    def test_stdout_bytes_are_pinned(self, capsys, argv, digest):
        # Recorded before the back-and-forth moved to integer pair predicates:
        # a p = 1 run to its budget, p = 1/2 runs that block on adjacency and
        # on an empty interval, and an S0 run with completed and blocked trials.
        code, out = run_cli(argv.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bf_run_report(self, capsys):
        code, out = run_cli(
            [
                "bf-run", "--ball", "builtin:cube_1", "--nu", "30", "--fibre", "2",
                "--p", "1/2", "--budget", "12", "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["steps_attempted"] <= 12
        assert payload["matched_count"] <= payload["steps_attempted"]

    def test_s0_experiment_csv(self, capsys):
        code, out = run_cli(
            [
                "s0-experiment", "--p", "1/2", "--trials", "4", "--seed", "9",
                "--nu", "25", "--fibre", "2", "--budget", "8",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "trial,agreed,bf_completed"
        assert len(lines) == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ["bf-run", "--ball", "builtin:cube_1", "--nu", "3000", "--fibre", "400",
             "--p", "1/2", "--budget", "5", "--seed", "1"],
            ["s0-experiment", "--p", "1/2", "--trials", "3", "--seed", "1",
             "--nu", "3000", "--fibre", "400"],
        ],
    )
    def test_sample_past_the_coin_keys_refused_before_sampling(self, capsys, monkeypatch, argv):
        def no_sample(*args):
            raise AssertionError("a sample was drawn before the coin-key check")

        monkeypatch.setattr(back_forth, "make_fibred_sample", no_sample)
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2
        points = 1_200_000 if argv[0] == "bf-run" else 1_200_004
        assert err == f"error: IndexOutOfRange: {points} points; coin keys allow fewer than 1048576\n"
