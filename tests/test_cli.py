import json
from fractions import Fraction as Q

import pytest

from rado_lab import cli
from rado_lab.errors import BadRational, OutOfDomain, UnknownBuiltin, UnknownSubcommand
from rado_lab.geometry import ball_to_json, cube_ball


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


class TestDecompose:
    def test_hexagonal_prism(self, capsys):
        code, out = run_cli(["decompose", "builtin:hexagonal_prism"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["d_inf"] == 1
        assert payload["linf_directions"] == [["0", "0", "1"]]
        assert len(payload["u_basis"]) == 2
        assert payload["isometry_group_order"] == 24

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


class TestGraphPipeline:
    def test_sample_bj_roundtrip(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        code, _ = run_cli(
            [
                "sample-graph", "--ball", "builtin:cube_2", "--n", "80",
                "--window", "3", "--p", "1/2", "--seed", "7",
                "--out", str(graph_path),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(graph_path.read_text())
        graph = cli.graph_from_json(payload)
        assert cli.graph_to_json(graph) == payload  # exact rational round-trip
        assert graph.p == Q(1, 2)

        code, out = run_cli(["bj-audit", "--graph", str(graph_path), "--kmax", "3"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,pairs,satisfied,fraction"
        assert len(lines) == 3

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


class TestAgreement:
    def test_report(self, capsys):
        code, out = run_cli(
            ["agreement", "--p", "3/10", "--trials", "2000", "--seed", "3"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 2000
        assert abs(payload["rate_float"] - 0.58) < 0.05


class TestBfCli:
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
