"""`tools/bench_pair.summarize` on synthetic run summaries, where the
two trees are exported, how `--compiled` prepares and runs them, what
`--trace` adds, with the runs stubbed, and the trees' `src/` line counts."""

import importlib.util
import io
import json
import tarfile
from pathlib import Path

import pytest

BENCH_PAIR = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", BENCH_PAIR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def summarize(bench_pair):
    return bench_pair.summarize


def _runs(failed, **metrics):
    """One side's run summaries, in `perfbench/run.py`'s last-line layout."""
    return [
        {
            "failed": failed[i],
            "metrics": {
                name: {"value": values[i], "unit": unit} for name, (unit, values) in metrics.items()
            },
        }
        for i in range(len(failed))
    ]


def test_medians_quartile_spread_and_pairs_won(summarize):
    runs = {
        "base": _runs([0, 0, 1, 0], wall_s=("s", [4.0, 1.0, 3.0, 2.0]), rss=("MB", [5, 5, 5, 5])),
        "head": _runs([0, 0, 0, 2], wall_s=("s", [3.0, 1.0, 3.5, 0.5]), rss=("MB", [5, 4, 6, 5])),
    }
    out = summarize(runs)
    assert out["failed"] == {"base": [0, 0, 1, 0], "head": [0, 0, 0, 2]}
    wall = out["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert (wall["base_median"], wall["head_median"]) == (2.5, 2.0)
    # Inclusive quartiles of 1, 2, 3, 4 are 1.75 and 3.25; exclusive ones
    # (1.25 and 3.75) would give 2.5.
    assert wall["base_iqr"] == 1.5
    # Pairs (4, 3) and (2, 0.5) go to the head; the tie (1, 1) to neither side.
    assert wall["head_lower_in_pairs"] == 2
    assert (wall["base"], wall["head"]) == ([4.0, 1.0, 3.0, 2.0], [3.0, 1.0, 3.5, 0.5])
    rss = out["metrics"]["rss"]
    assert (rss["unit"], rss["base_median"], rss["head_median"], rss["base_iqr"]) == ("MB", 5, 5, 0)
    assert rss["head_lower_in_pairs"] == 1  # two ties, one higher, one lower


def test_all_ties_win_no_pair(summarize):
    values = [0.25, 0.5, 0.75, 1.0, 1.25]
    runs = {"base": _runs([0] * 5, wall_s=("s", values)), "head": _runs([0] * 5, wall_s=("s", values))}
    wall = summarize(runs)["metrics"]["wall_s"]
    assert wall["head_lower_in_pairs"] == 0
    assert wall["base_median"] == wall["head_median"] == 0.75
    assert wall["base_iqr"] == 0.5  # inclusive quartiles 0.5 and 1.0


def test_base_and_head_tree_paths_have_equal_length(bench_pair):
    # The path's length alone moves a run's peak resident set.
    assert bench_pair.BASE_TREE.parent == bench_pair.HEAD_TREE.parent
    assert len(str(bench_pair.BASE_TREE)) == len(str(bench_pair.HEAD_TREE))


def _tar_of(text):
    """An archive holding one file, perfbench/run.py, with the given text."""
    data = text.encode()
    out = io.BytesIO()
    with tarfile.open(fileobj=out, mode="w") as tar:
        info = tarfile.TarInfo("perfbench/run.py")
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    return out.getvalue()


def test_base_is_exported_again_when_its_sha_changes(bench_pair, monkeypatch, tmp_path):
    archives = []

    def git(*args):
        if args[0] == "rev-parse":
            return f"{args[2].split('^')[0]}\n".encode()
        archives.append(args[2])
        return _tar_of(f"# {args[2]}\n")

    monkeypatch.setattr(bench_pair, "_git", git)
    monkeypatch.setattr(bench_pair, "BASE_TREE", tmp_path / "base")
    run_py = tmp_path / "base" / "perfbench" / "run.py"
    for rev in ("a" * 40, "a" * 40, "b" * 40):
        (tmp_path / "base" / "stale").mkdir(parents=True, exist_ok=True)
        assert bench_pair.export_base(rev) == (rev, tmp_path / "base")
        assert run_py.read_text() == f"# {rev}\n"
    assert archives == ["a" * 40, "b" * 40]  # the second call reused the first export
    assert not (tmp_path / "base" / "stale").exists()  # the re-export started afresh


def test_compiled_runs_keep_bytecode(bench_pair, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert "PYTHONDONTWRITEBYTECODE" not in bench_pair.run_env(compiled=True)
    assert bench_pair.run_env(compiled=False)["PYTHONDONTWRITEBYTECODE"] == "1"


def test_trees_are_compiled_or_left_as_source(bench_pair, tmp_path):
    module = tmp_path / "pkg" / "mod.py"
    module.parent.mkdir()
    module.write_text("X = 1\n")
    stale = tmp_path / "pkg" / "__pycache__" / "gone.cpython-0.pyc"
    stale.parent.mkdir()
    stale.write_bytes(b"")
    bench_pair.prepare_tree(tmp_path, compiled=True)
    assert not stale.exists()
    assert Path(importlib.util.cache_from_source(str(module))).is_file()
    bench_pair.prepare_tree(tmp_path, compiled=False)
    assert not list(tmp_path.rglob("__pycache__"))


def _stub_runs(bench_pair, monkeypatch, tmp_path):
    """Stub every run, export and git call; the list the runs are logged to."""
    calls = []

    def run_once(tree, workload, seed, env, trace=0):
        calls.append((tree.name, workload, seed, trace))
        fast = tree.name == "head"
        if not trace:
            return {"failed": 0, "metrics": {"wall_s": {"value": 0.9 if fast else 1.0, "unit": "s"}}}
        # Traced values move with the seed: 0.01 s per seed past 5.
        cli_s = (0.07 if fast else 0.11) + (seed - 5) / 100
        metrics = {"cli.self_s": {"value": cli_s, "unit": "s"}}
        if fast:  # a layer only the head binds
            metrics["bj_audit.self_s"] = {"value": 0.08, "unit": "s"}
        return {"failed": 1 if fast else 0, "metrics": metrics}

    monkeypatch.setattr(bench_pair, "run_once", run_once)
    monkeypatch.setattr(bench_pair, "export_base", lambda rev: ("a" * 40, tmp_path / "base"))
    monkeypatch.setattr(bench_pair, "export_working_tree", lambda: tmp_path / "head")
    monkeypatch.setattr(bench_pair, "prepare_tree", lambda tree, compiled: None)
    monkeypatch.setattr(bench_pair, "_git", lambda *args: b"")
    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    return calls


@pytest.mark.parametrize("trace", [False, True])
def test_trace_runs_each_tree_once_after_the_pairs(bench_pair, monkeypatch, tmp_path, trace):
    calls = _stub_runs(bench_pair, monkeypatch, tmp_path)
    argv = ["--pr", "t", "--workload", "graph_cube", "--pairs", "4", "--seed", "5"]
    assert bench_pair.main(argv + ["--trace"] * trace) == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())

    def alternated(seeds, traced):
        return [(side, "graph_cube", seed, traced) for i, seed in enumerate(seeds)
                for side in (("base", "head") if i % 2 == 0 else ("head", "base"))]

    summary = report["workloads"]["graph_cube"]
    assert summary["metrics"]["wall_s"]["head_lower_in_pairs"] == 4
    if not trace:
        assert calls == alternated(range(5, 9), 0)
        assert "traced" not in summary and report["traced"] is None
        return
    # The traced runs are alternated and seeded like the first three pairs.
    assert bench_pair.TRACED_RUNS == 3
    assert calls == alternated(range(5, 9), 0) + alternated(range(5, 8), 1)
    traced = summary["traced"]
    assert traced["failed"] == {"base": [0, 0, 0], "head": [1, 1, 1]}
    assert traced["metrics"]["bj_audit.self_s"] == {
        "unit": "s", "base": None, "head": [0.08] * 3, "base_median": None, "head_median": 0.08,
    }
    cli = traced["metrics"]["cli.self_s"]
    assert cli["base"] == pytest.approx([0.11, 0.12, 0.13])
    assert cli["head"] == pytest.approx([0.07, 0.08, 0.09])
    assert (cli["base_median"], cli["head_median"]) == pytest.approx((0.12, 0.08))
    assert list(traced["metrics"]) == ["bj_audit.self_s", "cli.self_s"]
    assert "--trace 1 --seed 5+i, i < 3" in report["traced"]


def test_src_lines_of_both_trees_are_recorded(bench_pair, monkeypatch, tmp_path, capsys):
    # `cat src/rado_lab/*.py | wc -l`: newlines of the package's own modules,
    # a last line without one not counted, and nothing outside the package.
    files = {
        "base": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\nw", "sub/c.py": "q\n" * 9},
        "head": {"a.py": "x = 1\n", "notes.txt": "t\n" * 5, "../other.py": "o\n" * 7},
    }
    for side, texts in files.items():
        for name, text in texts.items():
            path = tmp_path / side / "src" / "rado_lab" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    _stub_runs(bench_pair, monkeypatch, tmp_path)
    assert bench_pair.main(["--pr", "s", "--workload", "graph_cube", "--pairs", "4"]) == 0
    report = json.loads((tmp_path / "BENCH_s.json").read_text())
    assert report["src_lines"] == {"base": 3, "head": 1}
    assert "src lines: base 3 head 1\n" in capsys.readouterr().out
