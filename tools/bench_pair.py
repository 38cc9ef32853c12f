"""Alternating before/after benchmark pairs: a base revision against the working tree.

Usage (from the repository root):

    python3 tools/bench_pair.py --base HEAD --pr <pr> --pairs 10 --seed 700
    python3 tools/bench_pair.py --base HEAD~1 --pr <pr> --workload graph_cube --pairs 12
    python3 tools/bench_pair.py --pr <pr> --workload s0_gadget bf_extend --pairs 10
    python3 tools/bench_pair.py --pr <pr> --workload kernel_generic --pairs 12 --compiled
    python3 tools/bench_pair.py --pr <pr> --workload graph_cube --pairs 10 --trace

The base revision is exported with `git archive` into `.bench_build/base`
(a plain tree: no worktree is registered in `.git`; it is exported again
whenever `.bench_build/base.sha` records another revision), and the working
tree's tracked and unignored files are copied into `.bench_build/head`,
so neither side reads `__pycache__` files that earlier runs left beside
the sources.  The two directory names have equal length: the length of a
run's paths alone moves its peak resident set by about 0.2 MB.  For each workload, pair i runs `python3
<tree>/perfbench/run.py --workload W --seed S+i --trace 0` once in each
tree, the base first on even pairs and last on odd ones, so slow drift
of the machine falls on both sides alike.  Each pair uses one seed on
both sides.

The result, `BENCH_<pr>.json` at the repository root, holds for every
workload and end-to-end metric both sides' runs and medians, the
interquartile range of the base runs, and how many pairs the working tree
won (lower is better for every end-to-end metric), plus the failed
command count of every run.  It also records `src_lines`, each tree's
`cat src/rado_lab/*.py | wc -l`, the size figure the ROADMAP quotes, so
the size of `src/` is measured by the same script as its speed.

Each run starts from trees without bytecode caches.  With `--compiled`,
both trees are compiled first (`compileall`) and the runs go without
`PYTHONDONTWRITEBYTECODE`, so their workers load that bytecode instead of
compiling every module from source.  A `peak_rss_mb` difference that shows
without `--compiled` but not with it follows the source text each worker
compiles, not the program's allocations.

With `--trace`, after a workload's pairs each tree also runs `perfbench/run.py
--workload W --seed S+i --trace 1` for the first `TRACED_RUNS` pairs' seeds,
alternated like the pairs, and the record holds both sides' per-layer
metrics from those runs, run by run, and their medians, so it shows in which
layer a saving in the end-to-end metrics lands.  One traced run per side is
not enough: single runs move by tens of percent on code a change does not
touch.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"
BASE_TREE, HEAD_TREE = BUILD / "base", BUILD / "head"  # paths of equal length
WORKLOADS = ("kernel_generic", "graph_cube", "s0_gadget", "bf_extend")
TRACED_RUNS = 3  # traced runs per tree and workload, at the first pairs' seeds


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_base(rev: str) -> tuple[str, Path]:
    """The full sha of `rev` and a plain tree of it in `BASE_TREE`, exported
    unless the sha file beside the tree already names that sha."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    stamp = BASE_TREE.with_name(BASE_TREE.name + ".sha")
    if not (stamp.is_file() and stamp.read_text() == sha):
        shutil.rmtree(BASE_TREE, ignore_errors=True)
        BASE_TREE.mkdir(parents=True)
        with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
            tar.extractall(BASE_TREE, filter="data")
        stamp.write_text(sha)
    return sha, BASE_TREE


def export_working_tree() -> Path:
    """A fresh copy of the working tree's tracked and unignored files."""
    tree = HEAD_TREE
    shutil.rmtree(tree, ignore_errors=True)
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, map(bytes.decode, names)):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is left out
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, tree / name)
    return tree


def prepare_tree(tree: Path, compiled: bool) -> None:
    """Remove the tree's bytecode caches, then compile all of it when `compiled`."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    if compiled and not compileall.compile_dir(tree, quiet=1):
        raise SystemExit(f"compileall failed in {tree}")


def src_lines(tree: Path) -> int:
    """The newline count of the tree's `src/rado_lab/*.py` files, as `cat | wc -l` gives it."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "rado_lab").glob("*.py"))


def run_env(compiled: bool) -> dict:
    """This process's environment, less `PYTHONDONTWRITEBYTECODE` when `compiled`."""
    env = dict(os.environ)
    if compiled:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(tree: Path, workload: str, seed: int, env: dict, trace: int = 0) -> dict:
    """The last stdout line of one `perfbench/run.py` run: its JSON summary.

    The run length is `run.py`'s own default, the same on both sides.
    """
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(argv)} printed nothing:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def alternated_runs(trees: dict[str, Path], workload: str, seeds: list[int], env: dict,
                    trace: int = 0) -> dict[str, list[dict]]:
    """One run per tree and seed; pair i runs the base first when i is even, last when odd."""
    runs = {"base": [], "head": []}
    for i, seed in enumerate(seeds):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            runs[side].append(run_once(trees[side], workload, seed, env, trace))
        if not trace:
            wall = [runs[side][-1]["metrics"]["wall_s"]["value"] for side in ("base", "head")]
            print(f"{workload} pair {i} seed {seed}: wall_s base {wall[0]:.3f} head {wall[1]:.3f}",
                  flush=True)
    return runs


def _quartile_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per-metric runs, medians, base IQR and pairs won, from each side's run summaries."""
    out = {"failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()}, "metrics": {}}
    for name, info in runs["base"][0]["metrics"].items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        out["metrics"][name] = {
            "unit": info["unit"],
            "base_median": statistics.median(base),
            "head_median": statistics.median(head),
            "base_iqr": _quartile_spread(base),
            "head_lower_in_pairs": sum(h < b for b, h in zip(base, head)),
            "base": base,
            "head": head,
        }
    return out


def compare_traced(base: list[dict], head: list[dict]) -> dict:
    """Both sides' metrics, by name, run by run and their median, from each
    side's `--trace 1` run summaries; a metric one side lacks (a layer it
    does not bind) is None there."""
    metrics = {}
    for side, runs in (("base", base), ("head", head)):
        for run in runs:
            for name, m in run["metrics"].items():
                entry = metrics.setdefault(name, {"unit": m["unit"], "base": None, "head": None})
                entry[side] = (entry[side] or []) + [m["value"]]
    for entry in metrics.values():
        for side in ("base", "head"):
            entry[f"{side}_median"] = entry[side] and statistics.median(entry[side])
    return {"failed": {"base": [r["failed"] for r in base], "head": [r["failed"] for r in head]},
            "metrics": dict(sorted(metrics.items()))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", default="HEAD", help="revision to compare the working tree against")
    ap.add_argument("--pr", required=True, help="the BENCH_<pr>.json file to write")
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS + ("all",), default=["all"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=700, help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--compiled", action="store_true",
                    help="compile both trees first and run without PYTHONDONTWRITEBYTECODE")
    ap.add_argument("--trace", action="store_true",
                    help=f"after the pairs, {TRACED_RUNS} --trace 1 runs per tree per workload")
    args = ap.parse_args(argv)
    if args.pairs < 4:
        ap.error("--pairs must be at least 4 for quartiles")

    sha, base_tree = export_base(args.base)
    head_tree = export_working_tree()
    for tree in (base_tree, head_tree):
        prepare_tree(tree, args.compiled)
    env = run_env(args.compiled)
    head = _git("rev-parse", "HEAD").decode().strip()
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no", "--", "src", "perfbench"))
    workloads = WORKLOADS if "all" in args.workload else tuple(args.workload)
    report = {
        "base": sha,
        "head": head + (" plus uncommitted changes" if dirty else ""),
        "command": "perfbench/run.py --trace 0",
        "compiled": args.compiled,
        "traced": (f"perfbench/run.py --trace 1 --seed {args.seed}+i, i < {TRACED_RUNS}, "
                   "alternated like the pairs" if args.trace else None),
        "pairs": args.pairs,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "src_lines": {"base": src_lines(base_tree), "head": src_lines(head_tree)},
        "workloads": {},
    }
    print(f"src lines: base {report['src_lines']['base']} head {report['src_lines']['head']}",
          flush=True)
    trees = {"base": base_tree, "head": head_tree}
    for workload in workloads:
        runs = alternated_runs(trees, workload, report["seeds"], env)
        report["workloads"][workload] = summarize(runs)
        if args.trace:
            traced = alternated_runs(trees, workload, report["seeds"][:TRACED_RUNS], env, trace=1)
            report["workloads"][workload]["traced"] = compare_traced(**traced)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, summary in report["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{workload} {name}: {m['base_median']:.4g} -> {m['head_median']:.4g} {m['unit']} "
                  f"(lower in {m['head_lower_in_pairs']}/{args.pairs}, base IQR {m['base_iqr']:.3g})")
        for name, m in summary.get("traced", {}).get("metrics", {}).items():
            print(f"{workload} traced {name}: median {m['base_median']} -> {m['head_median']} "
                  f"{m['unit']}")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
