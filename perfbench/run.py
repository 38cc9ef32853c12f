"""rado-lab benchmark: README CLI workloads timed end to end, plus a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload kernel_generic --seed 3 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 24 --trace 0

Every round of a workload runs in its own fresh, single-threaded process
(`worker.py`) with fresh inputs made from the workload seed, so the
library's lru_caches never serve a hit that a one-command CLI user would
not get.  `--trace 0` repeats rounds for about `--seconds` seconds and
reports the end-to-end metrics; `--trace 1` runs round 0 once untraced
and twice traced, reports the per-layer metrics of the first traced run,
and fails if the two traced runs disagree on any count.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170
RECORD_ROUNDS = 5

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (  # (name, unit); the contract metrics of --trace 0
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
COMMAND_METRICS = {  # subcommand -> informational per-command latency metric
    "decompose": "decompose_s",
    "sample-graph": "sample_graph_s",
    "bj-audit": "bj_audit_s",
    "check-step-isometry": "check_step_isometry_s",
    "bf-run": "bf_run_s",
    "s0-experiment": "s0_trial_s",
}
PER_LAYER = tuple((m, unit) for m, unit, *_ in tracing.LAYER_METRICS) + (
    ("bf_run.matched_per_step", "ratio"),
    ("cli.bytes_out", "bytes"),
    ("cli.bytes_in", "bytes"),
    ("trace_overhead_s", "s"),
)
COUNT_METRICS = tuple(m for m, unit in PER_LAYER if unit in ("count", "bytes"))


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # One process, one thread: the library's trial pool and numpy's BLAS.
    for var in ("RADO_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, scale: str, deadline: float):
        self.workload, self.seed, self.scale, self.deadline = workload, seed, scale, deadline
        self.env = _worker_env()

    def worker(self, round_: int, trace: int = 0, setup_only: bool = False, spans=None) -> dict:
        tag = f"{self.workload}-r{round_}-t{trace}-{os.getpid()}"
        tmp = OUT / "tmp" / tag
        result = OUT / f"{tag}.json"
        argv = [
            sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--round", str(round_), "--trace", str(trace),
            "--scale", self.scale, "--tmp", str(tmp), "--result", str(result),
        ]
        if spans:
            argv += ["--spans", str(spans)]
        if setup_only:
            argv.append("--setup-only")
        timeout = self.deadline - time.monotonic()
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired(argv, 0)
            proc = subprocess.run(
                argv, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            )
            if proc.returncode != 0:
                raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
            with open(result, encoding="utf-8") as fh:
                return json.load(fh)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker for {tag} overran the {RUN_DEADLINE_S} s deadline") from None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            result.unlink(missing_ok=True)


def _recorded_digests() -> dict:
    if not DIGESTS.exists():
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _failures(rec: dict, reference: list | None, label: str) -> dict[str, str]:
    """Failed commands of one round (raised, exit code, output check, digest), by command."""
    bad = {}
    for i, cmd in enumerate(rec["commands"]):
        why = cmd["error"]
        if why is None and reference is not None:
            want = reference[i]
            if (cmd["rc"], cmd["sha256"]) != (want["rc"], want["sha256"]):
                why = f"output digest {cmd['sha256'][:12]} rc {cmd['rc']} differs from the recorded {want['sha256'][:12]} rc {want['rc']}"
        if why is not None:
            bad[f"{label} round {rec['round']} cmd {i} {cmd['argv'][0]}"] = why.strip()
    return bad


def _print_round(rec: dict, label: str) -> None:
    for i, cmd in enumerate(rec["commands"]):
        print(
            f"digest {rec['workload']} seed={rec['seed']} round={rec['round']} {label} "
            f"cmd={i} {cmd['argv'][0]} rc={cmd['rc']} sha256={cmd['sha256']} "
            f"latency_s={cmd['latency_s']:.4f} measured_s={cmd['measured_s']:.4f}"
        )


def _reference(workload: str, seed: int, scale: str, round_: int) -> list | None:
    if seed != DEFAULT_SEED or scale != "full":
        return None
    rounds = _recorded_digests().get(workload, [])
    return rounds[round_] if round_ < len(rounds) else None


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict, dict, int]:
    """Repeat rounds for about `seconds`; returns metrics, extra metrics, failures, attempted."""
    rounds, failures = [], {}
    t0 = time.monotonic()
    # Stop when the next round would end more than half a round past `seconds`.
    while not rounds or (time.monotonic() - t0) + statistics.median(r["measured_wall_s"] for r in rounds) / 2 <= seconds:
        rec = runner.worker(len(rounds))
        _print_round(rec, "untraced")
        failures.update(_failures(rec, _reference(runner.workload, runner.seed, runner.scale, rec["round"]), "untraced"))
        rounds.append(rec)
    setups = list(rounds)
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.worker(len(setups) % len(rounds), setup_only=True))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    per_command: dict[str, list[float]] = {}
    for r in rounds:
        for c in r["commands"]:
            lat = c["latency_s"]
            if c["argv"][0] == "s0-experiment":
                lat /= int(c["argv"][c["argv"].index("--trials") + 1])
            per_command.setdefault(COMMAND_METRICS[c["argv"][0]], []).append(lat)
    attempted = sum(len(r["commands"]) for r in rounds)
    extra = {name: statistics.median(v) for name, v in per_command.items()}
    extra["measured_wall_s"] = statistics.median(r["measured_wall_s"] for r in rounds)
    extra["measured_setup_s"] = statistics.median(r["measured_setup_s"] for r in setups)
    extra["probe_ms"] = 1000 * statistics.median(r["probe_s"] for r in rounds)
    extra["rounds"] = len(rounds)
    extra["failed_frac"] = len(failures) / attempted
    _print_env(rounds[0])
    return metrics, extra, failures, attempted


def run_traced(runner: Runner) -> tuple[dict, dict, dict, int]:
    """Round 0 untraced, then twice traced; per-layer metrics of the first traced run."""
    base = runner.worker(0)
    _print_round(base, "untraced")
    spans = [OUT / f"spans-{runner.workload}-{k}.tsv" for k in "ab"]
    traced = [runner.worker(0, trace=1, spans=path) for path in spans]
    reference = _reference(runner.workload, runner.seed, runner.scale, 0)
    failures = _failures(base, reference, "untraced")
    for k, rec in enumerate(traced):
        label = f"traced{k}"
        _print_round(rec, label)
        failures.update(_failures(rec, reference, label))
        for i, (a, b) in enumerate(zip(base["commands"], rec["commands"])):
            if (a["rc"], a["sha256"]) != (b["rc"], b["sha256"]):
                failures.setdefault(f"{label} round 0 cmd {i} {b['argv'][0]}", "output differs from the untraced run")
    layers = [dict(rec["layers"]) for rec in traced]
    for rec, lay in zip(traced, layers):
        lay["cli.bytes_out"] = sum(c["bytes_out"] for c in rec["commands"])
        lay["cli.bytes_in"] = sum(c["bytes_in"] for c in rec["commands"])
    differ = []
    for name in COUNT_METRICS:
        a, b = (lay.get(name) for lay in layers)
        if a != b:
            differ.append(f"{name} {a} vs {b}")
    if differ:
        failures["traced1 counts"] = "two traced runs disagree: " + ", ".join(differ)
    metrics = dict(layers[0])
    untraced_s, traced_s = base["measured_wall_s"], traced[0]["measured_wall_s"]
    metrics["trace_overhead_s"] = traced_s - untraced_s
    if traced[0]["missing_bindings"]:
        print("missing bindings (their metrics are absent): " + ", ".join(traced[0]["missing_bindings"]))
    print(f"spans written to {spans[0].relative_to(ROOT)} and {spans[1].relative_to(ROOT)}")
    _print_env(base)
    attempted = len(base["commands"]) * 3 + 1  # three passes, plus the count comparison
    return metrics, {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s}, failures, attempted


def _print_env(rec: dict) -> None:
    print("env " + " ".join(f"{k}={v}" for k, v in rec["env"].items()))


def _units(trace: int) -> dict:
    units = dict(PER_LAYER if trace else END_TO_END)
    units.update({name: "s" for name in COMMAND_METRICS.values()})
    units.update({
        "failed_frac": "ratio", "rounds": "count", "untraced_wall_s": "s", "traced_wall_s": "s",
        "measured_wall_s": "s", "measured_setup_s": "s", "probe_ms": "ms",
    })
    return units


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str, deadline: float):
    runner = Runner(workload, seed, scale, deadline)
    if trace:
        metrics, extra, failures, attempted = run_traced(runner)
    else:
        metrics, extra, failures, attempted = run_untraced(runner, seconds)
    units = _units(trace)
    for name, value in list(metrics.items()) + list(extra.items()):
        print(f"metric {workload} {name} {value!r} {units[name]}")
    for where, why in failures.items():
        print(f"FAIL {workload} {where}: {why}")
    return metrics, failures, attempted, units


def record_digests(workloads_: list[str], deadline: float) -> None:
    """Write digests.json: every command's rc and sha256 for the default seed."""
    recorded = _recorded_digests()
    for w in workloads_:
        runner = Runner(w, DEFAULT_SEED, "full", deadline)
        rounds = []
        for r in range(RECORD_ROUNDS):
            rec = runner.worker(r)
            bad = _failures(rec, None, "recorded")
            if bad:
                raise BenchError("refusing to record failing outputs:\n" + "\n".join(f"{k}: {v}" for k, v in bad.items()))
            _print_round(rec, "recorded")
            rounds.append([
                {"cmd": c["argv"][0], "rc": c["rc"], "sha256": c["sha256"]}
                for c in rec["commands"]
            ])
        recorded[w] = rounds
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--record-digests", action="store_true",
                    help="re-record digests.json for the default seed and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rado_lab" / "cli.py").is_file():
        sys.stderr.write(f"no rado_lab sources under {ROOT / 'src'}; nothing to benchmark\n")
        return 2
    OUT.mkdir(exist_ok=True)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.record_digests:
            record_digests(names, time.monotonic() + 900)
            return 0
        results = {}
        for w in names:
            deadline = time.monotonic() + RUN_DEADLINE_S
            results[w] = run_workload(w, args.seed, args.seconds, args.trace, args.scale, deadline)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    single = len(names) == 1
    metrics, failed, attempted = {}, 0, 0
    for w, (m, failures, att, units) in results.items():
        for name, value in m.items():
            metrics[name if single else f"{w}/{name}"] = {"value": value, "unit": units[name]}
        failed += len(failures)
        attempted += att
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
