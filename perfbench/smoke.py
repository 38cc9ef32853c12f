"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Checks that every workload prints every metric of BENCHMARK.json by name
and with its unit, in both modes, plus the latency of each command it
runs and `failed_frac`; that the tracer restores every function
it wrapped; and that a binding missing from the library gives an absent
metric instead of an error.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def check_metrics_printed() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in sorted(workloads.WORKLOADS):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            assert proc.returncode == 0, f"{w} trace={trace} exited {proc.returncode}:\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}"
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{w} trace={trace}: metrics {sorted(set(got) ^ set(want))} differ"
            printed = {line.split()[2]: line.split()[-1] for line in lines if line.startswith("metric ")}
            listed = dict(want)
            if trace == 0:  # the informational lines: each command's latency, failed_frac
                argv0 = {c.argv[0] for c in workloads.build(w, 1, 0, "tiny", str(ROOT / ".perfbench_out"))}
                listed.update({run.COMMAND_METRICS[a]: "s" for a in argv0})
                listed["failed_frac"] = "ratio"
            for name, unit in listed.items():
                assert printed.get(name) == unit, f"{w} trace={trace}: {name} not printed with unit {unit}"
            print(f"ok  metrics  {w} trace={trace}")


def check_restore() -> None:
    import importlib

    from rado_lab import cli

    originals = {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _, _ in tracing.BINDINGS
    }
    tracer = tracing.Tracer()
    with tracer:
        for (mod, attr), fn in originals.items():
            assert getattr(importlib.import_module(mod), attr) is not fn, f"{mod}.{attr} not wrapped"
        with redirect_stdout(io.StringIO()):
            assert cli.main(["decompose", "builtin:hexagon"]) == 0
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn, f"{mod}.{attr} not restored"
    assert tracer.summarize()["decomposition.linear_isometry_group.self_s"] > 0
    print("ok  restore")


def check_missing_binding() -> None:
    from rado_lab import cli

    bindings = tuple(
        (mod, "no_such_function" if name == "distance_matrix" else attr, name, count)
        for mod, attr, name, count in tracing.BINDINGS
    ) + (("rado_lab.no_such_module", "solve", "lp.solve", None),)
    tracer = tracing.Tracer(bindings)
    with tracer:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["decompose", "builtin:square"]) == 0
    got = tracer.summarize()
    assert "distance_matrix.busy_s" not in got, "metric of a missing binding reported"
    assert "lp.solve.calls" in got and "norm_floor_matrix.busy_s" in got
    assert tracer.missing == ["rado_lab.random_graphs.no_such_function", "rado_lab.no_such_module.solve"]
    print("ok  missing binding")


if __name__ == "__main__":
    check_restore()
    check_missing_binding()
    check_metrics_printed()
    print("smoke test passed")
