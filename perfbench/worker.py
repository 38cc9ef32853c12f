"""One benchmark round in a fresh process.

Sets up one round of a workload (imports the library from the checkout's
`src/` and writes the round's input files), runs its commands in-process
through `rado_lab.cli.main(argv)`, times each one from outside, and
writes a JSON record of the round to `--result`.  With `--trace 1` the
library's public functions are wrapped in spans for the whole round.
`run.py` starts this script; it is not meant to be run by hand.

Untraced rounds report every time twice: as measured, and scaled to a
fixed machine speed by `SpeedProbe` (see there for why).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


# The probe loop and the machine speed the scaled times refer to: on the
# 2-core Xeon VM the benchmark was written on, the loop takes about 3 ms.
PROBE_LOOP = 30_000
PROBE_NOMINAL_S = 0.003
PROBE_PERIOD_S = 0.1
PROBE_MIN_SAMPLES = 10  # a shorter stretch is topped up right after it ends


class SpeedProbe:
    """Samples the machine's speed while the round runs, to scale its times.

    On a shared VM the same command's wall time swings by +-25% over
    seconds to minutes, because the host's load changes; a reference loop
    timed only before and after a command misses most of it.  So a
    SIGALRM timer interrupts the round every PROBE_PERIOD_S seconds and
    times a fixed pure-Python loop (no library code, no allocation that
    outlives it).  A stretch of the round is then reported both as
    measured, with the probe's own time taken out, and scaled by
    PROBE_NOMINAL_S over the mean probe time seen during that stretch.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent inside the probe

    @staticmethod
    def _loop() -> float:
        t = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOP):
            s += i * i % 7
        return time.perf_counter() - t

    def _tick(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        self.samples.append(self._loop())
        self.spent += time.perf_counter() - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        """Open a stretch; one probe now, so every stretch has a sample."""
        self._tick()
        return len(self.samples) - 1, self.spent, time.perf_counter()

    def close(self, mark) -> tuple[float, float]:
        """(measured, scaled) seconds of the stretch opened by `mark`."""
        first, spent, t0 = mark
        measured = time.perf_counter() - t0 - (self.spent - spent)
        while len(self.samples) - first < PROBE_MIN_SAMPLES:
            self._tick()
        return measured, measured * PROBE_NOMINAL_S / statistics.fmean(self.samples[first:])


def _output_bytes(out: str, files) -> bytes:
    """A command's output: its stdout, then each file it wrote, in argv order."""
    blob = out.encode("utf-8")
    for path in files:
        with open(path, "rb") as fh:
            blob += b"\0" + fh.read()
    return blob


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # Traced rounds run without the probe, so their spans hold plain time.
    probe = None if args.trace else SpeedProbe()
    if probe is None:
        return _round(args, None)
    probe.start()
    try:
        return _round(args, probe)
    finally:
        probe.stop()


def _round(args, probe) -> int:
    if probe is not None:
        setup_mark = probe.mark()
    t_setup = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    from rado_lab import cli

    if Path(cli.__file__).resolve().parent != SRC / "rado_lab":
        sys.stderr.write(f"rado_lab imported from {cli.__file__}, not from {SRC}\n")
        return 3
    import workloads

    os.makedirs(args.tmp, exist_ok=True)
    commands = workloads.build(args.workload, args.seed, args.round, args.scale, args.tmp)
    if probe is not None:
        measured_setup_s, setup_s = probe.close(setup_mark)
    else:
        measured_setup_s = setup_s = time.perf_counter() - t_setup

    record = {
        "workload": args.workload, "seed": args.seed, "round": args.round,
        "trace": args.trace, "setup_s": setup_s, "measured_setup_s": measured_setup_s,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "RADO_LAB_THREADS": os.environ.get("RADO_LAB_THREADS"),
        },
        "commands": [],
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            for index, cmd in enumerate(commands):
                record["commands"].append(_run(cli, cmd, index, tracer, probe))
            record["wall_s"] = sum(c["latency_s"] for c in record["commands"])
            record["measured_wall_s"] = sum(c["measured_s"] for c in record["commands"])
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            record["layers"] = tracer.summarize()
            record["missing_bindings"] = tracer.missing
            if args.spans:
                tracer.write(args.spans)
    if probe is not None:
        record["probe_s"] = statistics.median(probe.samples)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


def _run(cli, cmd, index: int, tracer, probe) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    span = tracer.span("cli") if tracer is not None else contextlib.nullcontext()
    if tracer is not None:
        tracer.current_command = index
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mark = probe.mark() if probe is not None else time.perf_counter()
        try:
            with span:
                rc = cli.main(list(cmd.argv))
        except Exception:  # a crash is a failed command, not a failed benchmark
            rc = None
            error = traceback.format_exc()
        if probe is not None:
            measured, latency = probe.close(mark)
        else:
            measured = latency = time.perf_counter() - mark
    stdout, stderr = out.getvalue(), err.getvalue()
    blob = b""
    if error is None:
        try:
            blob = _output_bytes(stdout, cmd.outputs)
            error = cmd.check(rc, stdout, stderr)
            if error and stderr:
                error += f" (stderr: {stderr.strip()[-500:]})"
        except Exception:  # malformed output is a failed check
            error = traceback.format_exc()
    return {
        "argv": list(cmd.argv),
        "rc": rc,
        "latency_s": latency,
        "measured_s": measured,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "bytes_out": len(blob) - len(cmd.outputs),
        "bytes_in": sum(os.path.getsize(p) for p in cmd.inputs),
        "error": error,
    }


if __name__ == "__main__":
    sys.exit(main())
