"""Run one triage-arena CLI invocation in a fresh interpreter and time it.

    python3 stage.py --result R.json [--trace T.json] -- <cli arguments>
    python3 stage.py --probe -- <cli arguments>

The first form calls `triage_arena.cli.main(<cli arguments>)` and writes
its exit code, times, captured stdout and the process's peak RSS to
R.json; with --trace it first wraps the package's public functions (see
tracer.py) and dumps the spans to T.json. The second form stops once the
parser has parsed the arguments and prints time.monotonic(), which is
system-wide on Linux, and the speed scale (below), so the caller can
time interpreter set-up.

Times are reported twice: `wall_s` as measured, and `seconds`, the wall
time scaled to a reference CPU speed. On a shared virtual machine the
speed of a vCPU changes by up to 1.6x within seconds, which makes raw
wall times of the same work differ by 15-30% from run to run. So while
the stage runs, a SIGALRM timer runs a fixed calibration loop in this
process every SAMPLE_INTERVAL_S (about 1% of the time), and
seconds = wall_s * CAL_REF_S / median(calibration times). The loop is
benchmark code, so a change to the program cannot change it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback

CAL_REF_S = 0.0008  # calibration loop time at the reference speed
SAMPLE_INTERVAL_S = 0.1
PROBE_INTERVAL_S = 0.02


def calibration_loop() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(10_000):
        x += i * i
    return time.perf_counter() - start


class SpeedSampler:
    """Times calibration_loop on a wall-clock interval timer, plus once at
    start and stop, so even a short stage has samples."""

    def __init__(self, interval: float):
        self.samples: list[float] = []
        self.interval = interval

    def __enter__(self):
        self.samples.append(calibration_loop())
        signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(calibration_loop()))
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(calibration_loop())

    def scale(self) -> float:
        return CAL_REF_S / statistics.median(self.samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result")
    parser.add_argument("--trace")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    if args.probe:
        with SpeedSampler(PROBE_INTERVAL_S) as sampler:
            from triage_arena import cli

            cli.build_parser().parse_args(cli_args)
            ready = time.monotonic()
        print(repr(ready), repr(sampler.scale()))
        return 0

    from triage_arena import cli

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)

    out, err = io.StringIO(), io.StringIO()
    error = None
    with SpeedSampler(SAMPLE_INTERVAL_S) as sampler:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(cli_args)
        except Exception:
            rc, error = None, traceback.format_exc()
        wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(args.trace)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "rc": rc,
                "seconds": wall_s * sampler.scale(),
                "wall_s": wall_s,
                "speed_samples": len(sampler.samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "error": error,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
