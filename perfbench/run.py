"""triage-arena benchmark.

    python3 perfbench/run.py --workload scripted-500|oracle-grid|chat-rag|all \
        [--seed 42] [--seconds 20] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
./src. Each workload (see workloads.py) runs as one closed-loop client
that invokes the CLI stage after stage in fresh processes, so every stage
pays what a user's invocation pays except interpreter set-up, which is
reported separately as setup_s. Whole pipelines repeat while another one
fits in --seconds (at least one runs); stage times are medians over them.

--trace 0 prints every end-to-end metric; --trace 1 runs the pipeline
once untraced and once traced, and prints the per-layer metrics from the
traced one together with the tracing overhead. Every metric is printed
as `name = value unit`; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Outputs,
traces and a result.json per workload are kept under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS, Outcome, check_exit_codes, write_corpus

HERE = Path(__file__).resolve().parent
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
# end-to-end metrics reported for every workload and bounded in BENCHMARK.json
BOUNDED = ("setup_s", "pipeline_s", "peak_rss_mb")
SETUP_PROBES = 5
STAGE_TIMEOUT_S = 150
PROBE_URL = "http://127.0.0.1:9/v1/chat/completions"  # parsed, never contacted


class MockServer:
    """The mock chat endpoint in its own process, stopped by closing its stdin."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "mockchat.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        self.port = int(self.proc.stdout.readline())
        self.url = f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def counts(self) -> dict:
        import urllib.request

        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_stage(root: Path, env, ws: Path, name: str, cli_args, trace_dir: Path | None) -> dict:
    result_path = ws / f"{name}.result.json"
    cmd = [sys.executable, str(HERE / "stage.py"), "--result", str(result_path)]
    if trace_dir is not None:
        cmd += ["--trace", str(trace_dir / f"{name}.json")]
    try:
        proc = subprocess.run(
            cmd + ["--", *cli_args], cwd=root, env=env, capture_output=True, text=True,
            timeout=STAGE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"rc": None, "seconds": float(STAGE_TIMEOUT_S), "wall_s": float(STAGE_TIMEOUT_S),
                "peak_rss_mb": 0.0, "stdout": "", "error": f"timed out after {STAGE_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"rc": None, "seconds": 0.0, "wall_s": 0.0, "peak_rss_mb": 0.0, "stdout": "",
                "error": f"stage launcher exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


def measure_setup(root: Path, env, cli_args) -> float:
    """Median time from spawning a fresh interpreter until the CLI has
    parsed cli_args, at reference speed (see stage.py); one unrecorded
    probe first writes the bytecode cache."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "stage.py"), "--probe", "--", *cli_args],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        ready, scale = map(float, proc.stdout.split()[-2:])
        if i:
            samples.append((ready - start) * scale)
    return statistics.median(samples)


def run_pipeline(workload, root: Path, env, ws: Path, seed: int, traced: bool) -> dict:
    shutil.rmtree(ws, ignore_errors=True)
    ws.mkdir(parents=True)
    trace_dir = ws / "trace" if traced else None
    if trace_dir is not None:
        trace_dir.mkdir()
    inputs = workload.inputs(ws, seed) if workload.inputs else []
    input_results = {name: run_stage(root, env, ws, name, args, None) for name, args, _ in inputs}
    if workload.corpus:
        write_corpus(root, seed, ws / "corpus")
    server = MockServer(env) if workload.server else None
    try:
        stages = workload.stages(ws, seed, server.url if server else None)
        results = {name: run_stage(root, env, ws, name, args, trace_dir) for name, args, _ in stages}
        counts = server.counts() if server else None
    finally:
        if server:
            server.close()
    outcome = workload.check(ws, seed, stages, results, counts)
    check_exit_codes(inputs, input_results, outcome)
    pipeline = {
        "stage_s": {name: results[name]["seconds"] for name, _, _ in stages},
        "wall_s": {name: results[name]["wall_s"] for name, _, _ in stages},
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results.values()),
        "outcome": outcome,
        "server_counts": counts,
    }
    if trace_dir is not None:
        dumps = {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in sorted(trace_dir.glob("*.json"))}
        pipeline["trace"] = tracer.aggregate(dumps.values())
        pipeline["run_trace"] = tracer.aggregate([dumps[workload.run_stage]]) if workload.run_stage else None
    return pipeline


def blas_threads() -> int | None:
    """Threads OpenBLAS will use for numpy's matrix products, if it is the BLAS."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def end_to_end(workload, setup_s: float, pipelines) -> dict[str, float]:
    stage_names = list(pipelines[0]["stage_s"])
    in_pipeline = [name for name in stage_names if name not in workload.side_stages]
    metrics = {"setup_s": setup_s}
    metrics["pipeline_s"] = statistics.median(sum(p["stage_s"][n] for n in in_pipeline) for p in pipelines)
    for name in stage_names:
        metrics[f"{name}_s"] = statistics.median(p["stage_s"][name] for p in pipelines)
    metrics["pipeline_wall_s"] = statistics.median(sum(p["wall_s"][n] for n in in_pipeline) for p in pipelines)
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in pipelines)
    return metrics


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    metrics = tracer.layer_metrics(traced["trace"], traced["run_trace"])
    calls = metrics["agents.chat_generate.calls"]
    counts = traced["server_counts"]
    metrics["agents.chat_generate.attempts_per_call"] = counts["requests"] / calls if counts and calls else 0.0
    stage_s = plain["stage_s"]
    metrics["cli.cmd_run.jobs2_speedup"] = (
        stage_s["run"] / stage_s["run_jobs2"] if "run_jobs2" in stage_s else 0.0
    )
    untraced, with_trace = sum(stage_s.values()), sum(traced["stage_s"].values())
    metrics["trace.overhead_s"] = with_trace - untraced
    metrics["trace.overhead_frac"] = (with_trace - untraced) / untraced
    return metrics


def run_workload(name: str, root: Path, env, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    out = root / ".perfbench_out" / name
    shutil.rmtree(out, ignore_errors=True)
    (out / "tmp").mkdir(parents=True)
    env = dict(env, TMPDIR=str(out / "tmp"))
    setup_s = measure_setup(root, env, workload.stages(out / "probe", seed, PROBE_URL)[0][1])
    pipelines = []
    if trace:
        pipelines.append(run_pipeline(workload, root, env, out / "untraced", seed, False))
        pipelines.append(run_pipeline(workload, root, env, out / "traced", seed, True))
    else:
        started = time.perf_counter()
        while True:
            began = time.perf_counter()
            pipelines.append(run_pipeline(workload, root, env, out / f"p{len(pipelines)}", seed, False))
            now = time.perf_counter()
            if now - started + (now - began) > seconds:
                break

    outcome = Outcome()
    for p in pipelines:
        o = p["outcome"]
        outcome.attempted += o.attempted
        outcome.failed += o.failed
        outcome.problems += o.problems
    digests = {k: v for k, v in pipelines[0]["outcome"].info.items() if k.endswith(("hash", "sha256"))}
    for p in pipelines[1:]:
        for key, value in digests.items():
            outcome.require(p["outcome"].info.get(key) == value, f"{key} changed between pipelines of one run")

    # end-to-end figures never come from a traced pipeline
    e2e = end_to_end(workload, setup_s, pipelines[:1] if trace else pipelines)
    layers = per_layer(pipelines[0], pipelines[1]) if trace else {}
    e2e["failed_frac"] = outcome.failed / outcome.attempted
    result = {
        "workload": name,
        "why": workload.why,
        "load": "one closed-loop client, stages in sequence, --jobs 1 unless named"
        + (", two keep-alive connections to the mock chat server" if workload.server else ""),
        "seed": seed,
        "pipelines": len(pipelines),
        "trace": trace,
        "machine": machine(),
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "outputs": pipelines[0]["outcome"].info,
        "end_to_end": e2e,
        "per_layer": layers,
    }
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def print_result(result: dict) -> None:
    units = {**LAYERS["end_to_end"], **LAYERS["per_layer"]}
    print(f"== {result['workload']} (seed {result['seed']}, {result['pipelines']} pipeline(s), "
          f"trace {'on' if result['trace'] else 'off'}): {result['why']}")
    print(f"   load: {result['load']}; machine: {json.dumps(result['machine'])}")
    for key, value in result["outputs"].items():
        print(f"   output {key}: {value}")
    for section in ("end_to_end", "per_layer"):
        for name, value in result[section].items():
            print(f"   {name} = {value!r} {units[name]['unit']}")
    for problem in result["problems"]:
        print(f"   FAILED CHECK: {problem}")
    print(f"   correct: {result['correct']} ({result['failed']} of {result['attempted']} operations failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "triage_arena" / "cli.py").is_file():
        print(f"error: {root} is not a triage-arena checkout (no src/triage_arena/cli.py)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, root, env, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print_result(result)
    wanted = LAYERS["per_layer"] if args.trace else BOUNDED
    units = {**LAYERS["end_to_end"], **LAYERS["per_layer"]}
    metrics = {}
    for result in results:
        values = result["per_layer" if args.trace else "end_to_end"]
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for name in wanted:
            metrics[prefix + name] = {"value": values[name], "unit": units[name]["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
