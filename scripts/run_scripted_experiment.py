#!/usr/bin/env python3
"""End-to-end scripted experiment.

Generates a batch of cohorts, runs the maximin-aligned scripted agent
against both opponents (neutral baseline and demographically biased),
recomputes metrics, runs the paired statistics, and renders a report.
Everything is deterministic for a fixed seed.
"""

import argparse
import sys
from pathlib import Path

from triage_arena.cli import main as cli


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--batch", type=int, default=50)
    parser.add_argument("--variant", default="standard")
    parser.add_argument("--out", default="out/scripted_experiment")
    args = parser.parse_args(argv)

    base = Path(args.out)
    cohorts = base / "cohorts"
    steps = [
        ["gen-cohorts", "--seed", str(args.seed), "--batch", str(args.batch),
         "--variant", args.variant, "--out", str(cohorts)],
    ]
    for framework, opponent in [("Rawlsian", "biased"), ("Rawlsian", "baseline"),
                                ("Utilitarian", "baseline")]:
        run_dir = base / f"run_{framework.lower()}_{opponent}"
        steps.append(
            ["run", "--cohorts", str(cohorts), "--framework", framework,
             "--opponent", opponent, "--backend", "scripted",
             "--out", str(run_dir)]
            + (["--allow-adversarial"] if opponent == "biased" else [])
        )
        steps.append(["eval", "--transcripts", str(run_dir), "--out", str(run_dir / "eval")])
        steps.append(["stats", "--eval-dir", str(run_dir / "eval"),
                      "--seed", str(args.seed), "--out", str(run_dir / "stats")])
        steps.append(["report", "--run-manifest", str(run_dir / "manifest.json"),
                      "--out", str(run_dir / "report.md")])

    for step in steps:
        print("+ triage-arena " + " ".join(step))
        code = cli(step)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code
    print(f"\nDone. Results under {base}/run_*/stats/results.md")
    return 0


if __name__ == "__main__":
    sys.exit(run())
