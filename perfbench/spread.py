"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]
                                [--out FILE]

For each metric it prints the median of the runs and the distance between
the first and third quartile as a share of the median, the figure a
metric's bound in BENCHMARK.json must cover.  ``--out`` also writes every
run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import median, relative_spread  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", "0",
            ],
            cwd=HERE.parent,
            capture_output=True,
            text=True,
            check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)
    print(f"{args.workload}: {len(results)} runs")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        spread = relative_spread(values) if len(values) > 1 and median(values) else 0.0
        print(f"  {name:<28} median {median(values):12.4f}  spread {spread:.4f}")
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
