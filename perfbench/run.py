"""Layered benchmark of the hsuperplane engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``metrics.json`` records why each was chosen):

* ``verify-cold``   each timed pass is a fresh process running
                    ``hsuperplane verify all --json PATH`` through ``cli.main``;
* ``verify-warm``   repeated ``run_suite("all")`` in one process after one
                    untimed pass has filled the caches;
* ``normalize-mix`` a seeded stream of elements through
                    ``Presentation.normal_form``.

Load is a closed loop from one process and one thread.  Every measurement
runs in a child interpreter (``worker.py``) with a fixed PYTHONHASHSEED that
imports the engine from this checkout's ``src``.  ``--seconds`` fixes how
much work a run times (about that many seconds on the seed commit); every
request is timed several times from the same state and its latency is the
median of those times.  Times are normalised to a reference speed
(``speed.py``): the machine's speed swings by up to a factor of two over
tens of seconds, and a reference workload timed next to each request tracks
those swings.  A run checks every output against its oracle
outside the timed regions, prints a report and, as its last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
repeat of the workload's work in four workers, alternately untraced and
with spans around each layer (``tracing.py``), and reports the first traced
worker's per-layer metrics plus the tracing overhead.  End-to-end numbers
never come from a traced process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from speed import normalised  # noqa: E402
from stats import median, percentile  # noqa: E402
from worker import MIN_REPEATS  # noqa: E402

METRICS = json.loads((HERE / "metrics.json").read_text())
END_TO_END_UNITS = {
    "latency_p95_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
# --seconds fixes the work of a run, so that every run of a workload times
# the same requests: on the seed commit a verify pass takes about COLD_PASS_S
# (cold) or WARM_PASS_S (warm) seconds, and normalize-mix normalises
# MIX_ELEMENTS_PER_S * seconds / MIX_REPEATS elements, MIX_REPEATS times.
# On a slower machine or engine no new repeat starts after REPEAT_CAP times
# --seconds of measuring (once MIN_REPEATS are done).
COLD_PASS_S = 5.0
WARM_PASS_S = 3.0
MIX_ELEMENTS_PER_S = 100
MIX_REPEATS = 3
REPEAT_CAP = 1.25
# set-up probes run before and after the measurement, so that their median
# spans the machine's slower swings in speed
SETUP_PROBES = (5, 4)
RUN_LIMIT_S = 170.0
SHOWN_PROBLEMS = 10


class WorkerError(RuntimeError):
    """A measuring child process failed or ran out of time."""


class Runner:
    """Starts worker processes within the run's time limit."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONHASHSEED=METRICS["environment"]["PYTHONHASHSEED"])

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def worker(self, mode: str, *argv: str) -> dict:
        command = [sys.executable, str(HERE / "worker.py"), mode, *argv]
        try:
            proc = subprocess.run(
                command,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{mode} worker exceeded the run's time limit") from None
        if proc.returncode != 0:
            raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def repeats_for(seconds: int, nominal_s: float) -> int:
    return max(MIN_REPEATS, round(seconds / nominal_s))


def measure_verify_cold(runner: Runner, args, passes: int = 0, trace: bool = False) -> dict:
    passes = passes or repeats_for(args.seconds, COLD_PASS_S)
    reference = oracle.load_reference()
    out = {"repeats": [], "reference_s": [], "attempted": 0, "problems": [], "peak_rss_mb": 0.0}
    deadline = time.monotonic() + REPEAT_CAP * args.seconds
    while len(out["repeats"]) < passes:
        if len(out["repeats"]) >= MIN_REPEATS and time.monotonic() >= deadline:
            break
        path = runner.tmp / f"verify-{len(out['repeats'])}.json"
        argv = ["--json", str(path), "--seed", str(args.seed)] + (["--trace"] if trace else [])
        result = runner.worker("verify-cold", *argv)
        out["repeats"] += result["repeats"]
        out["reference_s"] += result["reference_s"]
        out["peak_rss_mb"] = max(out["peak_rss_mb"], result["peak_rss_mb"])
        for key in ("layers", "spans", "scalar_sample", "scalar_problems"):
            if key in result:
                out[key] = result[key]
        try:
            entries = json.loads(path.read_text())["entries"]
        except (OSError, ValueError, KeyError) as err:
            entries = []
            out["problems"].append(f"no readable report from verify all: {err}")
        checked, problems = oracle.check_verify_entries(entries, reference)
        out["attempted"] += checked
        out["problems"] += problems
        if result["exit_code"] != 0:
            out["problems"].append(f"verify all exited {result['exit_code']}")
    return out


def measure_verify_warm(runner: Runner, args, passes: int = 0, trace: bool = False) -> dict:
    argv = [
        "--repeats", str(passes or repeats_for(args.seconds, WARM_PASS_S)),
        "--limit", str(REPEAT_CAP * args.seconds),
        "--seed", str(args.seed),
    ]
    return runner.worker("verify-warm", *argv + (["--trace"] if trace else []))


def measure_normalize_mix(runner: Runner, args, passes: int = 0, trace: bool = False) -> dict:
    argv = [
        "--count", str(MIX_ELEMENTS_PER_S * args.seconds // MIX_REPEATS),
        "--repeats", str(passes or MIX_REPEATS),
        "--limit", str(REPEAT_CAP * args.seconds),
        "--seed", str(args.seed),
    ]
    return runner.worker("normalize-mix", *argv + (["--trace"] if trace else []))


MEASURE = {
    "verify-cold": measure_verify_cold,
    "verify-warm": measure_verify_warm,
    "normalize-mix": measure_normalize_mix,
}


def _show_problems(problems: list) -> None:
    for problem in problems[:SHOWN_PROBLEMS]:
        print(f"  FAILED: {problem}")
    if len(problems) > SHOWN_PROBLEMS:
        print(f"  ... and {len(problems) - SHOWN_PROBLEMS} more")


def normalised_repeats(measured: dict) -> list:
    """The repeats' wall times rescaled to the reference speed (``speed.py``)."""
    return [
        [normalised(t, r) for t, r in zip(times, references)]
        for times, references in zip(measured["repeats"], measured["reference_s"])
    ]


def request_latencies(repeats: list) -> list:
    """Each request's median time over the repeats of identical work."""
    return [median(times) for times in zip(*repeats)]


def setup_probe(runner: Runner) -> float:
    [[setup_s]] = normalised_repeats(runner.worker("setup"))
    return setup_s


def end_to_end(runner: Runner, args) -> tuple[int, int, dict]:
    before, after = SETUP_PROBES
    setup = [setup_probe(runner) for _ in range(before)]
    measured = MEASURE[args.workload](runner, args)
    setup += [setup_probe(runner) for _ in range(after)]
    latencies = request_latencies(normalised_repeats(measured))
    attempted, failed = measured["attempted"], len(measured["problems"])
    values = {
        "latency_p95_ms": percentile(latencies, 95) * 1000,
        "throughput_per_s": len(latencies) / sum(latencies),
        "setup_s": median(setup),
        "peak_rss_mb": measured["peak_rss_mb"],
        "pass_ratio": 1 - failed / attempted,
    }
    print(
        f"workload {args.workload}, seed {args.seed}: {len(latencies)} distinct requests, "
        f"each timed {len(measured['repeats'])} times"
    )
    print(f"  set-up probes (normalised s): {' '.join(f'{s:.3f}' for s in setup)}")
    print(f"  repeat wall totals (s): {' '.join(f'{sum(r):.3f}' for r in measured['repeats'])}")
    print(
        "  median reference time per repeat (s): "
        + " ".join(f"{median(r):.4f}" for r in measured["reference_s"])
    )
    print(f"  fail_ratio = {failed}/{attempted}")
    _show_problems(measured["problems"])
    for name, value in values.items():
        print(f"  {name:<18} {value:12.4f} {END_TO_END_UNITS[name]}")
    return attempted, failed, {
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()
    }


def traced(runner: Runner, args) -> tuple[int, int, dict]:
    """Per-layer metrics from a traced worker; the tracing overhead compares
    the request times of two traced and two untraced workers."""
    measure = MEASURE[args.workload]
    runs = {False: [], True: []}
    for trace in (False, True, False, True):
        runs[trace].append(measure(runner, args, passes=1, trace=trace))
    plain, spanned = runs[False], runs[True]
    problems, attempted = [], 0
    for run in plain + spanned:
        problems += run["problems"] + run.get("scalar_problems", [])
        attempted += run["attempted"] + run.get("scalar_sample", 0)
    if len({len(run["repeats"][0]) for run in plain + spanned}) > 1:
        raise WorkerError("a traced worker reached its time limit before the untraced work")
    if len({run.get("digest") for run in plain + spanned}) > 1:
        problems.append("traced results differ from untraced results")
    plain_s = sum(request_latencies([normalised_repeats(run)[0] for run in plain]))
    spanned_s = sum(request_latencies([normalised_repeats(run)[0] for run in spanned]))
    overhead = spanned_s / plain_s
    first = spanned[0]
    # layer seconds are rescaled like the requests, by the traced worker's
    # reference time, so that they compare across runs
    scale = normalised(1.0, median(first["reference_s"][0]))
    layers = {
        name: value * scale if METRICS["per_layer"][name]["unit"] == "s" else value
        for name, value in first["layers"].items()
    }
    layers["trace.overhead_ratio"] = overhead

    print(f"workload {args.workload}, seed {args.seed}, traced")
    print(
        f"  median of two, normalised: untraced {plain_s:.3f} s, traced {spanned_s:.3f} s for "
        f"{len(first['repeats'][0])} requests: tracing overhead x{overhead:.3f}"
    )
    print(
        f"  fail_ratio = {len(problems)}/{attempted} "
        f"(including {2 * first['scalar_sample']} scalar operations checked with sympy)"
    )
    _show_problems(problems)
    print(f"  {'per-layer metric':<32} {'value':>14}  unit")
    for name, spec in METRICS["per_layer"].items():
        print(f"  {name:<32} {layers[name]:14.4f}  {spec['unit']}")
    print(f"  {'span (normalised s)':<32} {'calls':>10} {'total s':>10} {'self s':>10}")
    for name, (calls, total_s, self_s) in sorted(first["spans"].items()):
        print(f"  {name:<32} {calls:10d} {total_s * scale:10.3f} {self_s * scale:10.3f}")
    return attempted, len(problems), {
        name: {"value": layers[name], "unit": spec["unit"]}
        for name, spec in METRICS["per_layer"].items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of the hsuperplane engine.")
    parser.add_argument("--workload", required=True, choices=tuple(MEASURE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hsuperplane" / "__init__.py").is_file():
        print(f"error: no engine source at {ROOT / 'src' / 'hsuperplane'}", file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            runner = Runner(Path(tmp))
            attempted, failed, metrics = (traced if args.trace else end_to_end)(runner, args)
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
