"""One measurement in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/worker.py MODE [--seed N] [--repeats K] [--limit S]
                                     [--count N] [--json PATH] [--trace]

``verify-warm`` and ``normalize-mix`` time their work ``--repeats`` times,
each time from the same state.  After ``--limit`` seconds of measuring no
new repeat starts once MIN_REPEATS are done, which bounds a run on a slow
machine or a slow engine.

MODE is ``setup``, ``verify-cold``, ``verify-warm`` or ``normalize-mix``.
The engine is imported from the checkout's ``src`` directory.  Every mode
first imports it and builds the 8 catalogue presentations (the set-up);
``setup`` times only that.  Next to each request's wall time the worker
reports the time of the reference workload in ``speed.py``, measured right
before and after the request (in normalize-mix, the chunk of requests).
With ``--trace`` the layer spans are installed after the import; without it
``tracing`` is never imported, so untraced measurements run unwrapped code.
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import mix  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402

SCALAR_SAMPLE = 200
MIN_REPEATS = 2
# normalize-mix times the reference workload between chunks of this many
# elements: the machine's speed changes within the seconds a repeat takes
REFERENCE_EVERY = 40


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _Untraced:
    """Stand-in for a tracer when the run is not traced."""

    active = False

    def enter(self, name: str) -> None:
        pass

    def exit(self) -> None:
        pass


def set_up(trace: bool, seed: int):
    """Import every engine module and build the catalogue; returns (tracer, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import hsuperplane
    import hsuperplane.cli  # noqa: F401  (imports every engine module)
    from hsuperplane.presentations import CATALOGUE_NAMES, get_presentation

    if not Path(hsuperplane.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"hsuperplane imported from {hsuperplane.__file__}, not {SRC}")
    tracer = _Untraced()
    if trace:
        import tracing

        tracer = tracing.Tracer(sample_size=SCALAR_SAMPLE, seed=seed)
        tracing.install(tracer)
        tracer.active = True
    for name in CATALOGUE_NAMES:
        tracer.enter("presentations.build")
        get_presentation(name)
        tracer.exit()
    return tracer, time.perf_counter() - start


def verify_cold(args, tracer) -> dict:
    from hsuperplane import cli

    before = speed.reference_seconds()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "all", "--json", args.json])
    elapsed = time.perf_counter() - start
    reference_s = (before + speed.reference_seconds()) / 2
    return {"repeats": [[elapsed]], "reference_s": [[reference_s]], "exit_code": code}


def verify_warm(args, tracer) -> dict:
    from hsuperplane.cli import run_suite

    reference = oracle.load_reference()
    tracer.active = False
    run_suite("all")
    times, references, attempted, problems = [], [], 0, []
    deadline = time.perf_counter() + args.limit
    while len(times) < args.repeats and (
        len(times) < MIN_REPEATS or time.perf_counter() < deadline
    ):
        before = speed.reference_seconds()
        tracer.active = True
        start = time.perf_counter()
        report = run_suite("all")
        times.append(time.perf_counter() - start)
        tracer.active = False
        references.append([(before + speed.reference_seconds()) / 2])
        checked, found = oracle.check_verify_entries(report.to_dict()["entries"], reference)
        attempted += checked
        problems += found
    return {
        "repeats": [[t] for t in times],
        "reference_s": references,
        "attempted": attempted,
        "problems": problems,
    }


# public builders of the presentations the stream uses; each repeat of the
# stream normalises into freshly built ones, so every repeat starts from the
# same empty normal-form caches
BUILDERS = {
    "qh-calculus": "build_qh_rules",
    "h-calculus": "build_h_calculus",
    "gl-h11": "build_gl_h11",
    "coaction-product": "build_coaction_product",
    "q-oscillator": "build_q_oscillator",
}


def normalize_mix(args, tracer) -> dict:
    """Normalise a prefix of the seeded stream ``--repeats`` times.

    The first repeat normalises ``--count`` elements, or fewer if it reaches
    ``--limit`` seconds; later repeats normalise the same elements again.
    Each repeat builds its presentations afresh, so it starts from empty
    normal-form caches; the builds count towards the limit.
    """
    from hsuperplane import presentations
    from hsuperplane.algebra import Element
    from hsuperplane.expr import parse_scalar

    tracer.active = False
    coefficients = [parse_scalar(text) for text in mix.COEFFICIENTS]
    stream = mix.MixStream(args.seed)
    source = iter(stream)
    elements, repeats, references, digests = [], [], [], []
    deadline = time.perf_counter() + args.limit
    for repeat in range(args.repeats):
        if repeat >= MIN_REPEATS and time.perf_counter() >= deadline:
            break
        algebras = {name: getattr(presentations, b)() for name, b in BUILDERS.items()}
        times, results = [], []
        samples = [speed.reference_seconds()]
        tracer.active = True
        for index in itertools.count():
            if index == len(elements):
                if repeat or index >= args.count or time.perf_counter() >= deadline:
                    break
                name, terms = next(source)
                elements.append((name, Element({w: coefficients[i] for w, i in terms})))
            if index and index % REFERENCE_EVERY == 0:
                samples.append(speed.reference_seconds())
            name, element = elements[index]
            p = algebras[name]
            start = time.perf_counter()
            try:
                result = p.normal_form(element)
            except Exception as err:  # a raising element is a failed check, not a crash
                result = f"{type(err).__name__}: {err}"
            times.append(time.perf_counter() - start)
            results.append((p, element, result))
        tracer.active = False
        samples.append(speed.reference_seconds())
        # each element takes the reference times on either side of its chunk
        references.append(
            [(samples[i // REFERENCE_EVERY] + samples[i // REFERENCE_EVERY + 1]) / 2
             for i in range(len(times))]
        )
        repeats.append(times)
        digests.append(hash(tuple(hash(r) for _, _, r in results)))
        if repeat == 0:
            first = results
    problems = [f"{p.name}: {r}" for p, _, r in first if isinstance(r, str)]
    if len(set(digests)) > 1:
        problems.append("repeats from fresh presentations gave different results")
    if not args.trace:
        rightmost: dict = {}
        for p, element, result in first:
            if not isinstance(result, str):
                found = oracle.check_normal_form(p, element, result, rightmost)
                if found is not None:
                    problems.append(found)
    return {
        "repeats": repeats,
        "reference_s": references,
        "attempted": len(elements),
        "problems": problems,
        "digest": digests[0],
    }


MODES = {
    "verify-cold": verify_cold,
    "verify-warm": verify_warm,
    "normalize-mix": normalize_mix,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup",) + tuple(MODES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--limit", type=float, default=60.0)
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--json", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    before = speed.reference_seconds()
    tracer, setup_s = set_up(args.trace, args.seed)
    if args.mode == "setup":
        out = {"repeats": [[setup_s]], "reference_s": [[(before + speed.reference_seconds()) / 2]]}
    else:
        out = MODES[args.mode](args, tracer)
    out["peak_rss_mb"] = peak_rss_mb()
    if args.trace:
        import tracing

        out["layers"] = tracing.layer_metrics(tracer)
        out["spans"] = tracer.spans
        out["scalar_sample"] = len(tracer.sample)
        out["scalar_problems"] = oracle.check_scalar_sample(tracer.sample)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
