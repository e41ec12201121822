"""Command-line surface: normalization, verification suites, tensors.

Commands
--------
normalize --algebra NAME EXPR   reduce an expression to normal form
verify SUITE [--json PATH]      run a verification suite
limit EXPR                      evaluate a scalar at q = 1
solve-consistency               solve and back-substitute the mixed sector
tensor print NAME [--json]      render a deformation matrix

A presentation file passed with --load (lines ``gen <name> <even|odd>``
and ``rule <lhs> = <element>``) is registered under its file stem and
becomes the default algebra for ``normalize``.  Its ``rule`` lines are
read by ``expr.parse_rule``, which also builds every fixed catalogue entry
from its relation text; a line it rejects, or whose rule the presentation
rejects (a bad left side, a duplicate, mixed parities, a right side not
smaller in the termination order), is reported as ``path:line``.
A file whose rules are not confluent is rejected: each overlap whose two
reductions differ is printed with both normal forms (only the overlap word
when they hold an integer too long to print), and the command exits 1.

Exit codes: 0 on success, 1 on verification failure (including a --load
file that is not confluent), 2 on usage or parse errors.
"""

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from .algebra import AlgebraError, Element, Presentation
from .expr import ExprSyntaxError, UnknownSymbolError, parse_rule, parse_scalar
from .presentations import (
    UnknownPresentationError,
    build_heisenberg,
    coaction_check,
    confluence_report,
    consistency_report,
    contraction_report,
    get_presentation,
    involution_check,
    oscillator_check,
    overlap_text,
    solve_consistency,
)
from .reports import ReportEntry, VerificationReport
from .rmatrix import TENSOR_BUILDERS, regeneration_report, rtt_report, ybe_report
from .differential import dsquared_report, operator_report
from .scalar import DivisionByZero, PoleAtOne


class UnknownSuiteError(ValueError):
    """The requested verification suite does not exist."""


_SUITES = {
    "consistency": consistency_report,
    "contraction": contraction_report,
    "confluence": confluence_report,
    "ybe": ybe_report,
    "rtt": rtt_report,
    "regenerate": regeneration_report,
    "dsquared": dsquared_report,
    "operators": operator_report,
    "coaction": coaction_check,
    "involution": involution_check,
    "heisenberg": lambda: build_heisenberg()[1],
    "oscillator": oscillator_check,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str) -> VerificationReport:
    """Execute one verification suite (or all of them) and return its report."""
    if name == "all":
        combined = VerificationReport("all")
        for sub in _SUITES.values():
            combined.extend(sub())
        return combined
    if name not in _SUITES:
        known = ", ".join(SUITE_NAMES)
        raise UnknownSuiteError(f"unknown suite {name!r}; known: {known}")
    return _SUITES[name]()


def load_presentation(path: str) -> Presentation:
    """Read a presentation file: ``gen`` lines first, then ``rule`` lines."""
    generators = []
    gen_numbers = []
    rule_lines = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise AlgebraError(f"{path}: {err}") from None
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if parts[0] == "gen" and len(parts) == 3 and parts[2] in ("even", "odd"):
            generators.append((parts[1], 0 if parts[2] == "even" else 1))
            gen_numbers.append(number)
        elif parts[0] == "rule" and "=" in line:
            rule_lines.append((number, line[len("rule") :]))
        else:
            raise AlgebraError(f"{path}:{number}: cannot parse {line!r}")
    name = Path(path).stem
    scratch = _build_numbered(
        path, gen_numbers, lambda k: Presentation(name, generators[:k], [])
    )
    relations = []
    for number, text in rule_lines:
        try:
            relations.append(parse_rule(text, scratch))
        except (ExprSyntaxError, UnknownSymbolError, AlgebraError, DivisionByZero) as err:
            raise AlgebraError(f"{path}:{number}: {err}") from None
    return _build_numbered(
        path,
        [number for number, _ in rule_lines],
        lambda k: Presentation(name, generators, relations[:k]),
    )


def _build_numbered(path: str, numbers: list, build) -> Presentation:
    """``build(len(numbers))``, the presentation from every numbered line.

    Some checks see the whole set, so on failure the line named is that of
    the first item rejected together with the items above it.
    """
    try:
        return build(len(numbers))
    except AlgebraError as err:
        failure = err
    number = numbers[-1]
    for k in range(1, len(numbers)):
        try:
            build(k)
        except AlgebraError as err:
            failure, number = err, numbers[k - 1]
            break
    raise AlgebraError(f"{path}:{number}: {failure}") from None


def _report_overlaps(p: Presentation, path: str) -> bool:
    """Print every overlap of ``p`` whose two reductions differ; True if none."""
    report = p.check_confluence()
    for failure in report.failures:
        prefix = f"{path}: rules are not confluent: "
        _print(
            lambda: f"error: {prefix}{overlap_text(p, failure)}",
            sys.stderr,
            f"{prefix}the two reductions of {p.show(Element.word(failure[0]))} hold",
        )
    return report.passed


def _cmd_normalize(args, loaded: Optional[Presentation]) -> int:
    if args.algebra is not None:
        if loaded is not None and args.algebra == loaded.name:
            p = loaded
        else:
            p = get_presentation(args.algebra)
    elif loaded is not None:
        p = loaded
    else:
        p = get_presentation("h-calculus")
    try:
        element = p.normal_form(p.parse(args.expr))
    except UnknownSymbolError as err:
        names = ", ".join(g.name for g in p.generators)
        print(f"error: {err}; valid generators: {names}", file=sys.stderr)
        return 2
    return _print(lambda: p.show(element))


def _run_all_forked() -> VerificationReport:
    """``run_suite("all")``, its suites shared with one forked child.

    Both processes take suite indexes, one byte at a time, from a pipe
    loaded with all of them; the child sends its reports back as
    ``to_dict`` dicts and exits.  Where ``os.fork`` is missing, or threads
    are running (forking them can deadlock), and whenever a suite raises in
    either process or the child exits non-zero or sends too little, the
    whole pass is ``run_suite("all")`` here, so its errors are the same.
    """
    import json
    import threading  # both already loaded with the engine

    if not hasattr(os, "fork") or threading.active_count() > 1:
        return run_suite("all")
    names, suites = list(_SUITES), list(_SUITES.values())
    # dsquared, about half of a cold pass, goes first so it never starts last
    order = sorted(range(len(names)), key=lambda i: names[i] != "dsquared")
    queue, queue_w = os.pipe()
    os.write(queue_w, bytes(order))
    os.close(queue_w)
    results, results_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(results)
            sent = [(i, suites[i]().to_dict()) for i in _taken(queue)]
            with open(results_w, "w", encoding="utf-8") as out:
                json.dump(sent, out)
            code = 0
        finally:
            os._exit(code)
    os.close(results_w)
    reports, received = {}, None
    try:
        for i in _taken(queue):
            reports[i] = suites[i]()
        with open(results, encoding="utf-8", closefd=False) as stream:
            received = json.load(stream)
    except Exception:
        pass  # the pass runs again below, where the error is raised
    finally:
        os.close(queue)
        os.close(results)
        if received is None:
            import signal

            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    if received is not None and status == 0:
        for i, sent in received:
            reports[i] = report = VerificationReport(sent["suite"], sent["presentation"])
            report.entries = [ReportEntry(**entry) for entry in sent["entries"]]
    if len(reports) < len(suites):
        return run_suite("all")
    combined = VerificationReport("all")
    for i in range(len(suites)):
        combined.extend(reports[i])
    return combined


def _taken(queue: int):
    """Suite indexes read one byte at a time from ``queue`` until it is empty."""
    while index := os.read(queue, 1):
        yield index[0]


def _cmd_verify(args) -> int:
    report = _run_all_forked() if args.suite == "all" else run_suite(args.suite)
    print(report)
    if args.json:
        Path(args.json).write_text(report.to_json())
    return 0 if report.passed else 1


def _cmd_limit(args) -> int:
    value = parse_scalar(args.expr)
    try:
        return _print(lambda: str(value.limit_at_one()))
    except PoleAtOne as err:
        print(f"pole at q = 1: {err}", file=sys.stderr)
        return 1


def _print(render, file=None, holder: str = "the result holds") -> int:
    """Print ``render()`` to ``file`` (stdout by default) and return exit code
    0; if it meets an integer too long for ``str``, print ``error: <holder>
    an integer too long to print`` to stderr instead and return 2."""
    try:
        print(render(), file=file)
    except ValueError:
        print(f"error: {holder} an integer too long to print", file=sys.stderr)
        return 2
    return 0


def _cmd_solve_consistency() -> int:
    solution = solve_consistency()
    for name in ("A", "B", "F11", "F12", "F21", "F22"):
        print(f"{name} = {getattr(solution, name)}")
    report = consistency_report()
    print(report)
    return 0 if report.passed else 1


def _cmd_tensor(args) -> int:
    tensor = TENSOR_BUILDERS[args.name]()
    print(tensor.to_json(indent=2) if args.json else tensor.to_grid())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsuperplane",
        description="Noncommutative differential calculus on the h-superplane.",
    )
    parser.add_argument(
        "--load",
        metavar="FILE",
        help="register a presentation file (gen/rule lines) by its file stem",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    normalize = commands.add_parser("normalize", help="reduce to normal form")
    normalize.add_argument("--algebra", metavar="NAME", default=None)
    normalize.add_argument("expr")

    verify = commands.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITE_NAMES)
    verify.add_argument("--json", metavar="PATH", default=None)

    limit = commands.add_parser("limit", help="evaluate a scalar at q = 1")
    limit.add_argument("expr")

    commands.add_parser("solve-consistency", help="solve the mixed sector")

    tensor = commands.add_parser("tensor", help="render a deformation matrix")
    tensor.add_argument("action", choices=("print",))
    tensor.add_argument("name", choices=tuple(TENSOR_BUILDERS))
    tensor.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        loaded = load_presentation(args.load) if args.load else None
        if loaded is not None and not _report_overlaps(loaded, args.load):
            return 1
        if args.command == "normalize":
            return _cmd_normalize(args, loaded)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "limit":
            return _cmd_limit(args)
        if args.command == "solve-consistency":
            return _cmd_solve_consistency()
        if args.command == "tensor":
            return _cmd_tensor(args)
    except (
        ExprSyntaxError,
        UnknownSymbolError,
        UnknownPresentationError,
        UnknownSuiteError,
        AlgebraError,
        DivisionByZero,
        OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
