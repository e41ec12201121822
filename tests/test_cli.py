"""Command-line interface: parsing, suites, exit codes, file loading."""

import json
import os
import re
import select
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from hsuperplane import cli, differential, expr, rmatrix
from hsuperplane.algebra import AlgebraError, AlgebraMorphism, InvolutionSpec, Presentation
from hsuperplane.cli import (
    SUITE_NAMES,
    UnknownSuiteError,
    load_presentation,
    main,
    run_suite,
)
from hsuperplane.scalar import ScalarQ

DATA = Path(__file__).resolve().parent / "data"


# -- normalize -------------------------------------------------------------------


def test_normalize_plane_relation(capsys):
    code = main(["normalize", "--algebra", "h-calculus", "x*th - th*x - h*x^2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_normalize_exchange_rule(capsys):
    code = main(["normalize", "--algebra", "qh-calculus", "dx*dth"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "q^-1*dth*dx"


def test_normalize_defaults_to_h_calculus(capsys):
    code = main(["normalize", "x*th"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "th*x + h*x^2"


def test_normalize_unknown_algebra(capsys):
    code = main(["normalize", "--algebra", "nowhere", "x"])
    assert code == 2
    assert "unknown presentation" in capsys.readouterr().err


def test_normalize_syntax_error(capsys):
    code = main(["normalize", "x**th"])
    assert code == 2
    assert "offset" in capsys.readouterr().err


def test_normalize_unknown_symbol_lists_generators(capsys):
    code = main(["normalize", "--algebra", "gl-h11", "x*th"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown symbol" in err
    assert "valid generators" in err
    assert "gm" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["normalize", "2^100000"], "error: the result holds an integer too long to print"),
        (["limit", "2^20000"], "error: the result holds an integer too long to print"),
        (["normalize", "7" * 5000], "error: 5000-digit integer too long (at offset 0)"),
    ],
    ids=["normalize-print", "limit-print", "normalize-literal"],
)
def test_integer_too_long_exits_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.out == ""


@pytest.mark.parametrize("command, inner", [("normalize", "x"), ("limit", "q")])
def test_deep_nesting_exits_2(command, inner, capsys):
    assert main([command, "(" * 1000 + inner + ")" * 1000]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: expression nested too deeply (at offset ")
    assert captured.out == ""


# -- verify ----------------------------------------------------------------------


def test_verify_suite_names_are_stable():
    assert set(SUITE_NAMES) == {
        "consistency",
        "contraction",
        "confluence",
        "ybe",
        "rtt",
        "regenerate",
        "dsquared",
        "operators",
        "coaction",
        "involution",
        "heisenberg",
        "oscillator",
        "all",
    }


@pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if s != "all"])
def test_verify_each_suite_passes(suite, capsys):
    code = main(["verify", suite])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_writes_json_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["verify", "ybe", "--json", str(target)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["suite"] == "ybe"
    assert data["passed"] is True
    assert len(data["entries"]) == 5


def test_verify_all_json_matches_golden_report(tmp_path, capsys):
    # data/verify_all.json is the report with its version field left out
    target = tmp_path / "all.json"
    code = main(["verify", "all", "--json", str(target)])
    capsys.readouterr()
    assert code == 0
    got = re.sub(r'\n  "version": "[^"]*",', "", target.read_text(), count=1)
    assert got == (DATA / "verify_all.json").read_text()


def test_verify_all_text_matches_golden_output(capsys):
    # data/verify_all.txt is the printed report, one line per entry
    assert main(["verify", "all"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_all.txt").read_text()


def test_second_verify_all_json_matches_golden_report(tmp_path, capsys):
    # verify all shares its suites with a forked child, so the second pass
    # reads filled tables only for the suites this process ran; the next test
    # checks a pass that is warm throughout
    for k in range(2):
        target = tmp_path / f"all{k}.json"
        assert main(["verify", "all", "--json", str(target)]) == 0
        capsys.readouterr()
        got = re.sub(r'\n  "version": "[^"]*",', "", target.read_text(), count=1)
        assert got == (DATA / "verify_all.json").read_text()


def test_second_run_suite_all_json_matches_golden_report():
    # run_suite stays in one process: its second pass reads the scalar tables
    # and embedding maps the first one filled
    run_suite("all")
    got = re.sub(r'\n  "version": "[^"]*",', "", run_suite("all").to_json(), count=1)
    assert got == (DATA / "verify_all.json").read_text()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_all_forks_one_child_and_reaps_it(monkeypatch, capsys):
    forks = []
    plain_fork = os.fork

    def counted_fork():
        forks.append(1)
        return plain_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    assert main(["verify", "all"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_all.txt").read_text()
    assert forks == [1]
    _assert_no_child_left()


def test_verify_all_reports_a_raising_suite_as_one_process_does(monkeypatch, capsys):
    # whichever process runs the suite, the error is raised again here
    def broken():
        raise AlgebraError("broken suite")

    monkeypatch.setitem(cli._SUITES, "ybe", broken)
    assert main(["verify", "all"]) == 2
    assert capsys.readouterr() == ("", "error: broken suite\n")
    _assert_no_child_left()


def test_verify_all_runs_every_suite_here_when_the_child_dies(monkeypatch, capsys):
    # the child exits 3 at the first suite it takes; this process waits at
    # its own first suite until the child has taken one, then runs the other
    # 11 and, once it sees the exit status, all 12 again
    parent = os.getpid()
    taken, taken_w = os.pipe()
    ran = []

    def dying(suite):
        def run():
            if os.getpid() != parent:
                os.write(taken_w, b"x")
                os._exit(3)
            if not ran:
                assert select.select([taken], [], [], 10)[0]
            ran.append(suite)
            return suite()

        return run

    for name, suite in list(cli._SUITES.items()):
        monkeypatch.setitem(cli._SUITES, name, dying(suite))
    try:
        assert main(["verify", "all"]) == 0
    finally:
        os.close(taken)
        os.close(taken_w)
    assert capsys.readouterr().out == (DATA / "verify_all.txt").read_text()
    assert len(ran) == 11 + 12
    _assert_no_child_left()


def test_verify_all_stays_in_one_process_without_fork(monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    assert main(["verify", "all"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_all.txt").read_text()


def test_verify_all_forks_nothing_while_a_thread_runs(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("forked with a thread running")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert main(["verify", "all"]) == 0
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert capsys.readouterr().out == (DATA / "verify_all.txt").read_text()


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["verify", "nosuite"])
    assert err.value.code == 2


def test_run_suite_all_aggregates():
    report = run_suite("all")
    assert report.passed
    assert len(report.entries) > 100
    with pytest.raises(UnknownSuiteError):
        run_suite("bogus")


def test_second_verify_all_builds_no_presentation(monkeypatch):
    # every presentation the suites use is built once per process, like the
    # catalogue, so a warm pass constructs none
    run_suite("all")
    built = []
    init = Presentation.__init__

    def counting_init(self, name, *args, **kwargs):
        built.append(name)
        init(self, name, *args, **kwargs)

    monkeypatch.setattr(Presentation, "__init__", counting_init)
    assert run_suite("all").passed
    assert built == []


def _calls_during(run, functions) -> Counter:
    """Calls to each of ``functions`` while ``run()`` runs, by qualified name.

    Calls are matched by code object, so a call through any name bound to
    the function counts.
    """
    names = {f.__code__: f.__qualname__ for f in functions}
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts


def test_second_verify_all_rederives_no_input():
    # samples, tensors, generator maps and parsed relations are built once
    # per process; a warm pass only recomputes the verdicts
    inputs = [
        differential.random_form,
        expr.parse_element,
        expr.parse_relation,
        *rmatrix.TENSOR_BUILDERS.values(),
        AlgebraMorphism.__init__,
        InvolutionSpec.__init__,
    ]
    first = run_suite("all")
    reports = []
    counts = _calls_during(lambda: reports.append(run_suite("all")), inputs)
    assert counts == Counter()
    assert reports[0].to_json() == first.to_json()


def test_warm_verify_all_compares_few_scalars(monkeypatch):
    # scalars are interned, so printing tests a coefficient against 1 and -1
    # by identity; a warm pass runs only a handful of ScalarQ.__eq__ calls
    run_suite("all")
    calls = []
    plain_eq = ScalarQ.__eq__

    def counted_eq(self, other):
        calls.append(1)
        return plain_eq(self, other)

    monkeypatch.setattr(ScalarQ, "__eq__", counted_eq)
    for _ in range(3):
        assert run_suite("all").passed
    assert len(calls) <= 20


# -- limit and solve-consistency ---------------------------------------------------


def test_limit_of_removable_singularity(capsys):
    code = main(["limit", "(q^2-1)/(q-1)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_limit_reports_poles(capsys):
    code = main(["limit", "1/(q-1)"])
    assert code == 1
    assert "pole" in capsys.readouterr().err


def test_limit_parse_error(capsys):
    code = main(["limit", "q +"])
    assert code == 2


def test_solve_consistency_prints_solution(capsys):
    code = main(["solve-consistency"])
    out = capsys.readouterr().out
    assert code == 0
    for line in ("A = q^2", "B = 1", "F11 = q", "F12 = q^2-1", "F21 = -q", "F22 = 0"):
        assert line in out
    assert "PASS" in out


# -- tensor rendering --------------------------------------------------------------


def test_tensor_grid(capsys):
    code = main(["tensor", "print", "Kh"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].split() == ["11", "12", "21", "22"]
    assert "-h" in out


def test_tensor_json(capsys):
    code = main(["tensor", "print", "Khat", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["rank"] == 4
    assert data["entries"][3][3] == "-1"


def test_tensor_print_matches_golden_output(capsys):
    # data/tensor_print.txt holds each command line, prefixed with "$ ", and its output
    got = []
    for name in ("P", "Khq", "Kh", "Khat", "Rh"):
        for flags in ([], ["--json"]):
            argv = ["tensor", "print", name, *flags]
            assert main(argv) == 0
            got.append(f"$ hsuperplane {' '.join(argv)}\n{capsys.readouterr().out}")
    assert "".join(got) == (DATA / "tensor_print.txt").read_text()


def test_tensor_rejects_unknown_name():
    with pytest.raises(SystemExit) as err:
        main(["tensor", "print", "Z"])
    assert err.value.code == 2


# -- presentation files ------------------------------------------------------------


def test_load_presentation_round_trip(tmp_path, capsys):
    source = tmp_path / "toy.alg"
    source.write_text(
        "# toy exchange algebra\n"
        "gen u even\n"
        "gen v odd\n"
        "rule v*u = q*u*v\n"
        "rule v*v = 0\n"
    )
    p = load_presentation(str(source))
    assert p.name == "toy"
    assert [g.name for g in p.generators] == ["u", "v"]

    code = main(["--load", str(source), "normalize", "v*u*u"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "q^2*u^2*v"

    code = main(["--load", str(source), "normalize", "--algebra", "toy", "v*v"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_load_rejects_non_confluent_rules(tmp_path, capsys):
    source = tmp_path / "nc.alg"
    source.write_text("gen u even\ngen v even\nrule v*u = 2*u*v\nrule v*v = u\n")
    code = main(["--load", str(source), "normalize", "v*v*u"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "v^2*u reduces to u^2 and to 4*u^2" in captured.err
    assert "v^3 reduces to u*v and to 2*u*v" in captured.err


def test_load_rejects_non_confluent_rules_with_an_unprintable_overlap(tmp_path, capsys):
    # the overlap z*y*x has normal forms holding 2^40000, too long for str()
    source = tmp_path / "huge.alg"
    source.write_text(
        "gen x even\ngen y even\ngen z even\n"
        "rule y*x = 2^20000*x*y\nrule z*x = x*z\nrule z*y = y*z + 2^20000*x*x\n"
    )
    code = main(["--load", str(source), "normalize", "x"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"error: {source}: rules are not confluent: the two reductions of z*y*x"
        " hold an integer too long to print\n"
    )


@pytest.mark.parametrize(
    "lines, number, message",
    [
        (["gen u sideways"], 1, "cannot parse"),
        (["gen u even", "gen v odd", "rule v*u = 2*u*$"], 3, "unexpected character '$'"),
        (["gen u even", "gen v odd", "rule v*u = w"], 3, "unknown symbol 'w'"),
        (["gen u even", "rule u*u = (q - q)^-1*u"], 2, "zero scalar to a negative power"),
        (["gen u even", "gen v odd", "rule u = u*u"], 3, "rule lhs must have length 2"),
        (["gen u even", "rule u*u = 2*u", "rule u*u = 3*u"], 3, "duplicate rule"),
        (["gen u even", "gen v odd", "rule v*u = u*v + u"], 3, "mixes parities"),
        (
            ["gen u even", "gen a odd", "gen b odd", "rule b*a = a*b", "rule u*u = a*b"],
            5,
            "not smaller in the termination order",
        ),
        (["gen u even", "gen u odd"], 2, "duplicate generator name"),
        (["gen q even"], 1, "bad generator name 'q'"),
        (["gen u even", "rule u*u = u^²"], 2, "unexpected character '²'"),
        (["gen u even", "rule u*u = " + "7" * 5000 + "*u"], 2, "5000-digit integer too long"),
        (["gen u even", "rule u*u = " + "(" * 1000 + "u" + ")" * 1000], 2, "nested too deeply"),
    ],
    ids=[
        "gen",
        "rule-syntax",
        "rule-symbol",
        "rule-zero-power",
        "rule-shape",
        "rule-duplicate",
        "rule-parity",
        "rule-order",
        "gen-duplicate",
        "gen-reserved",
        "rule-unicode-digit",
        "rule-long-literal",
        "rule-nested",
    ],
)
def test_load_rejects_malformed_lines(tmp_path, capsys, lines, number, message):
    source = tmp_path / "bad.alg"
    source.write_text("\n".join(lines) + "\n")
    code = main(["--load", str(source), "normalize", "u"])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert f"error: {source}:{number}: " in err


def test_load_rejects_composite_left_side(tmp_path, capsys):
    source = tmp_path / "bad2.alg"
    source.write_text("gen u even\nrule u + u = u\n")
    code = main(["--load", str(source), "normalize", "u"])
    assert code == 2


def test_missing_load_file(capsys):
    code = main(["--load", "/no/such/file.alg", "normalize", "x"])
    assert code == 2


def test_load_file_not_utf8(tmp_path, capsys):
    source = tmp_path / "latin1.alg"
    source.write_bytes("gen \xfc even\n".encode("latin-1"))
    code = main(["--load", str(source), "normalize", "x"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source}: ")
    assert "can't decode" in err


# -- end-to-end --------------------------------------------------------------------


def test_module_entry_point_runs():
    root = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-m", "hsuperplane.cli", "verify", "oscillator"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0
    assert "PASS" in done.stdout
