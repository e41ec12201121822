"""``hsuperplane.reset``: it empties every cache of the engine, and a pass
after it does the work of a fresh process."""

import functools
import gc
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from hsuperplane import reset, scalar
from hsuperplane.cli import run_suite
from hsuperplane.scalar import ONE, Q, qpow, sc

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def _engine_caches() -> list:
    """Every ``functools`` cache of the engine that the collector can see, at
    module level or not: found without reading ``reset``'s own walk."""
    return [
        o
        for o in gc.get_objects()
        if isinstance(o, functools._lru_cache_wrapper)
        and getattr(o, "__module__", "").partition(".")[0] == "hsuperplane"
    ]


def table_sizes() -> dict:
    """Entry counts of the scalar result tables and of the catalogue's tables;
    it imports what it reads, so its source also runs alone in a subprocess."""
    from hsuperplane import presentations, scalar

    catalogue = [presentations.get_presentation(n) for n in presentations.CATALOGUE_NAMES]
    return {
        "scalar": [len(t) for t in (scalar._PRODUCTS, scalar._SUMS, scalar._NEGATIONS)],
        "products": sum(len(p._products) for p in catalogue),
        "normal forms": sum(len(p._nf_cache) for p in catalogue),
        "d_memo": sum(len(p.d_memo) for p in catalogue),
        "act": sum(len(memo) for p in catalogue for memo in p._act_memo.values()),
    }


def test_reset_empties_every_cache_and_keeps_the_interned_scalars():
    assert run_suite("all").passed
    assert any(cache.cache_info().currsize for cache in _engine_caches())
    reset()
    assert [c for c in _engine_caches() if c.cache_info().currsize] == []
    assert (len(scalar._PRODUCTS), len(scalar._SUMS), len(scalar._NEGATIONS)) == (0, 0, 0)
    assert sc(1) is ONE
    assert Q * Q is qpow(2)


def test_pass_after_reset_does_the_work_of_a_fresh_process():
    # a scalar that dies during a pass is built again with a new serial, so
    # it keys new table entries; one that a test module holds (as
    # test_presentations.C holds 1/(q - 1)) keeps its serial and keys fewer.
    # So the scalar tables are compared in a process that holds none
    source = "\n".join(
        [
            "import json",
            "from hsuperplane import reset",
            "from hsuperplane.cli import run_suite",
            inspect.getsource(table_sizes),
            "run_suite('all')",
            "fresh = table_sizes()",
            "run_suite('all')",
            "reset()",
            "run_suite('all')",
            "print(json.dumps([fresh, table_sizes()]))",
        ]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, env=env, check=True
    )
    fresh, after_reset = json.loads(done.stdout)
    assert after_reset == fresh
    run_suite("all")
    reset()
    report = run_suite("all")
    here = table_sizes()
    del here["scalar"], fresh["scalar"]
    assert here == fresh
    got = re.sub(r'\n  "version": "[^"]*",', "", report.to_json(), count=1)
    assert got == (DATA / "verify_all.json").read_text()
