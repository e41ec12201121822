"""Code hygiene of ``src/``, read with the standard library ``ast`` module.

* Every module-level import in ``src/hsuperplane/*.py`` is used in its
  module.  ``__init__.py`` (whose imports are re-exports) and
  ``__future__`` imports are exempt.
* Every module-level function and class in ``src/``, and every method of
  such a class other than the double-underscore ones, is referenced by
  name somewhere in ``src/``, ``tests/`` or ``perfbench/``.  The benchmark
  counts: some public methods, such as ``Element.term_count``, are used
  only there.
* ``algebra.py``, the generic rewriting layer, names no generator: it has
  no string constant ``"h"``.
* No call in ``src/`` normalises a product as ``.normal_form(a * b)``:
  ``Presentation.multiply`` is the one way to do that.
* Every engine name that ``perfbench/tracing.py`` wraps in a span (its
  ``SPANS`` table and the suite functions of ``SUITE_FUNCTIONS``) still
  exists, so a rename cannot silently drop a traced metric.
* Each bound of ``src/``, a module- or class-level constant named
  ``*_CAP`` or ``*_MAX_STEPS``, is printed in README "Rewriting" beside its
  name, with the value it has in the code.
* One function, ``scalar.make_room``, compares a length with a cap, and
  every other use of a ``*_CAP`` constant passes it to ``make_room`` or to
  ``functools.lru_cache``: each bounded memo follows the one rule.
* ``SuperTensor._wrap``, which skips the entry checks, is called only from
  ``SuperTensor.__mul__`` and ``embed``, whose entries come from checked
  tensors, so it cannot spread to a builder of user entries.
* Setting ``_terms`` or ``_hash`` on an ``Element`` raises: the hash an
  element caches stays right only because the element cannot change.
* No code in ``src/`` changes the dict held in an attribute named
  ``_terms`` in place (item assignment, ``del``, ``pop``, ``popitem``,
  ``update``, ``clear`` or ``setdefault``): memo hits hand back stored
  terms, so an element's terms may be shared with a memo.
* ``algebra.linear_extension`` has three callers: ``exterior_d``,
  ``Presentation.act`` and ``AlgebraMorphism.__call__``, which the star
  shares.
* Importing ``hsuperplane.cli`` loads none of ``dataclasses``, ``inspect``,
  ``ast``, ``dis`` and ``tokenize``, and no module in ``src/`` imports them:
  every process that uses the engine would pay about 10 ms to load them.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hsuperplane.algebra import Element

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hsuperplane"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _referenced_names() -> set:
    """Every name, attribute name and imported name in src/, tests/, perfbench/."""
    names = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


@pytest.mark.parametrize(
    "path", [m for m in MODULES if m.name != "__init__.py"], ids=lambda m: m.name
)
def test_module_level_imports_are_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert unused == []


def test_every_definition_is_referenced():
    referenced = _referenced_names()
    unreferenced = []
    for path in MODULES:
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in referenced:
                unreferenced.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (
                        isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("__")
                        and member.name not in referenced
                    ):
                        unreferenced.append(f"{path.name}:{node.name}.{member.name}")
    assert unreferenced == []


def test_algebra_names_no_generator():
    tree = _tree(PACKAGE / "algebra.py")
    named = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "h"
    ]
    assert named == []


def _has_product(node: ast.AST) -> bool:
    """A ``*`` in the arithmetic of ``node``; the arguments of calls are not
    looked into."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.Mult) or _has_product(node.left) or _has_product(node.right)
    return isinstance(node, ast.UnaryOp) and _has_product(node.operand)


def test_no_normal_form_of_a_product():
    calls = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "normal_form"
        and any(_has_product(arg) for arg in node.args)
    ]
    assert calls == []


def _tracing_table(name: str):
    """The literal value assigned to ``name`` in perfbench/tracing.py; for
    ``SPANS``, the literal tuple before its generated suite entries."""
    for node in _tree(ROOT / "perfbench" / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            value = node.value.left if isinstance(node.value, ast.BinOp) else node.value
            return ast.literal_eval(value)
    raise AssertionError(f"perfbench/tracing.py assigns no {name}")


def test_traced_names_exist():
    spans = [(module, owner, attr) for module, owner, attr, _ in _tracing_table("SPANS")]
    spans += [(module, None, fn) for module, fn in _tracing_table("SUITE_FUNCTIONS").values()]
    missing = []
    for module_name, owner, attr in spans:
        module = importlib.import_module(f"hsuperplane.{module_name}")
        scope = vars(module) if owner is None else vars(getattr(module, owner, object))
        if attr not in scope:
            missing.append(".".join(n for n in (module_name, owner, attr) if n))
    assert len(spans) > 20
    assert missing == []


def _bounds() -> dict:
    """Each bound of src/: a module- or class-level assignment to a name
    ending in _CAP or _MAX_STEPS, as name -> (module, class or None)."""
    bounds = {}
    for path in MODULES:
        tree = _tree(path)
        scopes = [(tree, None)]
        scopes += [(node, node.name) for node in tree.body if isinstance(node, ast.ClassDef)]
        for scope, owner in scopes:
            for node in scope.body:
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    name = getattr(target, "id", "")
                    if name.endswith(("_CAP", "_MAX_STEPS")):
                        bounds[name] = (path.stem, owner)
    return bounds


BOUNDS = _bounds()


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_readme_prints_each_bound_as_in_the_code(name):
    module_name, owner = BOUNDS[name]
    scope = importlib.import_module(f"hsuperplane.{module_name}")
    value = getattr(getattr(scope, owner) if owner else scope, name)
    section = (ROOT / "README.md").read_text().split("### Rewriting", 1)[1]
    quoted = rf"`(?:\w+\.)?{name}`"
    # "`Owner.NAME` (1,234)" and "1,234 work units (`NAME`"
    printed = re.findall(rf"{quoted} \(([\d,]+)\)", section)
    printed += re.findall(rf"([\d,]+)[^.()]*\({quoted}", section)
    assert printed
    assert {int(text.replace(",", "")) for text in printed} == {value}


def _name(node: ast.AST) -> str:
    """The identifier a Name or an Attribute node ends in; '' for other nodes."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _is_cap(node: ast.AST) -> bool:
    return _name(node) == "cap" or _name(node).endswith("_CAP")


def test_one_function_bounds_every_memo():
    comparing, other_uses = set(), []
    for path in MODULES:
        tree = _tree(path)
        for func in ast.walk(tree):
            for node in ast.walk(func) if isinstance(func, ast.FunctionDef) else ():
                operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
                if any(map(_is_cap, operands)) and any(
                    isinstance(o, ast.Call) and _name(o.func) == "len" for o in operands
                ):
                    comparing.add(f"{path.stem}.{func.name}")
        passed = {  # caps given to make_room or functools.lru_cache
            id(arg)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and _name(call.func) in ("make_room", "lru_cache")
            for arg in [*call.args, *(k.value for k in call.keywords)]
        }
        other_uses += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _name(node).endswith("_CAP") and isinstance(node.ctx, ast.Load)
            and id(node) not in passed
        ]
    assert comparing == {"scalar.make_room"}
    assert other_uses == []


def _scopes_of(matches) -> set:
    """``module.function`` (``module.Class.method``) of every place in src/
    that holds a node for which ``matches`` is true."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if matches(child):
                found.add(".".join(scope))
            visit(child, scope)

    for path in MODULES:
        visit(_tree(path), [path.stem])
    return found


def _calling_functions(attr: str, skip_owner: str) -> set:
    """Every place in src/ that loads ``attr`` from anything but the name
    ``skip_owner``."""
    return _scopes_of(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == attr
        and _name(node.value) != skip_owner
    )


def test_trusted_tensor_constructor_has_two_callers():
    assert _calling_functions("_wrap", "Element") == {
        "rmatrix.SuperTensor.__mul__",
        "rmatrix.embed",
    }


def test_linear_extension_has_three_callers():
    # d, act and the maps given on generators (the star among them) share
    # the one extension of a word function
    calls = _scopes_of(
        lambda node: isinstance(node, ast.Call) and _name(node.func) == "linear_extension"
    )
    assert calls == {
        "differential.exterior_d",
        "algebra.Presentation.act",
        "algebra.AlgebraMorphism.__call__",
    }


@pytest.mark.parametrize("slot", ["_terms", "_hash"])
def test_element_slots_cannot_be_set(slot):
    element = Element.word(("x",))
    hashed = hash(element)
    with pytest.raises(AttributeError):
        setattr(element, slot, {})
    assert hash(element) == hashed and element == Element.word(("x",))


_MUTATORS = frozenset({"pop", "popitem", "update", "clear", "setdefault"})


def _is_terms(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_terms"


def _terms_mutations(tree: ast.AST) -> list:
    """Line numbers of the in-place changes of an attribute ``_terms``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            found += [t.lineno for t in targets if isinstance(t, ast.Subscript) and _is_terms(t.value)]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
            and _is_terms(node.func.value)
        ):
            found.append(node.lineno)
    return found


def test_terms_scan_sees_each_kind_of_mutation():
    planted = """
e._terms[w] = c
pop(e._terms)
e._terms[w] += c
del e._terms[w]
e._terms.pop(w)
e._terms.update({})
e._terms.clear()
e._terms.setdefault(w, c)
terms = dict(e._terms); terms[w] = c; e._terms.get(w)
"""
    assert _terms_mutations(ast.parse(planted)) == [2, 4, 5, 6, 7, 8, 9]


def test_no_element_terms_are_changed_in_place():
    assert [f"{path.name}:{line}" for path in MODULES for line in _terms_mutations(_tree(path))] == []


_START_UP_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_engine_loads_no_introspection_modules():
    # what the bare interpreter holds before the import is left out: a site
    # hook may preload modules
    script = (
        "import sys; bare = set(sys.modules); import hsuperplane.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    added = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "hsuperplane.cli" in added
    assert [name for name in _START_UP_HEAVY if name in added] == []


def test_no_module_imports_an_introspection_module():
    imports = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.module in _START_UP_HEAVY
        or isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] in _START_UP_HEAVY for alias in node.names)
    ]
    assert imports == []
