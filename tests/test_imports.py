"""Every import in a package module is named in that module, and every
module-level private function or class is named somewhere in the package
outside its own definition, every public class and public method of the
package is named by the tests or the benchmark or twice in the package
outside its own definition, and only the modules named below build values
through a trusted constructor.  The ``test`` extra pins the tools CI installs.

No linter ships with the package, so these checks parse each module with
``ast``.  ``__init__.py`` is exempt from the import check (its imports are
re-exports), and so are ``from __future__`` imports.  A private helper
that only tests call belongs in the tests.  Every Python file under
``src``, ``tests`` and ``perfbench`` must parse under the 3.10 grammar.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posetalg"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PYTHON_SOURCES = sorted(
    p.relative_to(ROOT).as_posix() for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")
)


def unused_imports(source):
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - named)


def test_guard_flags_an_unused_import():
    assert unused_imports("import json\nfrom .poset import PosetError, make_poset\nmake_poset()\n") == [
        "PosetError",
        "json",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def _names(node):
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unused_private_helpers(sources):
    """The module-level private functions and classes of the sources that
    no source names outside their own definition."""
    trees = [ast.parse(source) for source in sources]
    everywhere = sum((_names(tree) for tree in trees), Counter())
    helpers = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    return sorted(h.name for h in helpers if everywhere[h.name] == _names(h)[h.name])


def test_guard_flags_a_dead_private_helper():
    used = "def _used():\n    pass\n\n\ndef f():\n    return _used()\n"
    dead = "def _dead(n):\n    return _dead(n - 1) if n else 0\n\n\nclass _Gone:\n    pass\n"
    assert unused_private_helpers([used, dead]) == ["_Gone", "_dead"]


def test_no_dead_private_helpers():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_helpers(sources) == []


def single_use_public_helpers(sources, others):
    """The module-level public classes of the sources, and the public
    methods defined in them, that no other source names and that the
    sources name at most once outside their own definition: a wrapper
    whose one caller could call the code behind it."""
    trees = [ast.parse(source) for source in sources]
    inside = sum((_names(tree) for tree in trees), Counter())
    outside = sum((_names(ast.parse(source)) for source in others), Counter())
    helpers = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                helpers.append(node)
                helpers += [m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return sorted(
        h.name for h in helpers if not outside[h.name] and inside[h.name] - _names(h)[h.name] <= 1
    )


def test_guard_flags_a_single_use_public_helper():
    source = (
        "class Wrapper:\n    def once(self):\n        return self.once() if self else 0\n\n"
        "    def twice(self):\n        return 0\n\n    def tested(self):\n        return 0\n\n"
        "    def _private(self):\n        return 0\n\n\n"
        "def f(w: Wrapper):\n    return w.once() + w.twice() + w.twice()\n"
    )
    assert single_use_public_helpers([source], ["def test_it(w):\n    assert w.tested() == 0\n"]) == [
        "Wrapper",
        "once",
    ]


def test_no_single_use_public_helpers():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    others = [(ROOT / path).read_text() for path in PYTHON_SOURCES if not path.startswith("src/")]
    assert single_use_public_helpers(sources, others) == []


# The trusted constructors skip every check, so each is called only from
# the modules whose constructions prove the value valid.
TRUSTED_CALLERS = {
    "LabelledPoset": {"poset.py", "constructions.py"},
    "PrimePair": {"primon.py"},
    "RepVector": {"toeplitz.py"},
}


def trusted_calls(source):
    """The owner names X of every ``X._trusted`` in the source."""
    nodes = ast.walk(ast.parse(source))
    return {ast.unparse(n.value) for n in nodes if isinstance(n, ast.Attribute) and n.attr == "_trusted"}


def test_guard_finds_trusted_calls():
    source = "from .poset import LabelledPoset\nx = LabelledPoset._trusted((), {}, {})\ny = pa.PrimePair._trusted\n"
    assert trusted_calls(source) == {"LabelledPoset", "pa.PrimePair"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_trusted_constructors_only_in_their_modules(module):
    for owner in trusted_calls((PACKAGE / module).read_text()):
        assert module in TRUSTED_CALLERS.get(owner, ()), f"{module} calls {owner}._trusted"


# An element or counting tuple holds its monoid's name tuple and vector,
# so only the monoid core builds one; everything else asks the monoid.
ELEMENT_CLASSES = {"MonElem", "PhiTuple"}


def element_constructions(source):
    """The element classes called in the source, bare or as an attribute."""
    calls = (n.func for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call))
    names = {getattr(f, "id", None) or getattr(f, "attr", None) for f in calls}
    return names & ELEMENT_CLASSES


def test_guard_finds_element_constructions():
    source = "x = MonElem(names, (1, 0))\ny = pa.primon.PhiTuple(names, vec)\nz = m.reduce({})\nt = MonElem\n"
    assert element_constructions(source) == {"MonElem", "PhiTuple"}
    assert element_constructions("x = m.phi(m.gen('a')).values\n") == set()


@pytest.mark.parametrize("path", [p for p in PYTHON_SOURCES if p != "src/posetalg/primon.py"])
def test_elements_are_built_only_in_the_monoid_core(path):
    assert element_constructions((ROOT / path).read_text()) == set(), path


def test_test_extra_pins_what_ci_installs():
    # the test modules import hypothesis and sympy, so the extra names them
    extra = re.search(r"^test = (\[.*\])$", (ROOT / "pyproject.toml").read_text(), re.M).group(1)
    ci = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    install = re.search(r"pip install (.+)$", ci, re.M).group(1).split()
    assert sorted(ast.literal_eval(extra)) == sorted(install)
    assert {pin.partition("==")[0] for pin in install} == {"pytest", "hypothesis", "sympy"}



# pyproject asks for Python >= 3.10, so every source file is parsed under
# the 3.10 grammar whatever interpreter runs the suite.  This checks syntax
# only (no ``except*``, no PEP 695 type parameters), not stdlib APIs.


def parses_as_python_3_10(source):
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError:
        return False
    return True


def test_guard_flags_newer_grammar():
    assert not parses_as_python_3_10("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert not parses_as_python_3_10("def first[T](xs: list[T]) -> T:\n    return xs[0]\n")
    assert parses_as_python_3_10("match x:\n    case [first, *_]:\n        pass\n")


@pytest.mark.parametrize("path", PYTHON_SOURCES)
def test_sources_parse_as_python_3_10(path):
    assert parses_as_python_3_10((ROOT / path).read_text()), path


# Each input rule has one home: the non-negative-int check and its message
# live in ``poset._require_count``, which every bound, depth, chain length
# and stage index goes through.  The ``\b`` keeps out the count message
# "is not a non-negative integer" of the congruence oracle.
NON_NEGATIVE_INT = r"is not a non-negative int\b"


def functions_saying(sources, pattern):
    """(module, innermost enclosing function) once per string constant of
    the sources that the pattern matches; a constant outside every
    function is listed with None."""
    found = []

    def visit(module, node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(module, child, child.name)
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, str) and re.search(pattern, child.value):
                found.append((module, function))
            visit(module, child, function)

    for module, source in sources.items():
        visit(module, ast.parse(source), None)
    return found


def test_guard_finds_the_functions_saying_a_message():
    source = (
        'NOTE = "n is not a non-negative int"\n\n\n'
        "def outer(n):\n    def inner():\n"
        '        raise ValueError(f"n {n!r} is not a non-negative int")\n\n'
        '    raise ValueError(f"count {n!r} is not a non-negative integer")\n'
    )
    assert functions_saying({"m.py": source}, NON_NEGATIVE_INT) == [("m.py", None), ("m.py", "inner")]


def test_the_non_negative_int_rule_lives_in_one_function():
    sources = {module: (PACKAGE / module).read_text() for module in MODULES}
    assert functions_saying(sources, NON_NEGATIVE_INT) == [("poset.py", "_require_count")]
    primon = ast.parse(sources["primon.py"])
    assert "_check_bound" not in {n.name for n in ast.walk(primon) if isinstance(n, ast.FunctionDef)}
