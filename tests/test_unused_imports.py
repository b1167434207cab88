"""No module under ``src/repro`` imports a name at module level that it
never uses, unless the name is a deliberate re-export listed below."""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent

#: ``(module path relative to the package, name)`` pairs imported only so
#: that other code can import them from that module.
REEXPORTS = frozenset({
    ("core/runner.py", "run_one"),
    ("core/sweeps.py", "run_sweep"),
})


def _module_imports(tree):
    """``{bound name: line}`` of the module-level imports, including
    those under a top-level ``if`` (``TYPE_CHECKING``) or ``try``."""
    statements = list(tree.body)
    names = {}
    while statements:
        node = statements.pop()
        if isinstance(node, (ast.If, ast.Try)):
            statements.extend(node.body)
            statements.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return names


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {ast.literal_eval(e) for e in node.value.elts}
    return set()


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.returns is not None):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Every ``Name`` in *tree*, and in the string forward references of
    its annotations (``Optional["Policy"]`` uses ``Policy``)."""
    used = set()
    pending = [tree]
    while pending:
        node = pending.pop()
        used.update(sub.id for sub in ast.walk(node)
                    if isinstance(sub, ast.Name))
        annotations = _annotations(node) if node is tree else [node]
        for annotation in annotations:
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        pending.append(ast.parse(sub.value, mode="eval"))
                    except SyntaxError:
                        pass
    return used


def unused_imports(package=PACKAGE):
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree) | _exported(tree)
        module = path.relative_to(package).as_posix()
        for name, line in _module_imports(tree).items():
            if name not in used and (module, name) not in REEXPORTS:
                found.append(f"{module}:{line}: {name}")
    return found


def test_no_unused_module_level_imports():
    assert unused_imports() == []


def test_every_listed_reexport_is_still_imported():
    for module, name in REEXPORTS:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        assert name in _module_imports(tree), (module, name)


def test_scan_flags_an_unused_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import math\nimport os\nfrom typing import List\n"
        "x: List[int] = [os.sep]\n")
    assert unused_imports(tmp_path) == ["mod.py:1: math"]


def test_scan_reads_string_annotations(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from typing import Optional\n"
        "from a import Policy, Spec, Unused\n"
        "def f(p: Optional[\"Policy\"]) -> \"Optional[Spec]\":\n"
        "    return None\n")
    assert unused_imports(tmp_path) == ["mod.py:2: Unused"]
