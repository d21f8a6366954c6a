"""Source-tree lints: failures raise typed errors, never bare asserts, no
module imports dataclasses, and no public name goes unused."""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lexiknot"


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one is no check
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, found


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect and writes the code of every record when
    # its module is imported, which every fresh interpreter pays for
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, found


def test_every_public_name_is_used():
    # a public function, class or method must appear at least once beyond
    # its definition, in the package, its tests or the benchmark
    root = SRC.parents[1]
    text = "\n".join(
        path.read_text() for top in ("src", "tests", "perfbench") for path in sorted((root / top).rglob("*.py"))
    )
    words = Counter(re.findall(r"\w+", text))
    defined = {
        node.name
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    unused = sorted(name for name in defined if words[name] < 2)
    assert not unused, unused
