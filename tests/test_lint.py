"""Source-tree lints: failures raise typed errors, never bare asserts, and
no public name goes unused."""

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
