"""Source-tree lints: failures raise typed errors, never bare asserts."""

import ast
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
