"""What a fresh interpreter loads when it imports the package."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _new_modules(imports: str) -> set[str]:
    """The modules a fresh interpreter loads for `imports`, beyond those
    it had already loaded at start."""
    code = (
        f"import json, sys; sys.path.insert(0, {str(SRC)!r}); before = set(sys.modules); "
        f"{imports}; print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    return set(json.loads(out))


def test_cli_import_leaves_the_curve_lab_out():
    loaded = _new_modules("import lexiknot.cli")
    assert "lexiknot.cli" in loaded
    assert not {m for m in loaded if m.startswith("lexiknot.curvelab")}


def test_package_import_needs_neither_dataclasses_nor_inspect():
    # the set-up of a benchmark worker: dataclasses brings inspect, ast, dis
    # and tokenize along, and writes the code of every record at import
    loaded = _new_modules("import lexiknot.cli, lexiknot.curvelab")
    assert "lexiknot.curvelab.curves" in loaded
    assert not loaded & {"dataclasses", "inspect"}
