"""Source-tree lints: failures raise typed errors, never bare asserts, no
module imports dataclasses, one class holds the immutability protocol,
every public name is used by the package or the benchmark, and only the
report reads the published columns of knots.csv."""

import ast
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


def _bound_names(cls: ast.ClassDef) -> set[str]:
    """The names a class body binds by def or by assignment."""
    out = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            out.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            out.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
    return out


def test_only_the_frozen_base_writes_the_immutability_protocol():
    # records are NamedTuples or subclasses of frozen.Frozen, so the
    # protocol has one copy to read and to fix
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and (path.name, node.name) != ("frozen.py", "Frozen"):
                for name in sorted(_bound_names(node) & {"__setattr__", "__delattr__", "__eq__", "__hash__"}):
                    found.append(f"{path.relative_to(SRC)}:{node.lineno} {node.name}.{name}")
    assert not found, found


def _referenced_names(tree: ast.AST, bare: bool = True) -> Counter:
    """The identifiers a module refers to: names (unless not ``bare``),
    attributes, imported names, and string constants that are
    identifiers (monkeypatched and traced names are written as strings)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and bare:
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out[node.value] += 1
    return out


def _annotated(node: ast.AST, classes: set) -> set:
    """The classes an annotation names: C, "C", Optional[C] or C | None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.Name):
        return {node.id} & classes
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "Optional":
        return _annotated(node.slice, classes)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotated(node.left, classes) | _annotated(node.right, classes)
    return set()


def _typed_uses(tree: ast.Module, classes: set, returns: dict) -> set:
    """The (class, name) pairs a module refers to through a receiver of
    known class: the class itself, self or cls inside it, a name
    annotated as it, built by it or returned by a function annotated to
    return it (``returns``: function name -> classes), or such a call;
    and the dotted strings "Class.name"."""
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in ast.walk(c)}
    functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    top = ast.Module([s for s in tree.body if not isinstance(s, (ast.FunctionDef, ast.ClassDef))], [])
    uses = set()
    for scope in [top] + functions:
        types = {"self": {owner[id(scope)]}, "cls": {owner[id(scope)]}} if id(scope) in owner else {}

        def receiver(node: ast.AST) -> set:
            if isinstance(node, ast.Name):
                return {node.id} & classes or types.get(node.id, set())
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                return {name} & classes or returns.get(name, set())
            return set()

        for node in ast.walk(scope):
            if isinstance(node, ast.arg) and node.annotation is not None:
                types.setdefault(node.arg, set()).update(_annotated(node.annotation, classes))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                types.setdefault(node.target.id, set()).update(_annotated(node.annotation, classes))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        types.setdefault(target.id, set()).update(receiver(node.value))
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute):
                uses.update((c, node.attr) for c in receiver(node.value))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.count(".") == 1:
                c, name = node.value.split(".")
                if c in classes:
                    uses.add((c, name))
    return uses


def test_every_public_name_is_used():
    # a public function, class or method must be referred to by the
    # package or the benchmark, not only by tests, and the imports of an
    # __init__.py only re-export; references are read off the syntax
    # tree, so a common word in a comment or a docstring is no use.  A
    # method name that several classes define is used for one of them
    # only through a receiver of that class (`_typed_uses`), and any other
    # method only through an attribute or a string, never a bare name: a
    # local variable of the same name is no use of the method
    defined, owners = set(), {}  # owners: public method name -> the classes defining it
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("_"):
                        owners.setdefault(stmt.name, set()).add(node.name)
    trees = []
    for top in ("src", "perfbench"):
        for path in sorted((SRC.parents[1] / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            if path.name == "__init__.py":
                tree.body = [s for s in tree.body if not isinstance(s, (ast.Import, ast.ImportFrom))]
            trees.append(tree)
    classes = {c for cs in owners.values() for c in cs}
    returns = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
                returns.setdefault(node.name, set()).update(_annotated(node.returns, classes))
    refs, attrs, typed = Counter(), Counter(), set()
    for tree in trees:
        refs += _referenced_names(tree)
        attrs += _referenced_names(tree, bare=False)
        typed |= _typed_uses(tree, classes, returns)
    shared = {name for name, cs in owners.items() if len(cs) > 1}
    unused = sorted(name for name in defined - owners.keys() if not refs[name])
    unused += sorted(f"{min(cs)}.{name}" for name, cs in owners.items() if name not in shared and not attrs[name])
    unused += sorted(f"{c}.{name}" for name in shared for c in owners[name] if (c, name) not in typed)
    assert not unused, unused


def test_only_the_report_reads_the_published_columns():
    # the catalog's expected results (Chebyshev and lexicographic degrees)
    # are read by the --diff path alone, so no computed value can be one
    # copied from the file
    published = {"degC_b", "degC_c", "lex_b", "lex_c_lo", "lex_c_hi"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path != SRC / "report.py":
            names = _referenced_names(ast.parse(path.read_text(), str(path)))
            found += [f"{path.relative_to(SRC)}: {name}" for name in sorted(published & names.keys())]
    assert not found, found
