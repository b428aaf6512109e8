"""Static checks of the package source that need no installed linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mlgibbs"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names that `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def unused_private_names(sources):
    """Module-level private names (`_x`) that one of `sources` defines and
    none of them reads, as "module:name" in definition order."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{module}:{n}" for n in names
                       if n.startswith("_") and not n.startswith("__") and n not in read]
    return unused


def unused_public_names(package, readers):
    """Public module-level functions and classes of `package`, and public
    methods and properties of those classes, that none of `readers` reads,
    as "module:name" or "module:Class.name" in definition order. A method
    is read by an attribute or a string literal (a traced function's name),
    a module-level name also by a bare name or an import."""
    names, attrs = set(), set()
    for source in readers:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.alias):
                names.add(n.name.split(".")[-1])
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                attrs.add(n.value)
    unused = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node.name, names | attrs)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m.name, attrs) for m in node.body
                         if isinstance(m, ast.FunctionDef)]
            unused += [f"{module}:{full}" for full, name, read in defs
                       if not name.startswith("_") and name not in read]
    return unused


def test_unused_public_names_found():
    package = {"a": "def f():\n    pass\ndef g():\n    pass\ndef _h():\n    pass\n"
                    "class C:\n    def m(self):\n        pass\n    @property\n"
                    "    def p(self):\n        return 1\n    def __call__(self):\n        pass\n",
               "b": "from .a import f as f2\nclass D:\n    pass\n"}
    # a bare name `m` reads the module-level name, not the method
    readers = [*package.values(), "TRACED = (('a', 'g'),)\nm = C().p\nprint(m)\n"]
    assert unused_public_names(package, readers) == ["a:C.m", "b:D"]


def test_no_unused_public_names():
    package = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    readers = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert unused_public_names(package, readers) == []


def test_unused_private_names_found():
    sources = {"a": "_K = 1\ndef _f():\n    return _K\ndef _g():\n    pass\n",
               "b": "from .a import _f\n_f()\n_h = 2\n"}
    assert unused_private_names(sources) == ["a:_g", "b:_h"]


def test_no_unused_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_private_names(sources) == []


def test_unused_imports_found():
    source = "import os\nimport numpy as np\nfrom fractions import Fraction\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os", "Fraction"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
