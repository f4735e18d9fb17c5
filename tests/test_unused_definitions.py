"""Every definition in the package is used by the package itself.

A top-level function or class, or a method not named ``__*__``, that
nothing under ``src/clusterscatter`` references is code that only tests
call, or that nothing calls: wire it into the program or delete it.
References inside the definition itself (recursion) do not count.  The
console-script entry point ``cli.main`` is the one exemption.  Likewise,
every name a test module imports from the package is read in that
module, and no test module imports another: shared test code lives in the
``*_oracle.py`` reference modules.
"""

import ast
from collections import Counter
from pathlib import Path

import clusterscatter

SOURCE = Path(clusterscatter.__file__).parent
EXEMPT = {("cli", "main")}


def _referenced_names(node: ast.AST) -> Counter:
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_definition_is_referenced_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCE.glob("*.py")}
    references = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [
                    (f"{node.name}.{m.name}", m) for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
            for label, member in members:
                own = _referenced_names(member)[member.name]
                if (module, label) not in EXEMPT and references[member.name] <= own:
                    unused.append(f"{module}.{label}")
    assert not unused, "referenced nowhere in the package: " + ", ".join(unused)


def test_every_name_a_test_imports_from_the_package_is_read():
    unread = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "clusterscatter"
            ):
                unread += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name) not in read
                ]
    assert not unread, "imported from the package and never read: " + ", ".join(unread)


def test_no_test_module_imports_another():
    imports = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0].startswith("test_")]
    assert not imports, "test modules import test modules: " + ", ".join(imports)
