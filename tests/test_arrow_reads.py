"""Only the code that needs one map per arrow walks a quiver's arrows.

A quiver is its matrix of arrow counts, and every structural map reads
that matrix.  ``Quiver.arrows`` expands it into one entry per arrow, so a
read costs as much as the arrows are many: ``kronecker<b>`` has b of
them.  Under ``src/clusterscatter`` it is read only where a representation
holds one matrix per arrow; a new reader must be added to ``PER_ARROW``.
"""

import ast
from pathlib import Path

import clusterscatter

SOURCE = Path(clusterscatter.__file__).parent
PER_ARROW = {
    ("quiver", "ExplicitRep.__new__"),
    ("quiver", "indecomposable_rep"),
    ("quiver", "subrep_count"),
}


def _scopes(tree: ast.Module):
    """Each top-level function, each method as ``Class.method``, and every
    other statement as ``<module>`` or its class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member
                else:
                    yield node.name, member
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node
        else:
            yield "<module>", node


def test_arrows_are_read_only_where_one_map_per_arrow_is_built():
    readers = set()
    for path in SOURCE.glob("*.py"):
        for label, scope in _scopes(ast.parse(path.read_text())):
            if any(
                isinstance(sub, ast.Attribute) and sub.attr == "arrows"
                for sub in ast.walk(scope)
            ):
                readers.add((path.stem, label))
    assert readers == PER_ARROW
