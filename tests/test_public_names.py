"""Every public top-level function and class of ``src/fickit`` has a
reader outside its own definition, or is on a list that only shrinks.

A reader is an ``ast.Name`` or ``ast.Attribute`` naming it in
``src/fickit``, an entry of ``fickit.__all__``, a console entry point
of ``pyproject.toml``, or a name or attribute in
``tests/test_acceptance.py``. Strings and docstrings are not readers:
a text search would count the CSV header strings "aic", "bic" and
"fic" as readers of the functions of those names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public names with no reader yet, each with the ROADMAP item that will
# read or delete it.
UNREAD = {
    "analytic.coordinate_complexities":
        "item 7 reads it, or else item 9 deletes it",
    "analytic.error_statistic_correlation":
        "item 7 reads it, or else item 9 deletes it",
    "criteria.bootstrap_complexity": "item 8 reads it",
    "criteria.loocv": "item 8 reads it",
    "criteria.aic": "named in pyproject's description; not in item 9",
    "criteria.bic": "named in pyproject's description; not in item 9",
    "criteria.fic": "named in pyproject's description; not in item 9",
}


def _names_read(tree: ast.AST, skip: ast.AST = None) -> set:
    """Every name and attribute read in ``tree``, outside ``skip``."""
    read, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return read


def _entry_points() -> set:
    """The function names of pyproject's ``[project.scripts]``."""
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    start = lines.index("[project.scripts]") + 1
    names = set()
    for line in lines[start:]:
        if line.startswith("["):
            break
        if "=" in line:
            names.add(line.split("=", 1)[1].strip().strip('"').split(":")[1])
    return names


def _unread() -> set:
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "fickit").glob("*.py"))}
    outside = set(ast.literal_eval(next(
        node.value for node in trees["__init__"].body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets))))
    outside |= _entry_points()
    outside |= _names_read(ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text()))
    unread = set()
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in outside):
                continue
            if not any(node.name in _names_read(other, skip=node)
                       for other in trees.values()):
                unread.add(f"{module}.{node.name}")
    return unread


def test_every_public_name_has_a_reader():
    assert sorted(_unread() - set(UNREAD)) == []


def test_the_unread_list_only_shrinks():
    # A listed name that gains a reader leaves the list.
    assert sorted(set(UNREAD) - _unread()) == []
