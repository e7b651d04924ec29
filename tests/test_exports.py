"""Every exported name has a caller.

A name in a ``src/etpf`` module's ``__all__`` must be read by another
definition in ``src/etpf`` or in ``perfbench/``: imports and ``__all__``
lists do not count, nor does a definition reading its own name.  The match
is by name, a bare name or an attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "etpf").glob("*.py"))
# the objective that C9 checks optimize_nu against
REFERENCE_ONLY = {"aggregate_J"}


def is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def names_read(path: Path) -> set:
    """The names each top-level statement of ``path`` reads, but for its own."""
    read = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or is_all(node):
            continue
        own = {getattr(node, "name", None)}
        own |= {t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)}
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else (
                sub.attr if isinstance(sub, ast.Attribute) else None)
            if name is not None and name not in own:
                read.add(name)
    return read


def test_every_export_has_a_caller():
    read = set().union(*map(names_read, MODULES + sorted((ROOT / "perfbench").glob("*.py"))))
    uncalled = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if is_all(node):
                names = set(ast.literal_eval(node.value)) - read - REFERENCE_ONLY
                if names:
                    uncalled[path.name] = sorted(names)
    assert uncalled == {}
