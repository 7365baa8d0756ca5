"""Every name a module under ``src/wavetile`` imports is read there.

A name bound by ``import`` or ``from ... import`` (at any depth of the
module) must appear as an ``ast.Name`` somewhere in the same module, or be
listed in its ``__all__`` as a re-export.  ``from __future__`` imports bind
no name and are skipped.
"""

import ast

from test_public_api import PACKAGE, _modules


def _imported(tree):
    """(name, line) per name an import statement of ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The names of the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_read():
    unused = []
    for path, tree in _modules().items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        keep = read | _exported(tree)
        unused += [f"{path.relative_to(PACKAGE)}:{line}: {name}"
                   for name, line in _imported(tree) if name not in keep]
    assert unused == []
