"""Every public name of ``wavetile`` has a caller in the package.

A name listed in a module's ``__all__`` must be read (as an ``ast.Name`` or
the attribute of an ``ast.Attribute``) somewhere under ``src/wavetile``, or
be kept below with its reason.  Subpackage and submodule names listed by a
package ``__init__`` are modules, not functions, and are not checked.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wavetile"

# Names that nothing in the package reads, each with the reason it stays.
KEEP = {
    "ExponentTuple": "the Hoelder check of targets that read their exponents as data (ROADMAP)",
    "major_subset_L1": "the L^1 route of the weak dualization of operator outputs (ROADMAP)",
    "distribution_function": "oracle of the weak-norm threshold tests",
    "size_single": "one-interval oracle of the swept size",
    "classical_paraproduct": "convolution-form oracle of the telescoping and tensor paraproducts",
    "literal_disagreement_levels": "records where the paper's printed case table "
                                   "disagrees with the linear system",
    "target_names": "the only public function of bench.targets, a module the "
                    "perfbench layer tracer lists and test_benchmark_hooks "
                    "requires to have one",
}


def _modules():
    return {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}


def _public_names(path, tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names = ast.literal_eval(node.value)
            if path.name == "__init__.py":
                names = [n for n in names if not (path.parent / n).is_dir()
                         and not (path.parent / f"{n}.py").is_file()]
            return names
    return []


def _read_names(trees):
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_every_public_name_is_read_or_kept():
    modules = _modules()
    read = _read_names(modules.values())
    unread = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path, tree in modules.items()
        for name in _public_names(path, tree)
        if name not in read and name not in KEEP
    ]
    assert unread == []


def test_keep_table_holds_only_unread_public_names():
    modules = _modules()
    read = _read_names(modules.values())
    public = {name for path, tree in modules.items() for name in _public_names(path, tree)}
    assert sorted(n for n in KEEP if n in read or n not in public) == []
