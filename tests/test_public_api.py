"""Every public name of ``wavetile`` has a caller in the package, and every
defaulted parameter a call that passes it.

A module's public names are those in its ``__all__`` and every top-level
function or class without a leading underscore.  Each must be read (as an
``ast.Name`` or the attribute of an ``ast.Attribute``) somewhere under
``src/wavetile``, or be kept below with its reason.  So must each public
method or property of a public class, kept as ``Class.method``; a method is
read only as the attribute of an ``ast.Attribute``, so a local variable of
the same name does not count.  Subpackage and submodule names listed by a
package ``__init__`` are modules, not functions, and are not checked.

A parameter with a default, of a public function or of a public method of a
public class, must be passed by some call under ``src/wavetile`` whose
callee has the same name (by keyword, or by position at its index), or be
kept below with its reason: a default that nothing overrides is a constant.
Nor may every call that passes it pass the default's own literal: that is a
knob with one value in use.

The tests' direct oracles live in ``tests/oracles.py``; none of their names
may be defined in the package too, so a second copy cannot creep back.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wavetile"
ORACLES = Path(__file__).resolve().parent / "oracles.py"

# Names that nothing in the package reads, each with the reason it stays.
KEEP = {
    "major_subset_L1": "the L^1 route of the weak dualization of operator outputs (ROADMAP)",
    "dualize_weak_via_Lr": "the one-set form of dualize_superlevel_sets and its test oracle",
    "target_names": "the only public function of bench.targets, a module the "
                    "perfbench layer tracer lists and test_benchmark_hooks "
                    "requires to have one",
    "fractional_derivative": "the one-axis oracle of leibniz_sides, which builds "
                             "its derivative fields on each input's band",
    "littlewood_paley": "one projection at one scale, the oracle of the banded "
                        "telescoping and tensor projections and a perfbench "
                        "layer row",
    "tile_scale_coefficients": "the slot sweep over given (scale, freq_index) layers, "
                               "a perfbench layer row; bht_model sweeps through "
                               "its WavePacketFamily",
}


# Defaulted parameters that no call in the package passes, each with the
# reason it stays.
UNPASSED = {
    "exceptional_set(C)": "the tests reach MajorSubsetError through a vanishing constant",
    "major_subset_L1(C)": "the L^1 route of the weak dualization of operator outputs (ROADMAP)",
    "dualize_weak_via_Lr(C)": "the one-set oracle's threshold constant, which the tests vary",
    "littlewood_paley(axis)": "the tests' 2d telescoping and tensor oracles, which "
                              "project along the second axis",
    "fractional_derivative(axis)": "the one-axis oracle of leibniz_sides, which "
                                   "builds its derivative fields on each input's band",
    "main(argv)": "the console script calls main() on sys.argv; the tests pass their own",
}


def _modules():
    return {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}


def _public_names(path, tree):
    """The module's ``__all__`` names, less its submodules, and every other
    top-level function or class whose name has no leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names = ast.literal_eval(node.value)
            if path.name == "__init__.py":
                names = [n for n in names if not (path.parent / n).is_dir()
                         and not (path.parent / f"{n}.py").is_file()]
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_") and node.name not in names]
    return names + defined


def _public_methods(path, tree):
    """(class name, method node) per public method or property of a public
    class of the module."""
    public = set(_public_names(path, tree))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in public:
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield node.name, method


def _read_names(trees):
    """Names read as a bare name or as an attribute."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def _read_attributes(trees):
    """Names read as an attribute: the only way code reaches a method, and
    one that a local variable of the same name cannot fake."""
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


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


def test_every_public_method_is_read_or_kept():
    modules = _modules()
    read = _read_attributes(modules.values())
    unread = [
        f"{path.relative_to(PACKAGE)}: {cls}.{method.name}"
        for path, tree in modules.items()
        for cls, method in _public_methods(path, tree)
        if method.name not in read and f"{cls}.{method.name}" not in KEEP
    ]
    assert unread == []


def test_keep_table_holds_only_unread_public_names():
    modules = _modules()
    names = {name for path, tree in modules.items() for name in _public_names(path, tree)}
    methods = {f"{cls}.{method.name}" for path, tree in modules.items()
               for cls, method in _public_methods(path, tree)}
    read = _read_names(modules.values())
    attributes = _read_attributes(modules.values())
    stale = [n for n in KEEP if (n not in names and n not in methods)
             or (n in names and n in read)
             or (n in methods and n.rpartition(".")[2] in attributes)]
    assert sorted(stale) == []


def _defaulted(fn, offset):
    """(parameter, positional index as a call sees it or None, default node)
    per default."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    out = [(arg.arg, first + i - offset, d)
           for i, (arg, d) in enumerate(zip(pos[first:], args.defaults))]
    out += [(arg.arg, None, d) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d]
    return out


def _defaulted_parameters(modules):
    """{"name(param)" or "Class.method(param)": (callee name, param, index,
    default node)}."""
    out = {}
    for path, tree in modules.items():
        public = set(_public_names(path, tree))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                for param, index, default in _defaulted(node, 0):
                    out[f"{node.name}({param})"] = (node.name, param, index, default)
        for cls, method in _public_methods(path, tree):
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in method.decorator_list)
            for param, index, default in _defaulted(method, 0 if static else 1):
                out[f"{cls}.{method.name}({param})"] = (method.name, param, index, default)
    return out


def _calls(trees):
    """{callee name: [call node]}."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                out.setdefault(name, []).append(node)
    return out


_ANY = object()


def _passed(call, param, index):
    """The argument node ``call`` passes for ``param``, None if it passes
    none, or ``_ANY`` behind a starred or ``**`` argument."""
    for k in call.keywords:
        if k.arg == param:
            return k.value
    if index is not None:
        for i, a in enumerate(call.args):
            if isinstance(a, ast.Starred):
                return _ANY
            if i == index:
                return a
    return _ANY if any(k.arg is None for k in call.keywords) else None


def _passed_arguments(modules):
    """{key: the argument node of each same-named call that passes it}."""
    calls = _calls(modules.values())
    out = {}
    for key, (name, param, index, _) in _defaulted_parameters(modules).items():
        passed = (_passed(call, param, index) for call in calls.get(name, []))
        out[key] = [a for a in passed if a is not None]
    return out


def _unpassed(modules):
    return sorted(key for key, passed in _passed_arguments(modules).items() if not passed)


def _literal(node):
    """The value of a literal argument node, else ``_ANY``."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _ANY


def test_every_defaulted_parameter_is_passed_or_kept():
    assert [key for key in _unpassed(_modules()) if key not in UNPASSED] == []


def test_unpassed_table_holds_only_unpassed_parameters():
    unpassed = set(_unpassed(_modules()))
    assert sorted(key for key in UNPASSED if key not in unpassed) == []


def test_no_passed_default_has_one_value_in_use():
    modules = _modules()
    defaults = {key: _literal(entry[3]) for key, entry in _defaulted_parameters(modules).items()}
    one_value = [
        key for key, passed in _passed_arguments(modules).items()
        if passed and defaults[key] is not _ANY
        and all(_literal(a) == defaults[key] for a in passed)
    ]
    assert sorted(one_value) == []


def _defined(tree, top_level):
    """Names of the functions and classes defined in ``tree``: at the top
    level only, or at any depth (methods and nested functions too)."""
    nodes = tree.body if top_level else ast.walk(tree)
    return {node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_no_oracle_is_defined_in_the_package():
    oracles = _defined(ast.parse(ORACLES.read_text()), top_level=True)
    package = set().union(*(_defined(tree, top_level=False) for tree in _modules().values()))
    assert sorted(oracles & package) == []
