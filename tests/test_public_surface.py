"""The stable public surface: the names exported by the package, the
command-line contract (subcommands and check targets), no library
definition that nothing reaches and no optional parameter that nothing
sets."""

import argparse
import ast
import copy
import importlib
import importlib.util
from pathlib import Path

import causal_fields
from causal_fields.cli import _build_parser

PUBLIC_NAMES = {
    "FieldTheory",
    "PartitionedCCAConfig",
    "ProcMorphism",
    "ProcObject",
    "ProcState",
    "Report",
    "SliceCategory",
    "build_cca",
    "build_explicit",
    "build_reversal",
    "cca",
    "dirac_config",
    "dirac_scattering",
    "errors",
    "field_theory",
    "foliation_category",
    "is_slice",
    "lattice",
    "lattice_slice_leq",
    "order",
    "process",
    "reverse",
    "slice_leads_to",
    "slices",
}

SUBCOMMANDS = {"gen", "query", "check", "run", "export"}

CHECK_TARGETS = [
    "functoriality", "monoidality", "nosignalling", "reversal",
    "symmetry", "invariance", "foliation", "category",
]


ROOT = Path(__file__).resolve().parents[1]

# Definitions in the library that no CLI op, check suite, acceptance test,
# README quick start, benchmark boundary or public name reaches, each kept
# for a stated reason.  Anything else unreached is dead code.
KEPT = {
    "unit": "the monoidal unit object of the process layer",
    "discard": "the restriction of the tests' kernel-by-kernel reference build",
    "kraus_channel": "builds the Kraus steps that the resolved form and deviation support",
    "global_state_from_cauchy": "the paper's global state from one Cauchy datum (ROADMAP item 6)",
    "GlobalState": "the paper's global state from one Cauchy datum (ROADMAP item 6)",
}

# Optional parameters, as ``function(parameter)``, that no product call sets,
# each kept for a stated reason.  Anything else unset is a setting nothing
# needs.
KEPT_PARAMETERS = {
    "unitary_channel(factors)": "a step on chosen wires; the evaluator oracles need non-adjacent wires",
    "stochastic_map(factors)": "a step on chosen wires; the evaluator oracles need non-adjacent wires",
}


def _choices(parser: argparse.ArgumentParser, dest: str):
    (action,) = [a for a in parser._actions if a.dest == dest]
    return action.choices


def test_all_is_pinned():
    assert set(causal_fields.__all__) == PUBLIC_NAMES
    assert len(causal_fields.__all__) == len(PUBLIC_NAMES)


def test_every_public_name_resolves():
    for name in causal_fields.__all__:
        assert getattr(causal_fields, name) is not None, name


def test_cli_subcommands_and_check_targets_are_pinned():
    commands = _choices(_build_parser(), "command")
    assert set(commands) == SUBCOMMANDS
    assert list(_choices(commands["check"], "target")) == CHECK_TARGETS


def _tracer_boundaries() -> list:
    """The (layer, owner, attribute, group) rows the benchmark's tracer wraps."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS + tracer.AGGREGATES


def _quick_start_blocks() -> list:
    """The ```python blocks of the README's "Quick start (library)" section."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start (library)\n", 1)[1].split("\n## ", 1)[0]
    return [b.split("```", 1)[0] for b in section.split("```python\n")[1:]]


def test_tracer_boundaries_resolve():
    # the benchmark's tracer wraps these names from outside the library, so
    # a rename must fail here and not only in the benchmark's own tests
    for _, owner, attr, _ in _tracer_boundaries():
        mod_name, _, cls_name = owner.partition(":")
        target = importlib.import_module(mod_name)
        if cls_name:
            target = getattr(target, cls_name)
        assert callable(getattr(target, attr, None)), f"{owner}.{attr}"


def test_readme_library_quick_start_runs():
    # the ```python blocks of the README's "Quick start (library)" section,
    # run in order in one namespace, as a reader would paste them
    blocks = _quick_start_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["out"].obj == namespace["theory"].obj(namespace["gamma"])


def _imports(tree: ast.AST) -> set:
    """The names a piece of code imports."""
    return {node.name.rpartition(".")[2] for node in ast.walk(tree) if isinstance(node, ast.alias)}


def _foreign(tree: ast.AST) -> set:
    """The names a piece of code binds by importing from outside
    ``causal_fields`` (``np``, ``json``, ``field``, ...)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.partition(".")[0] for a in node.names
                    if a.name.partition(".")[0] != "causal_fields"}
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.partition(".")[0] != "causal_fields":
            out |= {a.asname or a.name for a in node.names}
    return out


def _root(node: ast.expr) -> str | None:
    """The bare name an attribute chain starts from, if any."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _attributes(tree: ast.AST, foreign: set) -> set:
    """The names a piece of code reads as attributes, leaving out the reads
    off a ``foreign`` name: ``np.linalg.norm`` reads no library ``norm``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and _root(node) not in foreign}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _library() -> list:
    """``(path, tree)`` of every module of the library."""
    return [(path.relative_to(ROOT), ast.parse(path.read_text()))
            for path in sorted((ROOT / "src" / "causal_fields").glob("*.py"))]


def _definitions() -> dict:
    """Every top-level function and class of the library, and every
    non-dunder method and property of its classes, by name: a list of
    ``(finding, node, is_method, foreign)``, where ``finding`` reads
    ``file:line name`` and ``foreign`` is its module's ``_foreign``.  A
    class's node leaves out those methods, which are definitions of their
    own; its dunder methods stay with it."""
    out: dict = {}
    for path, tree in _library():
        foreign = _foreign(tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body
                           if isinstance(m, ast.FunctionDef) and not _is_dunder(m.name)]
                for m in methods:
                    out.setdefault(m.name, []).append((f"{path}:{m.lineno} {node.name}.{m.name}", m, True, foreign))
                shell = copy.copy(node)
                shell.body = [n for n in node.body if n not in methods]
                out.setdefault(node.name, []).append((f"{path}:{node.lineno} {node.name}", shell, False, foreign))
            elif isinstance(node, ast.FunctionDef):
                out.setdefault(node.name, []).append((f"{path}:{node.lineno} {node.name}", node, False, foreign))
    return out


def _product_code() -> list:
    """The code outside the library that product paths run: the acceptance
    tests, the README quick start, and the benchmark's runner, workloads
    and tracer (not its self-test)."""
    trees = [ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())]
    trees += [ast.parse(block) for block in _quick_start_blocks()]
    trees += [ast.parse((ROOT / "perfbench" / name).read_text())
              for name in ("run.py", "workloads.py", "tracer.py")]
    return trees


def _reached(definitions: dict, names: set, attributes: set) -> set:
    """The findings of the definitions reached from the bare ``names`` and
    the ``attributes``.  A bare name (imports included) reaches the
    top-level definitions of that name, and an attribute every definition
    of it, methods and properties included; a reached definition reaches
    what its body mentions, the same way."""
    reached, seen = set(), set()
    todo = [(n, False) for n in names] + [(a, True) for a in attributes]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        name, by_attribute = key
        for finding, node, is_method, foreign in definitions.get(name, ()):
            if by_attribute or not is_method:
                reached.add(finding)
                bare = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | _imports(node)
                todo += [(n, False) for n in bare] + [(a, True) for a in _attributes(node, foreign)]
    return reached


def test_every_library_definition_is_reached():
    # every top-level function and class of the library, and every method
    # and property of its classes, is reached from a CLI op or check suite,
    # the acceptance tests, the README quick start, the benchmark's code and
    # boundaries or the public names, or is kept for a stated reason
    # (a method only through an attribute: a local variable of its name is
    # no call of it)
    definitions = _definitions()
    names, attributes = {"main", "check_suite"} | set(causal_fields.__all__), set()
    for tree in _product_code():
        names |= _imports(tree)
        attributes |= _attributes(tree, _foreign(tree))
    for _, owner, attr, _ in _tracer_boundaries():
        names.add(owner.partition(":")[2])
        attributes.add(attr)
    missing = set(KEPT) - set(definitions)
    assert not missing, f"kept names that are not definitions: {sorted(missing)}"
    kept = {f for name in KEPT for f, *_ in definitions[name]}
    reached = sorted(kept & _reached(definitions, names, attributes))
    assert not reached, "kept definitions reached anyway:\n" + "\n".join(reached)
    everything = {f for entries in definitions.values() for f, *_ in entries}
    found = sorted(everything - _reached(definitions, names | set(KEPT), attributes))
    assert not found, "dead library code:\n" + "\n".join(found)


def _defaulted(fn: ast.FunctionDef, skip: int) -> list:
    """``(place, name, default, line)`` of each parameter of ``fn`` that has
    a default; ``place`` is its index among a call's positional arguments,
    which leave out the first ``skip`` parameters (``self``), and None if it
    is keyword-only."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(first + i - skip, p.arg, d, fn.lineno)
           for i, (p, d) in enumerate(zip(positional[first:], a.defaults))]
    return out + [(None, p.arg, d, fn.lineno) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in node.decorator_list)


def _init_fields(node: ast.ClassDef) -> list:
    """``_defaulted`` for the ``__init__`` that ``@dataclass`` writes: each
    field with a default, at its place among the fields that
    ``field(init=False)`` does not leave out.  A ``default_factory`` default
    is the ``field(...)`` call itself, which no argument equals."""
    out, place = [], 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        default = stmt.value
        if isinstance(default, ast.Call) and isinstance(default.func, ast.Name) and default.func.id == "field":
            kw = {k.arg: k.value for k in default.keywords}
            if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
                continue
            default = kw.get("default", default if "default_factory" in kw else None)
        if default is not None:
            out.append((place, stmt.target.id, default, stmt.lineno))
        place += 1
    return out


def _callables() -> list:
    """``(path, owner, name, called_as, defaulted)`` for every top-level
    function and every method of the library, and the ``__init__`` that
    ``@dataclass`` writes for a class that defines none: the name a call
    uses (a class's name for its ``__init__``) and ``_defaulted``."""
    out = []
    for path, tree in _library():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append((path, None, node.name, node.name, _defaulted(node, 0)))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                for m in methods:
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in m.decorator_list)
                    called_as = node.name if m.name == "__init__" else m.name
                    out.append((path, node.name, m.name, called_as, _defaulted(m, 0 if static else 1)))
                if _is_dataclass(node) and "__init__" not in {m.name for m in methods}:
                    out.append((path, node.name, "__init__", node.name, _init_fields(node)))
    return out


def _sets(call: ast.Call, place, name: str, default: ast.expr) -> bool:
    """Whether ``call`` gives the parameter a value other than its default;
    a ``*args`` or ``**kwargs`` argument counts as giving every one."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    given = [k.value for k in call.keywords if k.arg == name]
    if place is not None and 0 <= place < len(call.args):
        given.append(call.args[place])
    return any(ast.dump(v) != ast.dump(default) for v in given)


def _product_calls() -> dict:
    """Every call in the library and in the product code outside it, by the
    name it calls.  Outside the library a bare name counts only if imported
    or read as an attribute: otherwise that code bound it itself.  A call
    off a ``_foreign`` name (``np.linalg.norm(x, 2)``) calls no library
    code."""
    calls: dict = {}
    trees = [(tree, None) for _, tree in _library()]
    trees += [(tree, _imports(tree) | _attributes(tree, _foreign(tree))) for tree in _product_code()]
    for tree, imported in trees:
        foreign = _foreign(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Attribute):
                    if _root(f) not in foreign:
                        calls.setdefault(f.attr, []).append(node)
                elif isinstance(f, ast.Name) and (imported is None or f.id in imported):
                    calls.setdefault(f.id, []).append(node)
    return calls


def test_every_optional_parameter_is_set():
    # every parameter with a default, of a library function or method, and
    # every defaulted field of a dataclass's written ``__init__``, is given
    # another value by some product call (the library, the acceptance tests,
    # the README quick start or the benchmark's code), or is kept for a
    # stated reason: a setting nothing sets is a knob nothing needs
    calls = _product_calls()
    findings, unset = {}, set()
    for path, owner, fn, called_as, defaulted in _callables():
        if fn in KEPT or owner in KEPT:
            continue
        qualified = f"{owner}.{fn}" if owner else fn
        for place, name, default, line in defaulted:
            key = f"{qualified}({name})"
            findings[key] = f"{path}:{line} {key}"
            if not any(_sets(c, place, name, default) for c in calls.get(called_as, ())):
                unset.add(key)
    missing = set(KEPT_PARAMETERS) - set(findings)
    assert not missing, f"kept parameters that are not optional parameters: {sorted(missing)}"
    set_anyway = sorted(findings[k] for k in set(KEPT_PARAMETERS) - unset)
    assert not set_anyway, "kept parameters set anyway:\n" + "\n".join(set_anyway)
    found = sorted(findings[k] for k in unset - set(KEPT_PARAMETERS))
    assert not found, "optional parameters nothing sets:\n" + "\n".join(found)
