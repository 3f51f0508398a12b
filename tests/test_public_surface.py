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


def _identifiers(tree: ast.AST) -> set:
    """Every name a piece of code mentions: names, attributes and imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def _outside_mentions(tree: ast.AST) -> set:
    """The names by which code outside the library can reach it: attributes
    and imports.  A bare name there is bound by that code itself, or by an
    import already counted."""
    return {node.attr if isinstance(node, ast.Attribute) else node.name.rpartition(".")[2]
            for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.alias))}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _library() -> list:
    """``(path, tree)`` of every module of the library."""
    return [(path.relative_to(ROOT), ast.parse(path.read_text()))
            for path in sorted((ROOT / "src" / "causal_fields").glob("*.py"))]


def _definitions() -> dict:
    """Every top-level function and class of the library, and every
    non-dunder method and property of its classes, by name: a list of
    ``(finding, node)``, where ``finding`` reads ``file:line name``.  A
    class's node leaves out those methods, which are definitions of their
    own; its dunder methods stay with it."""
    out: dict = {}
    for path, tree in _library():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body
                           if isinstance(m, ast.FunctionDef) and not _is_dunder(m.name)]
                for m in methods:
                    out.setdefault(m.name, []).append((f"{path}:{m.lineno} {node.name}.{m.name}", m))
                shell = copy.copy(node)
                shell.body = [n for n in node.body if n not in methods]
                out.setdefault(node.name, []).append((f"{path}:{node.lineno} {node.name}", shell))
            elif isinstance(node, ast.FunctionDef):
                out.setdefault(node.name, []).append((f"{path}:{node.lineno} {node.name}", node))
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


def _reached(definitions: dict, roots: set) -> set:
    """The names reached from ``roots``, by name: a reached definition
    reaches every definition of a name its body mentions."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for _, node in definitions.get(name, ()):
                todo.extend(_identifiers(node) - seen)
    return seen


def test_every_library_definition_is_reached():
    # every top-level function and class of the library, and every method
    # and property of its classes, is reached from a CLI op or check suite,
    # the acceptance tests, the README quick start, the benchmark's code and
    # boundaries or the public names, or is kept for a stated reason
    definitions = _definitions()
    roots = {"main", "check_suite"} | set(causal_fields.__all__)
    for tree in _product_code():
        roots |= _outside_mentions(tree)
    for _, owner, attr, _ in _tracer_boundaries():
        roots |= {attr, owner.partition(":")[2]}
    missing = set(KEPT) - set(definitions)
    assert not missing, f"kept names that are not definitions: {sorted(missing)}"
    reached = sorted(f for name in set(KEPT) & _reached(definitions, roots) for f, _ in definitions[name])
    assert not reached, "kept definitions reached anyway:\n" + "\n".join(reached)
    unreached = set(definitions) - _reached(definitions, roots | set(KEPT))
    found = sorted(f for name in unreached for f, _ in definitions[name])
    assert not found, "dead library code:\n" + "\n".join(found)


def _defaulted(fn: ast.FunctionDef) -> list:
    """``(place, name, default)`` of each parameter of ``fn`` that has a
    default; ``place`` is its positional index, None if keyword-only."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(first + i, p.arg, d) for i, (p, d) in enumerate(zip(positional[first:], a.defaults))]
    return out + [(None, p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _callables() -> list:
    """``(path, owner, fn, called_as, skip)`` for every top-level function
    and every method of the library: the name a call uses (a class's name
    for its ``__init__``) and the number of leading parameters a call does
    not pass (``self``)."""
    out = []
    for path, tree in _library():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append((path, None, node, node.name, 0))
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in m.decorator_list)
                        called_as = node.name if m.name == "__init__" else m.name
                        out.append((path, node.name, m, called_as, 0 if static else 1))
    return out


def _sets(call: ast.Call, place, name: str, default: ast.expr, skip: int) -> bool:
    """Whether ``call`` gives the parameter a value other than its default;
    a ``*args`` or ``**kwargs`` argument counts as giving every one."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    given = [k.value for k in call.keywords if k.arg == name]
    if place is not None and 0 <= place - skip < len(call.args):
        given.append(call.args[place - skip])
    return any(ast.dump(v) != ast.dump(default) for v in given)


def _product_calls() -> dict:
    """Every call in the library and in the product code outside it, by the
    name it calls; outside the library a bare name counts only if imported."""
    calls: dict = {}
    trees = [(tree, None) for _, tree in _library()]
    trees += [(tree, _outside_mentions(tree)) for tree in _product_code()]
    for tree, imported in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Attribute):
                    calls.setdefault(f.attr, []).append(node)
                elif isinstance(f, ast.Name) and (imported is None or f.id in imported):
                    calls.setdefault(f.id, []).append(node)
    return calls


def test_every_optional_parameter_is_set():
    # every parameter with a default, of a library function or method, is
    # given another value by some product call (the library, the acceptance
    # tests, the README quick start or the benchmark's code), or is kept for
    # a stated reason: a setting nothing sets is a knob nothing needs
    calls = _product_calls()
    findings, unset = {}, set()
    for path, owner, fn, called_as, skip in _callables():
        if fn.name in KEPT or owner in KEPT:
            continue
        qualified = f"{owner}.{fn.name}" if owner else fn.name
        for place, name, default in _defaulted(fn):
            key = f"{qualified}({name})"
            findings[key] = f"{path}:{fn.lineno} {key}"
            if not any(_sets(c, place, name, default, skip) for c in calls.get(called_as, ())):
                unset.add(key)
    missing = set(KEPT_PARAMETERS) - set(findings)
    assert not missing, f"kept parameters that are not optional parameters: {sorted(missing)}"
    set_anyway = sorted(findings[k] for k in set(KEPT_PARAMETERS) - unset)
    assert not set_anyway, "kept parameters set anyway:\n" + "\n".join(set_anyway)
    found = sorted(findings[k] for k in unset - set(KEPT_PARAMETERS))
    assert not found, "optional parameters nothing sets:\n" + "\n".join(found)
