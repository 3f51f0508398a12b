"""The stable public surface: the names exported by the package, the
command-line contract (subcommands and check targets), and no library
definition that nothing reaches."""

import argparse
import ast
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
    "kraus_channel": "builds the Kraus steps that the resolved form and deviation support",
    "global_state_from_cauchy": "the paper's global state from one Cauchy datum (ROADMAP item 6)",
    "GlobalState": "the paper's global state from one Cauchy datum (ROADMAP item 6)",
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


def _reached(definitions: dict, roots: set) -> set:
    """The names reached from ``roots``, by name: a reached definition
    reaches every top-level definition of a name its body mentions."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for node in definitions.get(name, ()):
                todo.extend(_identifiers(node) - seen)
    return seen


def test_every_library_definition_is_reached():
    # every top-level function and class of the library is reached from a
    # CLI op or check suite, the acceptance tests, the README quick start, a
    # benchmark boundary or the public names, or is kept for a stated reason
    definitions: dict = {}
    for path in sorted((ROOT / "src" / "causal_fields").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(node)
    roots = {"main", "check_suite"} | set(causal_fields.__all__)
    roots |= _identifiers(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for block in _quick_start_blocks():
        roots |= _identifiers(ast.parse(block))
    for _, owner, attr, _ in _tracer_boundaries():
        roots |= {attr, owner.partition(":")[2]}
    assert set(KEPT) <= set(definitions), "a kept name is not a definition"
    reached = _reached(definitions, roots)
    assert not set(KEPT) & reached, "a kept name is reached anyway"
    unreached = set(definitions) - _reached(definitions, roots | set(KEPT))
    assert not unreached, f"dead library code: {sorted(unreached)}"
