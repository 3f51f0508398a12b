"""The stable public surface: the names exported by the package and the
command-line contract (subcommands and check targets)."""

import argparse
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


def test_tracer_boundaries_resolve():
    # the benchmark's tracer wraps these names from outside the library, so
    # a rename must fail here and not only in the benchmark's own tests
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, owner, attr, _ in tracer.SPANS + tracer.AGGREGATES:
        mod_name, _, cls_name = owner.partition(":")
        target = importlib.import_module(mod_name)
        if cls_name:
            target = getattr(target, cls_name)
        assert callable(getattr(target, attr, None)), f"{owner}.{attr}"
