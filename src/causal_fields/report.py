"""Law-check reports.

Validators return a report rather than raising: the caller gets the full
violation list.  Reports serialise to
``{"law": ..., "samples": ..., "violations": [{"witness": ..., "deviation": ...}]}``,
with a non-finite deviation written as the string "NaN", "Infinity" or
"-Infinity" so that the output stays strict JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any


def _number(x: float) -> float | str:
    """A deviation as strict JSON: a non-finite one as the string of its
    JSON token ("NaN", "Infinity", "-Infinity")."""
    return x if math.isfinite(x) else json.dumps(x)


def _jsonify(value: Any):
    if isinstance(value, (frozenset, set)):
        return sorted((_jsonify(v) for v in value), key=repr)
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    if isinstance(value, list):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass
class Report:
    law: str
    samples: int = field(default=0, init=False)
    violations: list = field(default_factory=list, init=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, n: int = 1) -> None:
        self.samples += n

    def record(self, witness, deviation: float = 0.0) -> None:
        self.violations.append({"witness": witness, "deviation": float(deviation)})

    def compare(self, witness, dev: float, tol: float) -> None:
        """The float gate of every law sample: count it, and record it
        unless ``dev <= tol`` (so a NaN fails)."""
        self.count()
        if not (dev <= tol):
            self.record(witness, dev)

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "samples": self.samples,
            "violations": [
                {"witness": _jsonify(v["witness"]), "deviation": _number(v["deviation"])}
                for v in self.violations
            ],
        }

    def __str__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"[{self.law}] {self.samples} sample(s): {status}"
