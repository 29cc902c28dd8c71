"""Structured outcomes of bound checks and identity verifications."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .setalg import FpSet


_PLAIN = frozenset((int, float, str, bool, type(None)))


def json_ready(obj: Any) -> Any:
    """Recursively convert report values to plain JSON-serializable types.

    Exact plain scalars come back at once, and containers are walked
    without calling back for their exact plain scalar members.  Containers
    are checked first: no value is both a container and an FpSet or a
    Fraction, and for an exact dict or list isinstance is a fast check."""
    if type(obj) in _PLAIN:
        return obj
    if isinstance(obj, dict):
        return {
            str(k): v if type(v) in _PLAIN else json_ready(v) for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _PLAIN else json_ready(v) for v in obj]
    if isinstance(obj, FpSet):
        return obj.elements()
    if isinstance(obj, Fraction):
        return float(obj)
    if isinstance(obj, (int, float, str)):
        return obj
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    return str(obj)


@dataclass
class BoundReport:
    """One lemma/bound check: measured quantity vs bound formula.

    ok is None for report-only comparisons (unknown implied constant);
    hypothesis_ok is None when the statement has no side condition.
    """

    experiment: str
    instance: dict
    lhs: float | None = None
    rhs: float | None = None
    hypothesis_ok: bool | None = None
    ok: bool | None = None
    tolerance: float | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "type": "bound",
            "experiment": self.experiment,
            "instance": json_ready(self.instance),
        }
        if self.lhs is not None:
            out["lhs"] = json_ready(self.lhs)
        if self.rhs is not None:
            out["rhs"] = json_ready(self.rhs)
        if self.hypothesis_ok is not None:
            out["hypothesis_ok"] = self.hypothesis_ok
        if self.ok is not None:
            out["ok"] = self.ok
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        out["extras"] = json_ready(self.extras)
        return out
