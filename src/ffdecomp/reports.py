"""Structured outcomes of bound checks and identity verifications.

A report's to_dict gives the record's shape, holding the report's values as
they are (FpSet, Fraction, tuple, ...): the conversion to JSON values is
cli._plain's alone, applied once to each whole record."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


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
        """The payload of this report's record, its values unconverted; the
        unset optional fields are left out."""
        out: dict[str, Any] = {
            "type": "bound",
            "experiment": self.experiment,
            "instance": self.instance,
        }
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        if self.hypothesis_ok is not None:
            out["hypothesis_ok"] = self.hypothesis_ok
        if self.ok is not None:
            out["ok"] = self.ok
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        out["extras"] = self.extras
        return out
