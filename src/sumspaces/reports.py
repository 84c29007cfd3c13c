"""Margin reports: named numerical margins with satisfied/violated verdicts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class MarginEntry:
    """One named criterion together with its numerical margin and verdict."""

    criterion: str
    margin: float
    verdict: str
    note: str = ""

    def to_dict(self):
        margin = self.margin
        if math.isinf(margin):
            margin = "inf" if margin > 0 else "-inf"
        out = {"criterion": self.criterion, "margin": margin, "verdict": self.verdict}
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class MarginReport:
    """Ordered collection of margin entries plus free-form extras.

    A margin is "satisfied" when it exceeds margin_tol, "violated" when it is
    below -margin_tol and "borderline" in between.  Margins are stored raw;
    the tolerance only enters the verdict.
    """

    entries: list[MarginEntry] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def add(self, criterion: str, margin: float, margin_tol: float,
            vacuous: bool = False, estimate: bool = False) -> MarginEntry:
        if vacuous:
            entry = MarginEntry(criterion, math.inf, "satisfied", "vacuous")
        else:
            margin = float(margin)
            if margin > margin_tol:
                verdict = "satisfied"
            elif margin < -margin_tol:
                verdict = "violated"
            else:
                verdict = "borderline"
            entry = MarginEntry(criterion, margin, verdict, "estimate" if estimate else "")
        self.entries.append(entry)
        return entry

    def entry(self, criterion: str) -> MarginEntry:
        for e in self.entries:
            if e.criterion == criterion:
                return e
        raise KeyError(criterion)

    def margin(self, criterion: str) -> float:
        return self.entry(criterion).margin

    def verdict(self, criterion: str) -> str:
        return self.entry(criterion).verdict

    def to_dict(self):
        out = {"entries": [e.to_dict() for e in self.entries]}
        if self.extras:
            out["extras"] = dict(sorted(self.extras.items()))
        return out
