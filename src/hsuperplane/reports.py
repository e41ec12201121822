"""Structured pass/fail reports for the verification suites.

A report is a flat list of entries; each entry records the relation (or
check) that was exercised, the normal form of its residual, the verdict,
and optional extra data (for example h-degree witnesses).  Reports print
as one line per entry and serialize to a flat JSON schema so they diff
line-stably in CI.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .algebra import Record


class ReportEntry(Record):
    """A single verified relation: label, residual normal form, verdict, and
    extra ``data`` (a new empty dict when not given)."""

    _fields = ("label", "normal_form", "passed", "data")

    def __init__(
        self, label: str, normal_form: str, passed: bool, data: Optional[dict[str, Any]] = None
    ):
        data = {} if data is None else data
        vars(self).update(label=label, normal_form=normal_form, passed=passed, data=data)

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return f"[{verdict}] {self.label}: {self.normal_form}"


class VerificationReport:
    """An ordered collection of :class:`ReportEntry` for one named suite."""

    def __init__(self, suite: str, presentation: str = "") -> None:
        self.suite = suite
        self.presentation = presentation
        self.entries: list[ReportEntry] = []

    def add(
        self,
        label: str,
        normal_form: str,
        passed: bool,
        **data: Any,
    ) -> ReportEntry:
        entry = ReportEntry(label, normal_form, bool(passed), dict(data))
        self.entries.append(entry)
        return entry

    def extend(self, other: "VerificationReport") -> None:
        """Fold another report's entries into this one, prefixing labels."""
        for entry in other.entries:
            label = f"{other.suite}: {entry.label}" if other.suite else entry.label
            self.entries.append(
                ReportEntry(label, entry.normal_form, entry.passed, dict(entry.data))
            )

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def failures(self) -> list[ReportEntry]:
        return [entry for entry in self.entries if not entry.passed]

    def to_dict(self) -> dict[str, Any]:
        from . import __version__

        return {
            "suite": self.suite,
            "presentation": self.presentation,
            "version": __version__,
            "passed": self.passed,
            "entries": [
                {
                    "label": entry.label,
                    "normal_form": entry.normal_form,
                    "passed": entry.passed,
                    **({"data": entry.data} if entry.data else {}),
                }
                for entry in self.entries
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def __str__(self) -> str:
        header = f"suite {self.suite}"
        if self.presentation:
            header += f" [{self.presentation}]"
        lines = [header]
        lines.extend(str(entry) for entry in self.entries)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict} ({len(self.entries)} checks)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        verdict = "passed" if self.passed else "failed"
        return f"VerificationReport({self.suite!r}, {len(self.entries)} entries, {verdict})"
