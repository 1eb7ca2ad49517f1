"""Small result records shared by the report builders."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    """One numerical check inside a report: what was measured, against what."""

    check: str
    detail: str
    value: float
    bound: float
    ok: bool


@dataclass
class Report:
    """A named collection of findings; ok iff every finding passed."""

    name: str
    findings: list[Finding] = field(default_factory=list)

    def add(self, check: str, detail: str, value: float, bound: float, ok: bool | None = None):
        if ok is None:
            ok = bool(value <= bound)
        self.findings.append(Finding(check, detail, float(value), float(bound), bool(ok)))

    def flag(self, check: str, detail: str, ok: bool):
        """A pass/fail finding: value 0 when ok, else 1, against bound 0."""
        self.add(check, detail, 0.0 if ok else 1.0, 0.0, ok)

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.findings)

    def failures(self) -> list[Finding]:
        return [f for f in self.findings if not f.ok]
