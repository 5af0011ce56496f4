"""Diagnostics container used by the verification-style operations.

Verifiers never raise on a failed check; they collect failures (capped,
deterministically ordered) so callers and the CLI can report all of them.
Contract violations (bad arguments) still raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field


DEFAULT_FAILURE_CAP = 10


@dataclass
class Diagnostics:
    """Outcome of a verification run.

    checks maps a check name to True/False; failures holds one human-readable
    line per failed check instance (first `cap` in deterministic order);
    details carries free-form numeric results (residuals, counts).
    """

    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    cap: int = DEFAULT_FAILURE_CAP
    _overflow: int = 0

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def record(self, name: str, ok: bool, witness="") -> bool:
        """Record one check instance. `witness` is the failure's text, or a
        function returning it, called only for a failure that is listed."""
        # a check already marked failed stays failed
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            if len(self.failures) < self.cap:
                if callable(witness):
                    witness = witness()
                self.failures.append(f"{name}: {witness}" if witness else name)
            else:
                self._overflow += 1
        return ok

    def merge(self, other: "Diagnostics") -> None:
        for name, ok in other.checks.items():
            self.checks[name] = self.checks.get(name, True) and ok
        for line in other.failures:
            if len(self.failures) < self.cap:
                self.failures.append(line)
            else:
                self._overflow += 1
        self._overflow += other._overflow
        self.details.update(other.details)
