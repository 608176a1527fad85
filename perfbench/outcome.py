"""What one benchmark run measured and checked."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Outcome:
    # name -> (value, unit, what the value was taken over)
    metrics: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    # (check, passed, detail)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    # input counts and set-up details recorded next to the timings
    info: dict = field(default_factory=dict)
    reproj_px: float = float("nan")

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))
