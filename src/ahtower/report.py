"""Uniform pass/fail reporting for the verification suites.

Checks never raise on a failed comparison; they accumulate named entries so
a caller (or the CLI) can count them and name the first violation.  A
detail can be passed as a zero-argument callable, so the decimal text of a
deep table's integers is built only for a check that fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from .rational import IntLeaf, bounded, shown_text


class CheckEntry(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    entries: tuple[CheckEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def first_failure(self) -> CheckEntry | None:
        for e in self.entries:
            if not e.ok:
                return e
        return None


@dataclass
class Checker:
    """Accumulates CheckEntry rows; ``report()`` freezes them."""

    entries: list[CheckEntry] = field(default_factory=list)

    def check(self, name: str, ok: bool,
              detail: str | Callable[[], str] = "") -> bool:
        """Record one entry; a passing entry keeps no detail, and a
        callable detail is called only when the check fails."""
        ok = bool(ok)
        if ok:
            detail = ""
        elif callable(detail):
            detail = detail()
        self.entries.append(CheckEntry(name, ok, detail))
        return ok

    def merge(self, other: CheckReport, prefix: str = "") -> None:
        for e in other.entries:
            self.entries.append(CheckEntry(prefix + e.name, e.ok, e.detail))

    def report(self) -> CheckReport:
        return CheckReport(tuple(self.entries))


def first_difference(a: Any, b: Any) -> str | None:
    """Path of the first difference between two JSON values; unlike ==,
    it tells true and 2.0 from 1 and 2.  ``b`` may hold ``IntLeaf``s,
    each of which stands for the decimal string of its integer.  A leaf in
    the detail is bounded by ``shown_text``, and a key in the path by
    ``bounded``."""
    found = _difference(a, b)
    if found is None:
        return None
    steps, what = found
    return "$" + "".join(reversed(steps)) + ": " + what


def _difference(a: Any, b: Any) -> tuple[list[str], str] | None:
    """What differs first, and the steps to it from the innermost out.  A
    step is made only on the way back from a difference, so a walk over
    equal values formats no path."""
    if type(b) is IntLeaf:
        if type(a) is not str:
            return [], f"{type(a).__name__} vs str"
        return None if b.matches(a) else ([], f"{shown_text(a)} vs {b!r}")
    if type(a) is not type(b):
        return [], f"{type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return [f".{bounded(key)}"], "missing on the left"
            if key not in b:
                return [f".{bounded(key)}"], "unexpected key"
            found = _difference(a[key], b[key])
            if found:
                found[0].append(f".{bounded(key)}")
                return found
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return [], f"length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            found = _difference(x, y)
            if found:
                found[0].append(f"[{i}]")
                return found
        return None
    if a != b:
        return [], f"{shown_text(a)} vs {shown_text(b)}"
    return None
