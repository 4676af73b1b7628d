"""Shared reporting types.

Every validator in this package returns a ValidationReport rather than raising:
a report carries the subject's name, a verdict, and a list of violations, where
each violation pins down the smallest witness that exhibits the failure.  Checks
are layered — structural problems (dangling ids, badly-shaped tables) are
reported first and suppress law checks, because law checks on malformed data
would either crash or produce noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    kind: str            # machine-readable tag, e.g. "pentagon", "dangling-target"
    message: str         # human-readable, includes the witness ids
    witness: tuple = ()  # the ids that exhibit the failure, smallest first
    structural: bool = False

    def __str__(self):
        return f"[{self.kind}] {self.message}"


@dataclass
class ValidationReport:
    subject: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind, message, witness=(), structural=False):
        self.violations.append(Violation(kind, message, tuple(witness), structural))

    @property
    def structural_failure(self) -> bool:
        return any(v.structural for v in self.violations)

    def check_laws(self, subject, laws):
        """Report each law instance ``(holds, cells, reads, kind, message)``
        with ``holds(subject, *cells)`` false: its kind, the message
        formatted with the cells, and the cells as witness.  ``reads`` lists
        the ``(slot, key)`` entries of the subject it looks at."""
        for holds, cells, _, kind, message in laws:
            if not holds(subject, *cells):
                self.add(kind, message.format(*cells), cells)

    def first(self, kind=None) -> Violation | None:
        """The first violation, optionally the first of a given kind."""
        for v in self.violations:
            if kind is None or v.kind == kind:
                return v
        return None

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        head = self.violations[0]
        more = f" (+{len(self.violations) - 1} more)" if len(self.violations) > 1 else ""
        return f"{self.subject}: FAIL {head}{more}"

    def __str__(self):
        lines = [self.summary()]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


# two-dimensional validators return the same report shape; the alias keeps
# call sites honest about what they are reading
CoherenceReport = ValidationReport


def canon_key(x):
    """Total order on the heterogeneous ids used throughout this package.

    Ids may be strings, ints, bools, None, or arbitrarily nested tuples of
    those.  Python refuses to compare across types, so we tag each atom with a
    type rank and recurse through tuples.  Used everywhere iteration order
    must be deterministic (witness selection, file serialization, CLI output).
    """
    if isinstance(x, str):
        return (2, x)
    if isinstance(x, tuple):
        return (3, tuple(map(canon_key, x)))
    if isinstance(x, bool):
        return (1, (0, int(x)))
    if isinstance(x, int):
        return (1, (1, x))
    if x is None:
        return (0, 0)
    return (4, repr(x))


def sorted_ids(ids):
    return sorted(ids, key=canon_key)
