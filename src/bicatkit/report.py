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

    def include(self, sub, kind="", where=""):
        """Add the violations of the report `sub`, each with `kind` before its
        kind and `where` before its message."""
        for v in sub.violations:
            self.add(kind + v.kind, where + v.message, v.witness, v.structural)

    def check_values(self, subject, variables, domains=True):
        """Report each search variable ``(field, key, reads, domain, cells,
        (missing, within, dangling, outside))`` at the first check its value
        fails, as a law instance is reported: ``missing`` if its key is absent
        (ids may be None, so a None value is checked like any other),
        ``dangling`` if not in ``within(subject, *cells)``, and, with
        `domains`, ``outside`` if not in ``domain(subject)``.  ``missing``
        and ``dangling`` are structural ``(kind, message)``, ``outside`` is
        ``(kind, message, structural)``, and an ``outside`` that is None is
        not checked.  An ``outside`` may go on with ``between, misplaced``:
        a value outside the domain that is not in ``between(subject,
        *cells)`` either is reported as ``misplaced``, shaped as
        ``outside``, instead, so a domain that narrows ``between`` reports
        the coarser failure first."""
        for field, key, _, domain, cells, (missing, within, dangling, outside) in variables:
            table = getattr(subject, field)
            if key not in table:
                self.add(missing[0], missing[1].format(*cells), cells, True)
            elif table[key] not in within(subject, *cells):
                self.add(dangling[0], dangling[1].format(*cells), cells, True)
            elif domains and outside and table[key] not in domain(subject):
                if len(outside) > 3 and table[key] not in outside[3](subject, *cells):
                    outside = outside[4]
                self.add(outside[0], outside[1].format(*cells), cells, outside[2])

    def check_laws(self, subject, laws):
        """Report each law instance ``(holds, cells, reads, kind, message)``
        with ``holds(subject, *cells)`` false: its kind, the message
        formatted with the cells, and the cells as witness.  ``reads`` lists
        the ``(field, key)`` entries of the subject's dict fields it looks at,
        which `check_values` has passed before the laws are checked."""
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
