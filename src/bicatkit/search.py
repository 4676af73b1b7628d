"""One backtracking search behind every enumerator, compiled once and run as
often as needed.

A variable ``(slot, key, reads, domain)`` is bound by setting ``slot[key]``
to each value of the sequence ``domain()`` in turn; the domain may look at
the earlier ``(slot, key)`` variables listed in ``reads``.  A constraint
``(reads, holds)`` is checked by calling ``holds()`` as soon as the last
variable it reads is bound.  A domain is computed as soon as the last of
its reads is bound, so an empty one prunes like a failing constraint.

`compile_plan` turns these declarations into stage tables, and `run` walks
them, binding into ``slots`` that stand position by position for the
declared ones (by default those themselves), and calling ``domain(subject)``
and ``holds(subject)`` when given a ``subject``.  So a declaration over placeholder slots, which reads
all else off the subject, compiles once and serves many runs.

Order contract: complete bindings come out in lexicographic order of the
declared variable list (first variable slowest, each domain in its own
order), the order of the nested loops the list describes, on every run of
a plan.
"""

import functools
from types import SimpleNamespace


def compile_plan(variables, constraints=()):
    """The stage tables of a declaration: the distinct slots, the variables
    as (position of the slot, key, domain), and for each stage the
    constraints to check and the domains to compute there, where stage
    i + 1 is reached when variable i is bound."""
    slots, position, stage = [], {}, {}
    for i, (slot, key, _, _) in enumerate(variables):
        if id(slot) not in position:
            position[id(slot)] = len(slots)
            slots.append(slot)
        stage[id(slot), key] = i + 1
    checks = [[] for _ in range(len(variables) + 1)]
    opens = [[] for _ in range(len(variables) + 1)]
    for reads, holds in constraints:
        checks[max([stage[id(slot), key] for slot, key in reads], default=0)].append(holds)
    for i, (_, _, reads, _) in enumerate(variables):
        opens[max([stage[id(slot), key] for slot, key in reads], default=0)].append(i)
    return SimpleNamespace(
        slots=tuple(slots), checks=tuple(map(tuple, checks)), opens=tuple(map(tuple, opens)),
        variables=tuple((position[id(slot)], key, domain) for slot, key, _, domain in variables))


def run(plan, slots=None, subject=None):
    """Yield once for each complete binding that satisfies every constraint,
    to be read off the slots before the run resumes."""
    slots = plan.slots if slots is None else slots
    subjects = () if subject is None else (subject,)
    variables, checks, opens = plan.variables, plan.checks, plan.opens
    domains = [None] * len(variables)

    def passes(step):
        for holds in checks[step]:
            if not holds(*subjects):
                return False
        for i in opens[step]:
            domains[i] = variables[i][2](*subjects)
            if not domains[i]:
                return False
        return True

    def extend(i):
        if i == len(variables):
            yield
            return
        slot, key = slots[variables[i][0]], variables[i][1]
        for slot[key] in domains[i]:
            if passes(i + 1):
                yield from extend(i + 1)

    if passes(0):
        yield from extend(0)


def search(variables, constraints=()):
    """Compile a declaration and run it once, on its own slots."""
    return run(compile_plan(variables, constraints))


def constraints(draft, laws):
    """Law instances (see `ValidationReport.check_laws`) as constraints on
    a draft structure that the search fills in."""
    return [(reads, functools.partial(holds, draft, *cells))
            for holds, cells, reads, _, _ in laws]
