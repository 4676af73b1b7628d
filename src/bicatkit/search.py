"""One backtracking search behind every enumerator, compiled once and run as
often as needed.

A search fills in the dict fields of a draft structure, its subject.  A
variable ``(field, key, reads, domain, cells, checks)`` is bound by setting
``subject.<field>[key]`` to each value of ``domain(subject)`` in turn; the
domain may look at the earlier variables, named ``(field, key)``, listed in
``reads``.  A constraint is a law instance ``(holds, cells, reads, kind,
message)`` (see `ValidationReport.check_laws`), checked as
``holds(subject, *cells)`` as soon as the last variable it reads is bound.
A domain is computed as soon as the last of its reads is bound, so an empty
one prunes like a failing constraint.  The search ignores ``cells`` and
``checks``, which `ValidationReport.check_values` reads when it runs the
same listing as a validator on a given subject.

`compile_plan` turns a declaration into stage tables and `run` walks them
on one subject, so a plan serves any number of runs, each on its own draft.

Order contract: complete bindings come out in lexicographic order of the
declared variable list (first variable slowest, each domain in its own
order), the order of the nested loops the list describes, on every run of
a plan.
"""

from types import SimpleNamespace


def compile_plan(variables, laws=()):
    """Stage tables: the variables as (field, key, domain), and for each
    stage, reached when as many variables are bound, the constraints to
    check there, as (holds, cells), and the domains to compute there."""
    stage = {(field, key): i + 1 for i, (field, key, *_) in enumerate(variables)}
    checks = [[] for _ in range(len(variables) + 1)]
    opens = [[] for _ in range(len(variables) + 1)]
    for holds, cells, reads, _, _ in laws:
        checks[max(map(stage.__getitem__, reads), default=0)].append((holds, cells))
    for i, (_, _, reads, *_) in enumerate(variables):
        opens[max(map(stage.__getitem__, reads), default=0)].append(i)
    return SimpleNamespace(
        checks=tuple(map(tuple, checks)), opens=tuple(map(tuple, opens)),
        variables=tuple((field, key, domain) for field, key, _, domain, *_ in variables))


def run(plan, subject):
    """Yield once for each complete binding of the subject's fields that
    satisfies every constraint, to be read off before the run resumes."""
    checks, opens = plan.checks, plan.opens
    variables = [(getattr(subject, field), key, domain) for field, key, domain in plan.variables]
    domains = [None] * len(variables)

    def passes(step):
        for holds, cells in checks[step]:
            if not holds(subject, *cells):
                return False
        for i in opens[step]:
            domains[i] = variables[i][2](subject)
            if not domains[i]:
                return False
        return True

    def extend(i):
        if i == len(variables):
            yield
            return
        slot, key, _ = variables[i]
        for slot[key] in domains[i]:
            if passes(i + 1):
                yield from extend(i + 1)

    # extend reaches itself through its closure; clearing it when the run
    # ends or is closed frees the run's state without the cyclic collector
    try:
        if passes(0):
            yield from extend(0)
    finally:
        del extend
