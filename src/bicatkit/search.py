"""One backtracking search behind every enumerator.

A variable ``(slot, key, reads, domain)`` is bound by setting ``slot[key]``
to each value of the sequence ``domain()`` in turn; the domain may look at
the earlier ``(slot, key)`` variables listed in ``reads``.  A constraint
``(reads, holds)`` is checked by calling ``holds()`` as soon as the last
variable it reads is bound.  A domain is computed as soon as the last of
its reads is bound, so an empty one prunes like a failing constraint.

Order contract: complete bindings come out in lexicographic order of the
declared variable list (first variable slowest, each domain in its own
order), the order of the nested loops the list describes.
"""

import functools


def search(variables, constraints=()):
    """Yield once for each complete binding that satisfies every constraint,
    to be read off the slots before the search resumes."""
    stage = {(id(slot), key): i + 1 for i, (slot, key, _, _) in enumerate(variables)}
    # constraints to check and domains to compute at each stage, where stage
    # i + 1 is reached when variable i is bound
    checks = [[] for _ in range(len(variables) + 1)]
    opens = [[] for _ in range(len(variables) + 1)]
    for reads, holds in constraints:
        checks[max([stage[id(slot), key] for slot, key in reads], default=0)].append(holds)
    for i, (_, _, reads, _) in enumerate(variables):
        opens[max([stage[id(slot), key] for slot, key in reads], default=0)].append(i)
    domains = [None] * len(variables)

    def passes(step):
        for holds in checks[step]:
            if not holds():
                return False
        for i in opens[step]:
            domains[i] = variables[i][3]()
            if not domains[i]:
                return False
        return True

    def extend(i):
        if i == len(variables):
            yield
            return
        slot, key = variables[i][:2]
        for slot[key] in domains[i]:
            if passes(i + 1):
                yield from extend(i + 1)

    if passes(0):
        yield from extend(0)


def constraints(draft, laws):
    """Law instances (see `ValidationReport.check_laws`) as constraints on
    a draft structure that the search fills in."""
    return [(reads, functools.partial(holds, draft, *cells))
            for holds, cells, reads, _, _ in laws]
