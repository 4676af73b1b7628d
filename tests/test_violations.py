"""Witness order under corruption.

The full reports of the seven validators over seeded corruptions of corpus
structures, byte for byte against `tests/golden/violations.txt`.  Each
corruption changes or drops one entry of one table (a composition table, an
identity, a functor's map, a coherence or comparison cell, a component) and
never edits a cell set, so the report shows in which order a validator meets
the cells and which witness it names first.

    PYTHONPATH=src python tests/test_violations.py > tests/golden/violations.txt
    PYTHONPATH=src python tests/test_violations.py --double > tests/golden/violations_double.txt

rewrite the golden files; a change that means to alter reports does that in
a change of its own.  The second file holds the reports of subjects corrupted
twice over: a single fault stops a validator at the step that finds it, so it
takes two faults to show the order of a validator's steps.

The text shows no witness, so `test_witnesses_match_their_digest` pins the
kind, witness and structural flag of every violation in both sets by one
sha256; a change that means to alter a witness updates ``WITNESS_DIGEST``.
"""

import hashlib
import pathlib
import random
import sys

from bicatkit import corpus
from bicatkit.bicat import validate_bicategory
from bicatkit.catcore import validate_category, validate_functor, validate_nat
from bicatkit.icon import identity_icon, validate_icon
from bicatkit.laxfun import identity_lax, validate_lax_functor
from bicatkit.oplax import identity_oplax, validate_oplax
from bicatkit.report import sorted_ids
from reference_icons import identity_nat

GOLDEN = pathlib.Path(__file__).parent / "golden" / "violations.txt"
DOUBLE_GOLDEN = GOLDEN.with_name("violations_double.txt")
SEED = 20071130
PER_VALIDATOR = 90
DOUBLE_SEED = 4657
PER_VALIDATOR_DOUBLE = 60
WITNESS_DIGEST = "23d628006ba9b0ec9e88155b8b117b1bec4f5c1995f494deb7896f3c9b76bb64"


# the identities on the corpus bicategories, most of them with several
# objects, next to the corpus's own lax functors, icons and transformations
_IDENTITIES = {"laxfunctor": identity_lax,
               "icon": lambda b: identity_icon(identity_lax(b)),
               "oplax": lambda b: identity_oplax(identity_lax(b))}


def _pick(rng, kind):
    if kind in _IDENTITIES and rng.random() < 0.5:
        name = rng.choice(sorted(corpus.BICATEGORIES))
        return f"identity on {name}", _IDENTITIES[kind](corpus.get("bicategory", name))
    name = rng.choice(sorted(corpus.TABLES[kind]))
    return name, corpus.get(kind, name)


def _cells(b):
    """The 1-cells and the 2-cells of a bicategory, read off its homs, each
    with its ends: its hom for a 1-cell, its hom and endpoints for a 2-cell."""
    ones = {f: pair for pair, cat in b.homs.items() for f in cat.objects}
    twos = {c: (pair, ends) for pair, cat in b.homs.items() for c, ends in cat.morphisms.items()}
    return ones, twos


# Each subject builder returns (label, subject, families), where a family is
# a list of (table label, table, pool), the pool mapping each replacement value
# to its ends.  It draws its subject from `pick(rng, kind)`, `_pick` unless a
# caller hands it one subject (see `tests/test_mutants.py`).

def _category(rng, pick=_pick):
    name, b = pick(rng, "bicategory")
    pair = rng.choice(sorted_ids(b.homs))
    c = b.homs[pair]
    return f"{name} hom{pair!r}", c, [[("table", c.table, c.morphisms)],
                                     [("identity", c.identity, c.morphisms)]]


def _functor(rng, pick=_pick):
    name, fun = pick(rng, "laxfunctor")
    pair = rng.choice(sorted_ids(fun.hom_functors))
    hf = fun.hom_functors[pair]
    return f"{name} hom functor {pair!r}", hf, [
        [("object_map", hf.object_map, dict.fromkeys(hf.target.objects))],
        [("morphism_map", hf.morphism_map, hf.target.morphisms)]]


def _nat(rng, pick=_pick):
    return (_icon_family if rng.random() < 0.5 else _identity_nat)(rng, pick)


def _icon_family(rng, pick=_pick):
    name, icon = pick(rng, "icon")
    pair = rng.choice(sorted_ids(icon.families))
    return _nat_families(f"{name} family {pair!r}", icon.components[pair])


def _identity_nat(rng, pick=_pick):
    name, fun = pick(rng, "laxfunctor")
    pair = rng.choice(sorted_ids(fun.hom_functors))
    return _nat_families(f"identity on {name} {pair!r}", identity_nat(fun.hom_functors[pair]))


def _nat_families(label, nt):
    return label, nt, [[("components", nt.components, nt.source.target.morphisms)]]


def _bicategory(rng, pick=_pick):
    name, b = pick(rng, "bicategory")
    ones, twos = _cells(b)
    return name, b, [
        [("unit", b.unit, ones)],
        [("associator", b.associator, twos)],
        [("left_unitor", b.left_unitor, twos)],
        [("right_unitor", b.right_unitor, twos)],
        [(f"comp{k!r}.object_map", b.comp[k].object_map, ones) for k in sorted_ids(b.comp)],
        [(f"comp{k!r}.morphism_map", b.comp[k].morphism_map, twos) for k in sorted_ids(b.comp)],
        [(f"hom{p!r}.table", b.homs[p].table, twos) for p in sorted_ids(b.homs)],
        [(f"hom{p!r}.identity", b.homs[p].identity, twos) for p in sorted_ids(b.homs)]]


def _lax_functor(rng, pick=_pick):
    name, fun = pick(rng, "laxfunctor")
    ones, twos = _cells(fun.target)
    pairs = sorted_ids(fun.hom_functors)
    return name, fun, [
        [("object_map", fun.object_map, dict.fromkeys(fun.target.objects))],
        [(f"hom{p!r}.object_map", fun.hom_functors[p].object_map, ones) for p in pairs],
        [(f"hom{p!r}.morphism_map", fun.hom_functors[p].morphism_map, twos) for p in pairs],
        [("comp_constraints", fun.comp_constraints, twos)],
        [("unit_constraints", fun.unit_constraints, twos)]]


def _icon(rng, pick=_pick):
    name, icon = pick(rng, "icon")
    _, twos = _cells(icon.source.target)
    return name, icon, [
        [("cells", icon.cells, twos)],
        [("families", icon.families, dict.fromkeys([*icon.families.values(), "renamed"]))]]


def _oplax(rng, pick=_pick):
    name, u = pick(rng, "oplax")
    ones, twos = _cells(u.source.target)
    return name, u, [[("components", u.components, ones)],
                     [("constraints", u.constraints, twos)]]


VALIDATORS = [
    (validate_category, _category),
    (validate_functor, _functor),
    (validate_nat, _nat),
    (validate_bicategory, _bicategory),
    (validate_lax_functor, _lax_functor),
    (validate_icon, _icon),
    (validate_oplax, _oplax),
]


def _corrupt(rng, families):
    """Change or drop one entry of one table; a description of the edit."""
    label, table, pool = rng.choice(rng.choice(families))
    key = rng.choice(sorted_ids(table))
    old = table[key]
    others = [v for v in sorted_ids(pool) if v != old]
    # a value with the same ends as the old one passes the structural checks
    # and reaches the laws
    parallel = [v for v in others if old in pool and pool[v] == pool[old]]
    if rng.random() < 0.25 or not others:
        del table[key]
        return f"{label}: drop {key!r}"
    table[key] = rng.choice(parallel if parallel and rng.random() < 0.6 else others)
    return f"{label}: {key!r} := {table[key]!r}"


def _nonempty(families):
    """The families without their empty tables, less any family left empty."""
    return [f for f in ([e for e in f if e[1]] for f in families) if f]


def corrupted_reports(seed=SEED, per_validator=PER_VALIDATOR, faults=1):
    """The header line and the report of each validator on `per_validator`
    subjects, each with up to `faults` corruptions (fewer when an edit
    empties the last table); in place of a report, the exception the
    validator raised."""
    rng = random.Random(seed)
    for validate, build in VALIDATORS:
        for i in range(per_validator):
            families = []
            while not families:  # a subject with some non-empty table
                label, subject, families = build(rng)
                families = _nonempty(families)
            edits = []
            while families and len(edits) < faults:
                edits.append(_corrupt(rng, families))
                families = _nonempty(families)  # an edit can empty a table
            try:
                report = validate(subject)
            except Exception as e:  # a crash is recorded, so that it shows too
                report = e
            yield f"== {validate.__name__} {i}: {label}; {'; '.join(edits)}", report


def violation_reports(seed=SEED, per_validator=PER_VALIDATOR, faults=1):
    """The text of `corrupted_reports`, as the golden files hold it."""
    out = []
    for header, report in corrupted_reports(seed, per_validator, faults):
        text = (f"raises {type(report).__name__}: {report}" if isinstance(report, Exception)
                else str(report))
        out.append(f"{header}\n{text}\n")
    return "".join(out)


def double_fault_reports():
    return violation_reports(DOUBLE_SEED, PER_VALIDATOR_DOUBLE, faults=2)


def test_violation_reports_match_the_golden_file():
    assert violation_reports() == GOLDEN.read_text(encoding="utf-8")


def test_double_fault_reports_match_the_golden_file():
    assert double_fault_reports() == DOUBLE_GOLDEN.read_text(encoding="utf-8")


def test_witnesses_match_their_digest():
    """What the golden text does not show: a sha256 over the kind, the
    witness and the structural flag of every violation, in order, in both
    corruption sets, and over the exception of a validator that raises."""
    digest = hashlib.sha256()
    for args in ((), (DOUBLE_SEED, PER_VALIDATOR_DOUBLE, 2)):
        for header, report in corrupted_reports(*args):
            found = (repr(report) if isinstance(report, Exception) else
                     [(v.kind, v.witness, v.structural) for v in report.violations])
            digest.update(repr((header, found)).encode())
    assert digest.hexdigest() == WITNESS_DIGEST


if __name__ == "__main__":
    sys.stdout.write(double_fault_reports() if sys.argv[1:] == ["--double"]
                     else violation_reports())
