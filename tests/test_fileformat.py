import collections
import copy
import dataclasses
import pathlib
import random
import runpy

import pytest

from bicatkit import corpus, report
from bicatkit import fileformat as ff
from bicatkit.catcore import chain_category
from bicatkit.cylinder import lax_cylinder

DATA = pathlib.Path(ff.__file__).parent / "data"
SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def roundtrip(obj, name=None):
    sf = ff.document_for(obj, name)
    return ff.parse(ff.serialize(sf))


@pytest.mark.parametrize("name", sorted(corpus.BICATEGORIES))
def test_bicategory_roundtrip(name):
    b = corpus.get("bicategory", name)
    back = roundtrip(b)
    assert back.bicategories[b.name] == b


@pytest.mark.parametrize("name", sorted(corpus.LAX_FUNCTORS))
def test_laxfunctor_roundtrip(name):
    fun = corpus.get("laxfunctor", name)
    back = roundtrip(fun)
    assert back.laxfunctors[fun.name] == fun


@pytest.mark.parametrize("name", sorted(corpus.ICONS))
def test_icon_roundtrip(name):
    icon = corpus.get("icon", name)
    back = roundtrip(icon)
    assert back.icons[icon.name] == icon


@pytest.mark.parametrize("name", sorted(corpus.OPLAX))
def test_oplax_roundtrip(name):
    u = corpus.get("oplax", name)
    back = roundtrip(u)
    assert back.oplaxes[u.name] == u


@pytest.mark.parametrize("pair", sorted(corpus.MONOIDAL_PAIRS))
def test_monoidal_roundtrip(pair):
    m = corpus.get("monoidal-pair", pair)[0].source
    back = roundtrip(m)
    assert back.monoidals[m.name] == m


def test_category_roundtrip_with_tuple_ids():
    cat = corpus.get("bicategory", "walking-two-cell").homs[("a", "b")]
    back = roundtrip(cat)
    assert back.categories[cat.name] == cat
    chain = chain_category(2)  # morphism ids are tuples ("le", i, j)
    back = roundtrip(chain)
    assert back.categories[chain.name] == chain


def test_cylinder_total_roundtrip():
    cyl = lax_cylinder(corpus.get("bicategory", "walking-two-cell"))
    back = roundtrip(cyl.total)
    assert back.bicategories[cyl.total.name] == cyl.total
    back = roundtrip(cyl.crossing)
    assert back.oplaxes[cyl.crossing.name] == cyl.crossing


def test_serialization_is_deterministic():
    b = corpus.get("bicategory", "codiscrete3")
    once = ff.serialize(ff.document_for(b))
    again = ff.serialize(ff.document_for(b))
    assert once == again
    reparsed = ff.serialize(ff.parse(once))
    assert reparsed == once


# ---------------------------------------------------------------------------
# builder directives

COCYCLE_DOC = """
cocycledata "z2"
  element 0
  element 1
  unit 0
  op 0 0 = 0
  op 0 1 = 1
  op 1 0 = 1
  op 1 1 = 0
  coelement 0
  coelement 1
  counit 0
  coop 0 0 = 0
  coop 0 1 = 1
  coop 1 0 = 1
  coop 1 1 = 0
  twist 1 1 1 = 1
end

build "cocycle-twisted" = cocycle "z2"
"""


def test_cocycle_directive_matches_builder():
    sf = ff.parse(COCYCLE_DOC)
    assert sf.bicategories["cocycle-twisted"] == corpus.get("bicategory", "cocycle-twisted")


def test_from_category_and_cylinder_directives():
    base = chain_category(1)
    text = ("\n".join(ff.serialize_category(base))
            + '\n\nbuild "walking-arrow" = from_category ' + ff.dump_id(base.name)
            + '\nbuild "cyl" = cylinder "walking-arrow"\n')
    sf = ff.parse(text)
    assert sf.bicategories["walking-arrow"] == corpus.get("bicategory", "walking-arrow")
    assert set(sf.laxfunctors) == {"cyl-bottom", "cyl-top"}
    assert "cyl-crossing" in sf.oplaxes
    assert sf.oplaxes["cyl-crossing"].source is sf.laxfunctors["cyl-bottom"]


def test_built_names_survive_a_round_trip():
    sf = ff.parse('build "o" = ordinal 1\nbuild "cyl" = cylinder "o"\n')
    text = ff.serialize(sf)
    back = ff.parse(text)
    for kind in ff.KINDS:
        assert list(back._registry(kind)) == list(sf._registry(kind))
    assert list(back.bicategories) == ["o", "cyl"]
    assert list(back.laxfunctors) == ["cyl-bottom", "cyl-top"]
    assert list(back.oplaxes) == ["cyl-crossing"]
    assert back.oplaxes["cyl-crossing"].source is back.laxfunctors["cyl-bottom"]
    assert back.laxfunctors["cyl-top"].target is back.bicategories["cyl"]
    assert ff.serialize(back) == text


def test_ordinal_directive():
    sf = ff.parse('build "ordinal-2" = ordinal 2\n')
    assert sf.bicategories["ordinal-2"] == corpus.get("bicategory", "ordinal-2")


def test_sigma_directive_renames():
    m = corpus.get("monoidal-pair", "idem-pair")[0].source
    text = ff.serialize(ff.document_for(m)) + '\nbuild "sig" = sigma ' + ff.dump_id(m.name)
    sf = ff.parse(text)
    assert sf.bicategories["sig"].name == "sig"
    assert list(sf.bicategories["sig"].homs[("*", "*")].objects) == list(m.cat.objects)


# ---------------------------------------------------------------------------
# failure modes: parsing is fail-fast and names the line

def test_unknown_reference_fails():
    with pytest.raises(ff.StructureError, match="unknown magma"):
        ff.parse('build "x" = codiscrete "nope"\n')


def test_invalid_structure_fails_with_location():
    bad = ('category "c"\n  object "x"\n  morphism "f" : "x" -> "x"\n'
           '  identity "x" = "f"\n  compose "f" after "f" = "g"\nend\n')
    with pytest.raises(ff.StructureError, match="<string>:1.*fails validation"):
        ff.parse(bad)


def test_duplicate_name_fails():
    doc = 'build "b" = ordinal 1\nbuild "b" = ordinal 2\n'
    with pytest.raises(ff.StructureError, match="duplicate"):
        ff.parse(doc)


def test_missing_end_fails():
    with pytest.raises(ff.StructureError, match="missing its end"):
        ff.parse('category "c"\n  object "x"\n')


def test_non_json_id_fails():
    with pytest.raises(ff.StructureError, match="unexpected line"):
        ff.parse('category "c"\n  object bare-word\nend\n')


def test_the_id_writer_and_the_error_are_those_of_report():
    """`fileformat` hands out the objects `report` defines, so an error one
    raises is caught as the other's."""
    assert ff.StructureError is report.StructureError
    assert ff.dump_id is report.dump_id
    assert ff.dump_id(("i", (0, None))) == '["i",[0,null]]'
    with pytest.raises(ff.StructureError, match="not representable"):
        ff.dump_id(1.5)


def test_ordinal_directive_rejects_bad_argument():
    with pytest.raises(ff.StructureError, match="non-negative integer"):
        ff.parse('build "b" = ordinal "two"\n')


MAGMA = ('magma "m"\n  element "e"\n  element "a"\n  basepoint "e"\n  op "e" "e" = "e"\n'
         '  op "e" "a" = "a"\n  op "a" "e" = "a"\n  op "a" "a" = "e"\nend\n')
HOM = ('  hom "x" "x" = category "h"\n    object "1"\n    morphism "i" : "1" -> "1"\n'
       '    identity "1" = "i"\n    compose "i" after "i" = "i"\n  end\n')
Z1 = ('cocycledata "d"\n  element 0\n  unit 0\n  op 0 0 = 0\n'
      '  coelement 0\n  counit 0\n  coop 0 0 = 0\n')
ARROW = 'build "o" = ordinal 1\nlaxfunctor "F" : "o" -> "o"\n'


@pytest.mark.parametrize("doc, match", [
    ('cocycledata "d"\n  element 0\n  element 1\n  unit 0\n  op 0 0 = 0\n'
     '  coelement 0\n  counit 0\n  coop 0 0 = 0\nend\nbuild "b" = cocycle "d"\n',
     r"<string>:1: cocycledata 'd' is incomplete \(missing op 0 1, op 1 0, op 1 1\)"),
    ('cocycledata "d"\n  element 0\n  unit 0\n  op 0 0 = 0\n  coelement 0\n'
     '  coelement 1\n  counit 0\n  coop 0 0 = 0\nend\nbuild "b" = cocycle "d"\n',
     r"incomplete \(missing coop 0 1, coop 1 0, coop 1 1\)"),
    (Z1.replace("  unit 0", "  unit 3") + 'end\nbuild "b" = cocycle "d"\n',
     r"incomplete \(missing unit\)"),
    (Z1 + '  twist 5 5 5 = 0\nend\nbuild "b" = cocycle "d"\n',
     "leaves its elements at twist 5 5 5"),
    (Z1.replace("  op 0 0 = 0", "  op 0 0 = 9") + 'end\nbuild "b" = cocycle "d"\n',
     "leaves its elements at op 0 0"),
    ('magma "m"\n  element "e"\n  element "a"\n  basepoint "e"\n  op "e" "e" = "e"\n'
     '  op "e" "a" = "a"\n  op "a" "e" = "a"\n  op "a" "a" = "q"\nend\n'
     'build "b" = codiscrete "m"\n', "leaves its elements at op 'a' 'a'"),
    (ARROW + '  object 0 -> 7\n  object 1 -> 1\n  hom 0 1 = functor "h"\n  end\nend\n',
     r"<string>:5: hom 0 1 maps to \(7, 1\), not a hom of 'o'"),
    (ARROW + '  object 0 -> 0\n  object 5 -> 1\n  hom 5 0 = functor "h"\n  end\nend\n',
     "<string>:5: hom 5 0 is not a hom of 'o'"),
    ('build "o1" = ordinal 1\nbuild "o2" = ordinal 2\nbuild "c1" = cylinder "o1"\n'
     'build "c2" = cylinder "o2"\nicon "i" : "c2-bottom" => "c1-bottom"\n'
     '  at 0 2 = nat "n"\n  end\nend\n', "<string>:6: icon 'i' names a missing hom 0 2"),
    ('category\n  object "x"\nend\n', "<string>:1: malformed category header"),
    ('# a header with nothing after it\ncategory\n',
     "<string>:2: malformed category header"),
    ('build b = ordinal 2\n', "<string>:1: malformed build line"),
    ('build "b" = ordinal two\n', "<string>:1: malformed build line"),
    (MAGMA.replace('  op "a" "a" = "e"\n', '  op "a" "a" = "e"\n  op "a" "a" = "a"\n'),
     """<string>:9: magma 'm' repeats its op "a" "a" line"""),
    (MAGMA.replace('  basepoint "e"\n', '  basepoint "e"\n  basepoint "a"\n'),
     "<string>:5: magma 'm' repeats its basepoint line"),
    ('bicategory "b"\n  object "x"\n  unit "x" = "1"\n' + HOM + HOM.replace('"h"', '"h2"')
     + 'end\n', """<string>:10: bicategory 'b' repeats its hom "x" "x" line"""),
    ('build "o" = ordinal true\n', "<string>:1: ordinal takes a non-negative integer"),
    ('build "o" = ordinal false\n', "<string>:1: ordinal takes a non-negative integer"),
    ('laxfunctor "F" : "nope" -> "nope"\nend\n', "^<string>:1: unknown bicategory 'nope'$"),
    ('build "o" = ordinal 1\nbuild "c" = cylinder "nope"\n',
     "^<string>:2: unknown bicategory 'nope'$"),
    (MAGMA + MAGMA, "^<string>:10: duplicate magma 'm'$"),
], ids=["missing-op", "missing-coop", "unit-off-group", "twist-off-group",
        "op-off-group", "magma-op-off-elements", "laxfunctor-object-image",
        "laxfunctor-hom-source", "icon-hom-of-one-side", "header-without-name",
        "header-at-end", "build-bare-name", "build-bare-argument", "repeated-dict-line",
        "repeated-scalar-line", "repeated-block-line", "ordinal-true", "ordinal-false",
        "laxfunctor-unknown-bicategory", "cylinder-unknown-bicategory", "duplicate-magma"])
def test_malformed_documents_are_refused(doc, match):
    with pytest.raises(ff.StructureError, match=match):
        ff.parse(doc)


# ---------------------------------------------------------------------------
# the bundled corpus files

def bundled():
    sf = ff.StructureFile()
    for path in sorted(DATA.glob("*.bc")):
        ff.parse_path(path, into=sf)
    return sf


def test_bundled_files_cover_the_corpus():
    sf = bundled()
    for key in sorted(corpus.BICATEGORIES):
        b = corpus.get("bicategory", key)
        assert sf.bicategories[b.name] == b
    for key in sorted(corpus.LAX_FUNCTORS):
        fun = corpus.get("laxfunctor", key)
        assert sf.laxfunctors[fun.name] == fun
    for key in sorted(corpus.ICONS):
        icon = corpus.get("icon", key)
        assert sf.icons[icon.name] == icon
    for key in sorted(corpus.OPLAX):
        u = corpus.get("oplax", key)
        assert sf.oplaxes[u.name] == u


def test_bundled_files_match_their_generator():
    gen = runpy.run_path(str(SCRIPTS / "make_bundled_data.py"))
    for name, build in (("cocycle.bc", gen["build_cocycle_file"]),
                        ("corpus.bc", gen["build_corpus_file"])):
        assert build() == (DATA / name).read_text(encoding="utf-8"), name


def test_bundled_files_reserialize_cleanly():
    sf = bundled()
    text = ff.serialize(sf)
    again = ff.parse(text)
    assert sorted(again.bicategories) == sorted(sf.bicategories)
    assert again.bicategories["codiscrete3"] == sf.bicategories["codiscrete3"]


def test_icon_cell_outside_its_hom_is_refused():
    text = ff.serialize(ff.document_for(corpus.idem_icon_k()))
    bad = text.replace('    cell "s" = "k"\n', '    cell "s" = "k"\n    cell "q" = "k"\n')
    assert bad != text
    with pytest.raises(ff.StructureError,
                       match=r"nat 'k-family' in icon 'idem-icon-k' has a cell at \"q\", "
                             r"not a 1-cell of hom \* \*"):
        ff.parse(bad)


# ---------------------------------------------------------------------------
# a seeded mutation fuzzer over the bundled files

FUZZ_SEED, FUZZ_MUTANTS = 20261018, 400


def _block_starts(lines):
    """The indexes of the lines that open a top-level definition."""
    return [i for i, line in enumerate(lines) if line[:1].isalpha() and line != "end"]


def _is_id(word):
    return word[0] in '"[-' or word[0].isdigit()


def _mutate(rng, lines, site, tokens):
    """One mutation at line `site`: a dropped or swapped token, an id
    replaced by one from elsewhere in the file (`tokens`), a deleted or
    duplicated line, or the text cut short."""
    line = lines[site]
    indent, words = line[:len(line) - len(line.lstrip())], line.split()
    kind = rng.choice(("drop", "swap", "foreign", "delete", "duplicate", "truncate"))
    out = list(lines)
    if kind == "drop" and len(words) > 1:
        del words[rng.randrange(len(words))]
        out[site] = indent + " ".join(words)
    elif kind == "swap" and len(words) > 1:
        i = rng.randrange(len(words) - 1)
        words[i], words[i + 1] = words[i + 1], words[i]
        out[site] = indent + " ".join(words)
    elif kind == "foreign" and any(map(_is_id, words)):
        words[rng.choice([i for i, w in enumerate(words) if _is_id(w)])] = rng.choice(tokens)
        out[site] = indent + " ".join(words)
    elif kind == "duplicate":
        out.insert(site, lines[site])
    elif kind == "truncate":
        out = out[:site] + [lines[site][:rng.randrange(len(lines[site]) + 1)]]
    else:
        del out[site]
    return out


def test_bundled_file_mutants_parse_or_are_refused():
    """Mutants of the bundled files, three in four at a line of an icon
    block, must parse or raise StructureError, never anything else.  The
    unchanged definitions before a mutation are parsed once and each mutant
    parses only the rest, into a copy of what they define."""
    rng = random.Random(FUZZ_SEED)
    files = {}
    for path in sorted(DATA.glob("*.bc")):
        lines = path.read_text(encoding="utf-8").split("\n")
        starts = _block_starts(lines)
        icon_lines = [i for s, e in zip(starts, starts[1:] + [len(lines)])
                      if lines[s].startswith("icon ") for i in range(s, e)]
        tokens = [w for line in lines for w in line.split() if _is_id(w)]
        files[path.name] = lines, starts, icon_lines, tokens
    prefixes = {}

    def prefix(name, start):
        if (name, start) not in prefixes:
            prefixes[(name, start)] = ff.parse("\n".join(files[name][0][:start]))
        return prefixes[(name, start)]

    kinds = collections.Counter()
    for _ in range(FUZZ_MUTANTS):
        name = rng.choice(sorted(files))
        lines, starts, icon_lines, tokens = files[name]
        site = rng.choice(icon_lines if rng.random() < 0.75 else range(len(lines)))
        start = max(s for s in starts if s <= site) if starts[0] <= site else 0
        mutant = _mutate(rng, lines[start:], site - start, tokens)
        done = prefix(name, start)
        into = ff.StructureFile(**{f.name: copy.copy(getattr(done, f.name))
                                   for f in dataclasses.fields(done)})
        try:
            ff.parse("\n".join(mutant), into=into)
            kinds["parsed"] += 1
        except ff.StructureError:
            kinds["refused"] += 1
        except Exception as e:
            pytest.fail(f"{type(e).__name__}: {e} on a mutant of {name} at line {site + 1}:\n"
                        + "\n".join(mutant[max(0, site - start - 3):site - start + 4]))
    assert kinds["parsed"] + kinds["refused"] == FUZZ_MUTANTS and kinds["refused"] > 0


# ---------------------------------------------------------------------------
# what a document may not say

def _discrete(*ids):
    """A discrete category on the ids, each written as given."""
    lines = ['category "c"']
    for n, x in enumerate(ids):
        lines += [f"  object {x}", f'  morphism ["i",{n}] : {x} -> {x}',
                  f'  identity {x} = ["i",{n}]', f'  compose ["i",{n}] after ["i",{n}] = ["i",{n}]']
    return "\n".join(lines + ["end", ""])


@pytest.mark.parametrize("value", ["1.5", "2e0", "1e3", "-Infinity", "[0,2.5]"])
def test_a_number_that_is_no_integer_is_refused_as_an_id(value):
    """Such an id would validate, and then `serialize` could not write it."""
    with pytest.raises(ff.StructureError, match=r"<string>:2: bad value in"):
        ff.parse(_discrete(value))


def test_true_null_minus_zero_and_big_integers_stay_ids():
    sf = ff.parse(_discrete("true", "null", "-0", "123456789012345678901234567890"))
    assert sf.categories["c"].objects == [True, None, 0, 123456789012345678901234567890]
    assert ff.parse(ff.serialize(sf)).categories == sf.categories


@pytest.mark.parametrize("name, after, extra, kind", [
    ("sigma-idem", '  runit "u" = ["i","u"]\n', '  runit "zz" = "k"\n', "spurious-right-unitor"),
    ("sigma-idem", '  unit "*" = "u"\n', '  unit "ghost" = "u"\n', "spurious-unit"),
    ("idem-laxonly", '  comp "u" "u" = ["i","u"]\n', '  comp "zz" "zz" = "k"\n',
     "spurious-comp-constraints"),
    ("idem-general", '  constraint "u" = ["i","s"]\n', '  constraint "zz" = "k"\n',
     "spurious-constraints"),
    ("idem-laxonly", '    on1 "u" -> "u"\n', '    on1 "zz" -> "s"\n',
     "hom-functor:spurious-object-map"),
    ("sigma-idem", '    identity "u" = ["i","u"]\n', '    identity "zz" = ["i","u"]\n',
     "spurious-identity"),
    ("sigma-idem", '    on1 "u" after "u" = "u"\n', '    on1 "zz" after "zz" = "s"\n',
     "comp:spurious-object-map"),
], ids=["runit", "unit", "comp", "constraint", "on1", "identity", "compose-on1"])
def test_an_entry_at_a_key_the_structure_lacks_is_refused(name, after, extra, kind):
    """The clean document parses; with one more entry, at a key that is no
    object, 1-cell or composable pair of the structure, it is refused at
    the opening line of the block that validates it."""
    obj = next(corpus.get(k, name) for k in ("bicategory", "laxfunctor", "oplax")
               if name in corpus.TABLES[k])
    text = ff.serialize(ff.document_for(obj))
    ff.parse(text)
    assert text.count(after) == 1
    with pytest.raises(ff.StructureError, match=rf"<string>:\d+: .* fails validation: {kind}: "):
        ff.parse(text.replace(after, after + extra))
