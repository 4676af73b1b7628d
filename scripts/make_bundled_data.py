"""Regenerate the bundled corpus files under src/bicatkit/data/ from
bicatkit.corpus.

Small structures with builders are written as directives; everything else is
serialized in full.  Output is deterministic, so reruns are diff-stable.  The
CLI does not read these files (its bundled names come from bicatkit.corpus);
the tests and the benchmark do, and `--file` loads them.
"""

import pathlib

from bicatkit import corpus, fileformat as ff
from bicatkit.catcore import chain_category

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "bicatkit" / "data"

COCYCLE_HEADER = '''\
# Deloopings of the group of order two, with and without a twisted
# associator, plus the bare version with trivial coefficients.

cocycledata "z2-plain"
  element 0
  element 1
  unit 0
  op 0 0 = 0
  op 0 1 = 1
  op 1 0 = 1
  op 1 1 = 0
  coelement 0
  counit 0
  coop 0 0 = 0
end

cocycledata "z2-trivial"
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
end

cocycledata "z2-twist"
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

build "sigma-z2" = cocycle "z2-plain"
build "cocycle-trivial" = cocycle "z2-trivial"
build "cocycle-twisted" = cocycle "z2-twist"
'''

CORPUS_HEADER = '''\
# The bundled corpus: every structure the toolkit ships for experiments,
# except the cocycle deloopings (see cocycle.bc).

magma "magma3"
  element "e"
  element "a"
  element "b"
  basepoint "e"
  op "e" "e" = "e"
  op "e" "a" = "a"
  op "e" "b" = "b"
  op "a" "e" = "a"
  op "a" "a" = "b"
  op "a" "b" = "a"
  op "b" "e" = "b"
  op "b" "a" = "e"
  op "b" "b" = "e"
end

build "codiscrete3" = codiscrete "magma3"
build "ordinal-2" = ordinal 2
build "ordinal-3" = ordinal 3
'''


def build_cocycle_file():
    sf = ff.parse(COCYCLE_HEADER, source="cocycle-header")
    n0 = len(sf.order)
    mf, _, _ = corpus.get("monoidal-pair", "twisted-pair")
    ff._include(sf, mf.source)
    for key in ("id-cocycle-twisted", "twisted-identity"):
        ff._include(sf, corpus.get("laxfunctor", key))
    for key in ("twisted-icon-0", "twisted-icon-1"):
        ff._include(sf, corpus.get("icon", key))
    tail = _tail(sf, n0)
    return COCYCLE_HEADER + "\n" + ff.serialize(tail)


def build_corpus_file():
    sf = ff.parse(CORPUS_HEADER, source="corpus-header")
    arrow_base = chain_category(1)
    text = (CORPUS_HEADER + "\n"
            + "\n".join(ff.serialize_category(arrow_base))
            + '\n\nbuild "walking-arrow" = from_category '
            + ff.dump_id(arrow_base.name) + "\n")
    sf = ff.parse(text, source="corpus-header")
    n0 = len(sf.order)
    for key in ("terminal", "walking-two-cell", "thickened-arrow",
                "parallel-pair", "collapsed-two-cell", "sigma-idem",
                "sigma-maxposet"):
        ff._include(sf, corpus.get("bicategory", key))
    mf, _, _ = corpus.get("monoidal-pair", "idem-pair")
    ff._include(sf, mf.source)
    for key in sorted(corpus.LAX_FUNCTORS):
        if key in ("id-cocycle-twisted", "twisted-identity"):
            continue
        ff._include(sf, corpus.get("laxfunctor", key))
    for key in ("id-on-id-idem", "idem-icon-k"):
        ff._include(sf, corpus.get("icon", key))
    for key in sorted(corpus.OPLAX):
        ff._include(sf, corpus.get("oplax", key))
    tail = _tail(sf, n0)
    return text + "\n" + ff.serialize(tail)


def _tail(sf, n0):
    return ff.StructureFile(
        categories=sf.categories, magmas=sf.magmas,
        cocycledata=sf.cocycledata, bicategories=sf.bicategories,
        monoidals=sf.monoidals, laxfunctors=sf.laxfunctors,
        icons=sf.icons, oplaxes=sf.oplaxes, order=sf.order[n0:])


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    for name, text in (("cocycle.bc", build_cocycle_file()),
                       ("corpus.bc", build_corpus_file())):
        path = DATA / name
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path} ({len(text.splitlines())} lines)")
        merged = ff.parse(text, source=name)
        print(f"  parses: {len(merged.order)} definitions")


if __name__ == "__main__":
    main()
