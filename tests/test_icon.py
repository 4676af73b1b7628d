"""Icons: validation, the two compatibility laws, composition, enumeration,
and the one-object dictionary with monoidal natural transformations."""

import pytest

from bicatkit import corpus
from bicatkit.acceptance import _law_universe
from bicatkit.bicat import UnsupportedSettingError
from bicatkit.icon import (
    Icon,
    enumerate_icons,
    hcomp_icons,
    icon_to_monoidal,
    identity_icon,
    is_invertible_icon,
    monoidal_to_icon,
    validate_icon,
    vcomp_icons,
    whisker_icon_left,
    whisker_icon_right,
)
from bicatkit.laxfun import identity_lax, validate_lax_functor


def icon_cells(icon):
    return {pair: dict(nt.components) for pair, nt in icon.components.items()}


def test_corpus_icons_all_validate():
    for name, build in corpus.ICONS.items():
        rep = validate_icon(build())
        assert rep.ok, f"{name}: {rep.summary()}"


def test_identity_icon_is_unit_for_vcomp():
    kappa = corpus.idem_icon_k()
    left = vcomp_icons(identity_icon(kappa.target), kappa)
    right = vcomp_icons(kappa, identity_icon(kappa.source))
    assert icon_cells(left) == icon_cells(kappa) == icon_cells(right)


def test_vcomp_icons_is_associative_here():
    kappa = corpus.idem_icon_k()
    a = vcomp_icons(vcomp_icons(kappa, kappa), kappa)
    b = vcomp_icons(kappa, vcomp_icons(kappa, kappa))
    assert icon_cells(a) == icon_cells(b)
    assert validate_icon(a).ok


def test_icon_counts_match_hand_computation():
    b = corpus.cocycle_twisted()
    one = identity_lax(b)
    tw = corpus.twisted_identity(b)
    assert len(list(enumerate_icons(one, tw))) == 2

    z2 = corpus.sigma_z2()
    assert len(list(enumerate_icons(identity_lax(z2), identity_lax(z2)))) == 1

    idem = corpus.sigma_idem()
    assert len(list(enumerate_icons(identity_lax(idem), identity_lax(idem)))) == 2


def test_invertibility():
    ok, inv = is_invertible_icon(corpus.get_icon("id-on-id-idem"))
    assert ok and validate_icon(inv).ok

    ok, inv = is_invertible_icon(corpus.idem_icon_k())
    assert not ok and inv is None

    tw = corpus.twisted_icon(1)
    ok, inv = is_invertible_icon(tw)
    assert ok
    # coefficients are self-inverse, so the inverse has the same cells
    assert icon_cells(inv) == icon_cells(tw)
    back = vcomp_icons(inv, tw)
    assert icon_cells(back) == icon_cells(identity_icon(tw.source))


def test_icon_compat_violations_detected():
    b = corpus.cocycle_twisted()
    one = identity_lax(b)
    tw = corpus.twisted_identity(b)
    bad = monoidal_to_icon("bad", {0: (0, 0), 1: (1, 0)}, one, tw)
    rep = validate_icon(bad)
    assert not rep.ok
    kinds = {v.kind for v in rep.violations}
    assert "composition-compat" in kinds
    assert "unit-compat" in kinds


def test_object_map_mismatch_is_structural():
    b = corpus.walking_arrow()
    f = identity_lax(b)
    g = corpus.collapse_to_start(b)
    assert validate_lax_functor(g).ok
    rep = validate_icon(Icon("bad", f, g, {}))
    assert rep.structural_failure
    assert rep.first("object-maps-differ") is not None
    assert list(enumerate_icons(f, g)) == []


def test_hcomp_icons_two_pastings_agree():
    kappa = corpus.idem_icon_k()
    both = hcomp_icons(kappa, kappa)
    assert validate_icon(both).ok
    t = kappa.source.target
    for f in ("u", "s"):
        one_way = both.at(f)
        other = t.vcomp(kappa.target.on_2(kappa.at(f)),
                        kappa.at(kappa.source.on_1(f)))
        assert one_way == other


def test_whiskering_by_identity_functor_keeps_cells():
    kappa = corpus.idem_icon_k()
    one = identity_lax(kappa.source.target)
    assert icon_cells(whisker_icon_left(one, kappa)) == icon_cells(kappa)
    assert icon_cells(whisker_icon_right(kappa, one)) == icon_cells(kappa)


def test_whiskers_equal_hcomp_with_identity_icons():
    bics, fams, icons = _law_universe()
    checked = 0
    for (s, t), fam in icons.items():
        if len(fam) > 81:
            continue
        for h in [h for d in bics for h in fams[(t, d)]]:
            for _, _, alpha in fam:
                assert whisker_icon_left(h, alpha) == hcomp_icons(identity_icon(h), alpha)
                checked += 1
        for k in [k for c in bics for k in fams[(c, s)]]:
            for _, _, alpha in fam:
                assert whisker_icon_right(alpha, k) == hcomp_icons(alpha, identity_icon(k))
                checked += 1
    assert checked == 182203


def test_icon_interchange_on_idem_pair():
    idem = corpus.sigma_idem()
    one = identity_lax(idem)
    pool = list(enumerate_icons(one, one))
    assert len(pool) == 2
    for a1 in pool:
        for a2 in pool:
            for b1 in pool:
                for b2 in pool:
                    lhs = vcomp_icons(hcomp_icons(b2, a2), hcomp_icons(b1, a1))
                    rhs = hcomp_icons(vcomp_icons(b2, b1), vcomp_icons(a2, a1))
                    assert icon_cells(lhs) == icon_cells(rhs)


def test_monoidal_dictionary_round_trip():
    tw = corpus.twisted_icon(1)
    fam = icon_to_monoidal(tw)
    assert fam == {0: (0, 1), 1: (1, 1)}
    back = monoidal_to_icon("back", fam, tw.source, tw.target)
    assert validate_icon(back).ok
    assert icon_cells(back) == icon_cells(tw)


def test_monoidal_dictionary_needs_one_object():
    wa = corpus.walking_arrow()
    with pytest.raises(UnsupportedSettingError):
        icon_to_monoidal(identity_icon(identity_lax(wa)))


def test_monoidal_nats_count_as_icons_on_corpus_pairs():
    from bicatkit.laxfun import sigma_functor
    from bicatkit.oracles import enumerate_monoidal_nats

    for pname in corpus.MONOIDAL_PAIRS:
        mf, mg, b = corpus.get_monoidal_pair(pname)
        sf, sg = sigma_functor(mf, b, b), sigma_functor(mg, b, b)
        nats = list(enumerate_monoidal_nats(mf, mg))
        icons = list(enumerate_icons(sf, sg))
        assert len(nats) == len(icons), pname
        def canon(cells):
            return repr(sorted((repr(p), sorted(map(repr, d.items())))
                               for p, d in cells.items()))

        seen = []
        for theta in nats:
            ic = monoidal_to_icon("t", theta, sf, sg)
            assert validate_icon(ic).ok
            assert icon_to_monoidal(ic) == theta
            seen.append(canon(icon_cells(ic)))
        assert sorted(seen) == sorted(canon(icon_cells(i)) for i in icons)


def test_monoidal_identity_nat_deloops_to_identity_icon():
    from bicatkit.laxfun import sigma_functor
    from bicatkit.oracles import enumerate_monoidal_nats

    mf, _, b = corpus.get_monoidal_pair("idem-pair")
    sf = sigma_functor(mf, b, b)
    idnat = {x: mf.source.cat.identity[x] for x in mf.source.cat.objects}
    assert idnat in list(enumerate_monoidal_nats(mf, mf))
    ic = monoidal_to_icon("id", idnat, sf, sf)
    assert icon_cells(ic) == icon_cells(identity_icon(sf))
