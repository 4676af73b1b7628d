"""The members of acceptance criterion 2's law universe as Icons.

`_law_universe` holds each icon as its row, ``(i, j, row)``.  The tests
that compare whole Icons rebuild each member as the Icon that
`enumerate_icons` yields for it.
"""

from bicatkit.acceptance import _law_universe
from bicatkit.icon import Icon, _families, row_order


def as_icon(f, g, row):
    """The Icon `enumerate_icons(f, g)` yields with the row `row`: named
    "enum", with the cell table that reads `row` in `row_order`, and with
    a dict of its own that names the family at each hom pair of f's hom
    functors "enum"."""
    return Icon("enum", f, g, dict(zip(row_order(f.source), row)),
                dict.fromkeys(_families(f), "enum"))


def universe_icons():
    """`_law_universe()` with each member ``(i, j, row)`` of a family
    rebuilt as ``(i, j, icon)``, icon from lax functor i to lax functor j."""
    bics, fams, icons = _law_universe()
    return bics, fams, {key: [(i, j, as_icon(fams[key][i], fams[key][j], row))
                              for i, j, row in fam]
                        for key, fam in icons.items()}
