"""A valid bicategory whose unitors are neither identities nor equal to each
other, shared by the nerve and lax-functor tests: every bundled bicategory
has identity unitors, so only here can a check tell the left unitor from the
right one."""

from bicatkit import corpus
from bicatkit.bicat import validate_bicategory


def unequal_unitors():
    """The delooping of Z/2 with coefficients Z/2 whose associator is the
    coboundary of the 2-cochain that is 1 at (0, 1) alone, and whose left
    unitor at the 1-cell 1 is (1, 1), where its right unitor is the
    identity (1, 0); with identity unitors at the unit 0, the triangle law
    asks for exactly that."""
    def twist(h, g, f):
        phi = {(0, 1): 1}.get
        return (phi((g, f), 0) + phi((h ^ g, f), 0) + phi((h, g ^ f), 0) + phi((h, g), 0)) % 2

    b = corpus.z2_twist_instance("unequal-unitors", {
        (h, g, f): twist(h, g, f) for h in (0, 1) for g in (0, 1) for f in (0, 1)})
    b.left_unitor[1] = (1, 1)
    assert validate_bicategory(b).ok
    assert (b.lunit(1), b.runit(1)) == ((1, 1), (1, 0))
    return b
