"""Alexander duality, deleted joins and the Bier sphere construction.

The doubled ground set uses the fixed position convention x_i -> i and
y_i -> m+i, so minimal non-face tables print stably in x/y notation.
``BierSphere`` is a named tuple, so it equals a plain tuple (see complexes).
"""

from __future__ import annotations

from collections import namedtuple

from .complexes import MAX_GROUND, SimplicialComplex, faces_of, submasks, vertices_of


class FullSimplexError(ValueError):
    """Alexander dual (and the Bier sphere) are undefined for the simplex."""


def alexander_dual(K: SimplicialComplex) -> SimplicialComplex:
    """Complex on a fresh copy of [m] whose facets are the complements of the antichain MF(K)."""
    if K.is_full_simplex:
        raise FullSimplexError("Alexander dual undefined for the full simplex")
    full = (1 << K.m) - 1
    return SimplicialComplex(K.m, frozenset(full & ~s for s in K.minimal_non_faces()))


def _star(facets, s: int) -> int:
    """The union of the facets that contain s: s and its link, the labels v
    with s + v a face."""
    union = 0
    for f in facets:
        if f & s == s:
            union |= f
    return union


def _check_doubled_ground(m: int) -> None:
    if 2 * m > MAX_GROUND:
        raise ValueError(
            f"the doubled ground of 2m = {2 * m} positions exceeds the {MAX_GROUND}-label cap"
        )


def deleted_join(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Deleted join on 2m positions: faces sigma ++ tau with sigma, tau disjoint.

    Built facet-wise: for facets f1, f2 with intersection I, the maximal
    disjoint pairs inside f1 x f2 arise by splitting I between the two sides,
    sigma = f1 - a and tau = f2 - (I - a) for each a inside I.  Every face
    lies in such a candidate and the join is closed under subsets, so a
    candidate is a facet exactly when no free label (one in neither sigma
    nor tau) extends it: when the free labels miss both link_K1(sigma) and
    link_K2(tau), or equally the stars, the unions of the facets through
    sigma and tau.  Each star is one pass over one side's facets, memoised
    per call.  Refused when 2m exceeds the label cap.
    """
    if K1.m != K2.m:
        raise ValueError("ground sizes differ")
    m = K1.m
    _check_doubled_ground(m)
    stars1: dict[int, int] = {}
    stars2: dict[int, int] = {}
    kept = set()
    for f1 in K1.facets:
        for f2 in K2.facets:
            inter = f1 & f2
            for a in submasks(inter):
                sigma = f1 & ~a
                tau = f2 & ~(inter & ~a)
                free = ~(sigma | tau)
                star1 = stars1.get(sigma)
                if star1 is None:
                    star1 = stars1[sigma] = _star(K1.facets, sigma)
                if star1 & free:
                    continue
                star2 = stars2.get(tau)
                if star2 is None:
                    star2 = stars2[tau] = _star(K2.facets, tau)
                if star2 & free:
                    continue
                kept.add(sigma | (tau << m))
    return SimplicialComplex(2 * m, frozenset(kept))


class BierSphere(namedtuple("BierSphere", "complex source_m")):
    """A Bier sphere: deleted join of K with its Alexander dual, and m."""

    __slots__ = ()

    def to_json_obj(self) -> dict:
        obj = self.complex.to_json_obj()
        obj["source_m"] = self.source_m
        obj["side_labels"] = True
        return obj


def _flip_replay(m: int, faces) -> frozenset[int]:
    """The facets of Bier(K) on 2m positions, reached from the Bier sphere of
    the complex with only the empty face by one checked bistellar flip per
    mask in ``faces``: the nonempty faces of K, each after its proper subsets.

    Start from the boundary of the simplex on y_1..y_m.  For each face sigma,
    with A = sigma on the x side and B = [m] - sigma on the y side, remove the
    |A| facets (A - a) + B and add the |B| facets A + (B - b); raise
    ``AssertionError`` unless every removed facet was present and no added one
    was.  The derivation is in ``bier_sphere``.
    """
    full = (1 << m) - 1
    held = {(full ^ (1 << i)) << m for i in range(m)}
    for sigma in faces:
        B = (full & ~sigma) << m
        rest = sigma
        while rest:
            low = rest & -rest
            old = (sigma ^ low) | B
            if old not in held:
                at = f"at face {list(vertices_of(sigma))}: a facet it removes is not held"
                raise AssertionError(f"Bier construction failed its sphere certificate {at}")
            held.remove(old)
            rest ^= low
        rest = B
        while rest:
            low = rest & -rest
            new = sigma | (B ^ low)
            if new in held:
                at = f"at face {list(vertices_of(sigma))}: a facet it adds is already held"
                raise AssertionError(f"Bier construction failed its sphere certificate {at}")
            held.add(new)
            rest ^= low
    return frozenset(held)


def _face_bound(K: SimplicialComplex) -> int:
    """Sum of 2^|F| over the facets: at least the number of faces of K."""
    return sum(1 << f.bit_count() for f in K.facets)


def bier_sphere(K: SimplicialComplex) -> BierSphere:
    """Bier(K), built by a replay of bistellar flips that proves it a PL sphere.

    The facets of Bier(K) = K *_Delta K^ are the pairs (rho, i) with rho in K,
    i not in rho and rho + i not in K: rho on the x side plus [m] - rho - i on
    the y side, whose complement rho + i is a non-face of K, so the y part
    lies in the dual.  So every facet is an x/y split of [m] minus one label,
    of size m - 1.  For the complex with only the empty face, the pairs are
    (0, i), and Bier is the boundary of the simplex on y_1..y_m.

    The nonempty faces sigma of K are added in increasing mask order, which
    extends inclusion.  Let L be the complex of the faces added so far, held
    as Bier(L), and take A = sigma on the x side and B = [m] - sigma on the y
    side, so |A| + |B| = m = dim + 2.  A facet (rho, i) contains B exactly
    when rho + i lies in sigma.  So (sigma - a, a) for a in sigma, the facets
    of the complex boundary(A) * B, is a facet exactly when sigma - a is in L
    and sigma is not, and "every one of them is present" says that sigma is a
    minimal non-face of L.  Then no other rho + i inside sigma is a non-face,
    so these are all the facets through B and lk(B) = boundary(A); and A is
    not a face, since a face with x part sigma needs sigma in L.  These are
    the conditions for the bistellar flip that replaces boundary(A) * B by
    A * boundary(B), the pairs (sigma, b) for b outside sigma.  No facet of
    Bier(L) has x part sigma, so none of these is held yet; the replay checks
    that too, which refuses the empty face, whose flip would add the starting
    facets again.  The result is Bier(L + sigma): the pairs (sigma - a, a)
    stop being facets, the pairs (sigma, b) become facets, and no other pair
    changes.  Flips preserve PL type (Pachner, 1991), so a replay whose every
    step passes proves that Bier(K) is a PL sphere of dimension m - 2 (see
    also Bjoerner, Paffenholz, Sjoestrand and Ziegler, "Bier spheres and
    posets", 2005); a face given before one of its boundary faces fails the
    first check.

    The replay costs about m steps per face.  A face of K^ is the complement
    of a non-face of K, so K and K^ have 2^m faces between them, and
    Bier(K^) is Bier(K) with the x and y sides swapped.  When the bound sum
    2^|F| over K's facets is at most 2^m, K's faces are listed and the side
    with fewer faces is replayed: K when it has at most 2^(m-1) faces, else
    K^, which has the other 2^m - |K|, so the dual is built only to be
    replayed.  Above 2^m, where listing K's faces could cost far more than
    the replay, the dual is built.  When its bound is at most K's, its faces
    are listed and the side with fewer faces is replayed, K on a tie; else K
    is.  So the boundary of the simplex on [m], whose dual has only the empty
    face, takes no flip instead of 2^m - 2.
    """
    if K.m < 2:
        raise ValueError("Bier sphere needs ground size m >= 2")
    _check_doubled_ground(K.m)
    if K.is_full_simplex:
        raise FullSimplexError("Bier sphere undefined for the full simplex")
    m = K.m
    half = 1 << (m - 1)
    bound = _face_bound(K)
    if bound <= 1 << m:
        side, faces = K, faces_of(K.facets)
        if len(faces) > half:
            side = alexander_dual(K)
            faces = faces_of(side.facets)
    else:
        side = alexander_dual(K)
        if _face_bound(side) > bound:
            side = K
        faces = faces_of(side.facets)
        if side is not K and len(faces) >= half:
            side, faces = K, faces_of(K.facets)
    held = _flip_replay(m, sorted(faces)[1:])
    if side is not K:
        full = (1 << m) - 1
        # a frozenset copied from a set is sized to fit; one grown from a
        # generator can hold twice the table, and census spheres are kept
        held = frozenset({(f >> m) | ((f & full) << m) for f in held})
    return BierSphere(SimplicialComplex(2 * m, held), m)


def bier_mf_formula(K: SimplicialComplex) -> list[int]:
    """MF(Bier(K)) predicted by the closed formula, as masks on 2m positions.

    MF(K) on the x side, MF of the dual on the y side, and the pairs x_i y_i
    over positions non-ghost in both K and the dual.  By Alexander duality
    the dual's minimal non-faces are the complements of K's facets, and i is
    a vertex of the dual exactly when [m] - {i} is not a face of K, so the
    dual is never built.
    """
    if K.is_full_simplex:
        raise FullSimplexError("Alexander dual undefined for the full simplex")
    m = K.m
    full = (1 << m) - 1
    out = K.minimal_non_faces()
    out.extend((full & ~f) << m for f in K.facets)
    # short of the simplex, [m] - {i} is a face of K only as a facet
    rest = K.vertex_mask() & ~sum(full & ~f for f in K.facets if f.bit_count() == m - 1)
    while rest:
        low = rest & -rest
        out.append(low | (low << m))
        rest &= rest - 1
    out.sort()
    out.sort(key=int.bit_count)  # stable: (size, mask), as minimal_non_faces
    return out


def ghost_count(K: SimplicialComplex) -> int:
    """Ghost count of Bier(K) from the f-vector formula |V| - f_0 + f_{|V|-2},
    both terms read off the facets: f_0 counts the non-ghost labels, and
    short of the simplex an (m - 2)-face is a facet."""
    if K.is_full_simplex:
        raise FullSimplexError("Bier sphere undefined for the full simplex")
    m = K.m
    top = sum(1 for f in K.facets if f.bit_count() == m - 1)
    return m - K.vertex_mask().bit_count() + top


def side_label(position: int, m: int) -> str:
    """Render a doubled-ground position as x_i / y_i."""
    if position <= m:
        return f"x{position}"
    return f"y{position - m}"


def render_mf(masks, m: int) -> list[str]:
    """x/y strings for minimal non-faces of a complex on 2m positions."""
    return ["".join(side_label(v, m) for v in vertices_of(s)) for s in masks]
