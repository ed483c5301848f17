"""Finite simplicial complexes with ghost vertices.

Vertices are the positions 1..m of a fixed ground set; faces are stored as
bit masks (bit i-1 set means vertex i belongs to the face).  A complex keeps
only its facet antichain; closure is implicit.  Ghost vertices (positions in
no facet) are first-class: the ground size ``m`` is independent of the
support of the facets, so the empty complex on m vertices is representable.

The records of the package are named tuples, so importing it loads neither
``dataclasses`` nor ``inspect``.  A record hashes as the tuple of its fields,
as a frozen dataclass does, but it also equals a plain tuple of the same
values and is iterable: no code compares a record with a tuple or mixes
record types in one dict, or calls ``_make`` or ``_replace``, which skip the
checks in ``__new__``.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from math import comb

MAX_GROUND = 64


class LabelCapError(ValueError):
    """A ground set of more than MAX_GROUND labels, which a mask cannot hold."""


class DegenerateComplexError(ValueError):
    """Raised for operations undefined on the empty complex (dimension -1)."""


def json_int(value) -> int:
    """An integer field of a JSON input, which must be a JSON integer: a
    bool, float or string raises TypeError rather than being converted."""
    if type(value) is not int:  # bool is a subclass of int
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def mask_of(vertices) -> int:
    """Bit mask for an iterable of 1-based vertex labels."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based vertex labels of a bit mask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def submasks(mask: int):
    """All subsets of ``mask``, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def faces_of(facets) -> set[int]:
    """Every face of the complex with these facet masks, the empty one too:
    the face lister of ``f_vector`` and ``bier_sphere``."""
    faces = {0}
    add = faces.add
    for f in facets:
        sub = f
        while sub:
            add(sub)
            sub = (sub - 1) & f
    return faces


def ridges_in_two(facets) -> bool:
    """Every codimension-1 subset of a member of the family of masks lies in
    exactly two members."""
    once: set[int] = set()  # the ridges seen, and those seen twice
    twice: set[int] = set()
    add_once, add_twice = once.add, twice.add
    for f in facets:
        rest = f
        while rest:
            low = rest & -rest
            rest ^= low
            ridge = f ^ low
            if ridge in once:
                if ridge in twice:
                    return False
                add_twice(ridge)
            else:
                add_once(ridge)
    return len(once) == len(twice)


def h_of_f(f: tuple[int, ...]) -> tuple[int, ...]:
    """The h-vector (h_0, ..., h_n) of a pure complex with f-vector
    (f_0, ..., f_{n-1}), exactly over the integers."""
    n = len(f)
    fext = (1,) + f  # f_{-1} = 1
    h = []
    for k in range(n + 1):
        # coefficient of t^{n-k} in sum_i f_{i-1} (t-1)^{n-i}
        coeff = 0
        for i in range(k + 1):
            coeff += fext[i] * comb(n - i, k - i) * (-1) ** (k - i)
        h.append(coeff)
    return tuple(h)


def euler_of_f(f: tuple[int, ...]) -> int:
    """The Euler characteristic f_0 - f_1 + f_2 - ... of a complex."""
    return sum((-1) ** i * fi for i, fi in enumerate(f))


def _antichain(masks) -> frozenset[int]:
    """Inclusion-maximal elements of a family of masks; {0} if family empty.

    Masks are taken by decreasing size and each is compared only with the
    kept masks of larger size: a mask with a strict superset in the family
    has a maximal one, which is larger and so already kept.
    """
    by_size: dict[int, list[int]] = {}
    for f in set(masks):
        by_size.setdefault(f.bit_count(), []).append(f)
    kept: list[int] = []
    for size in sorted(by_size, reverse=True):
        kept += [f for f in by_size[size] if all(f | g != g for g in kept)]
    return frozenset(kept) if kept else frozenset({0})


class SimplicialComplex(namedtuple("SimplicialComplex", "m facets")):
    """A simplicial complex given by ground size m and facet antichain (masks)."""

    __slots__ = ()

    def __new__(cls, m: int, facets: frozenset[int]):
        if m > MAX_GROUND:
            raise LabelCapError(f"ground size {m} exceeds the {MAX_GROUND}-label cap")
        if m < 1:
            raise ValueError(f"ground size must be in 1..{MAX_GROUND}, got {m}")
        full = (1 << m) - 1
        for f in facets:
            if f & ~full:
                raise ValueError("facet contains label out of range")
        return super().__new__(cls, m, facets)

    # -- construction -------------------------------------------------

    @classmethod
    def from_facets(cls, m: int, facets) -> "SimplicialComplex":
        """Build from any generating family of faces (1-based label lists).

        Dominated and duplicate faces are absorbed; an empty family yields
        the empty complex on m all-ghost vertices.
        """
        masks = []
        for face in facets:
            for v in face:
                if not 1 <= v <= m:
                    raise ValueError(f"label {v} out of range 1..{m}")
            masks.append(mask_of(face))
        return cls(m, _antichain(masks))

    @classmethod
    def empty(cls, m: int) -> "SimplicialComplex":
        return cls(m, frozenset({0}))

    @classmethod
    def simplex(cls, m: int) -> "SimplicialComplex":
        """The full simplex on [m]."""
        return cls(m, frozenset({(1 << m) - 1}))

    @classmethod
    def simplex_boundary(cls, m: int) -> "SimplicialComplex":
        full = (1 << m) - 1
        return cls(m, frozenset(full & ~(1 << i) for i in range(m)))

    # -- basic structure ----------------------------------------------

    @property
    def dim(self) -> int:
        return max(f.bit_count() for f in self.facets) - 1

    @property
    def is_void_of_faces(self) -> bool:
        """True for the empty complex (only the empty face)."""
        return self.facets == frozenset({0})

    @property
    def is_full_simplex(self) -> bool:
        return self.facets == frozenset({(1 << self.m) - 1})

    def is_pure(self) -> bool:
        sizes = {f.bit_count() for f in self.facets}
        return len(sizes) == 1

    def is_face(self, mask: int) -> bool:
        for f in self.facets:
            if not mask & ~f:
                return True
        return False

    def vertex_mask(self) -> int:
        """Mask of non-ghost vertices."""
        acc = 0
        for f in self.facets:
            acc |= f
        return acc

    def ghost_vertices(self) -> tuple[int, ...]:
        full = (1 << self.m) - 1
        return vertices_of(full & ~self.vertex_mask())

    # -- invariants ----------------------------------------------------

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_{dim}); undefined for the empty complex."""
        if self.is_void_of_faces:
            raise DegenerateComplexError("empty complex has no f-vector")
        counts = Counter(map(int.bit_count, faces_of(self.facets)))
        # a tuple built from a generator keeps the slack of its growth
        return tuple([counts[k] for k in range(1, max(counts) + 1)])

    def h_vector(self) -> tuple[int, ...]:
        """(h_0, ..., h_n) for a pure complex of dimension n-1.

        Expands h_0 t^n + ... + h_n = (t-1)^n + f_0 (t-1)^{n-1} + ... + f_{n-1}
        exactly over the integers.
        """
        if not self.is_pure():
            raise ValueError("h-vector requires a pure complex")
        return h_of_f(self.f_vector())

    def minimal_non_faces(self) -> list[int]:
        """Inclusion-minimal non-faces sorted by (size, mask); [] for the full
        simplex, ghost vertices as singletons.  A non-face is a set meeting the
        complement of every facet, so these are the minimal transversals of the
        complements, grown one facet at a time (Berge multiplication): the sets
        that miss the next complement are grown by each of its labels b and
        compared only with the kept sets that meet it exactly in b.
        """
        full = (1 << self.m) - 1
        family = [0]
        # Complements in increasing order: those inside [j] come first, and
        # their minimal transversals are at most as many as the final ones.
        for f in sorted(self.facets, reverse=True):
            comp = full & ~f
            kept = []  # the sets that already meet comp
            free = []  # the others, each grown by every label b of comp
            for t in family:
                if t & comp:
                    kept.append(t)
                else:
                    free.append(t)
            if not free:
                continue
            # A grown t + b lies in no other (t + b in t' + b' forces t = t' in an
            # antichain), so only kept sets are compared: those meeting comp in b.
            near: dict[int, list[int]] = {}
            for k in kept:
                near.setdefault(k & comp, []).append(k)
            rest = comp
            while rest:
                b = rest & -rest
                rest ^= b
                above = near.get(b)
                if above is None:
                    kept += [t | b for t in free]
                    continue
                for t in free:
                    s = t | b
                    for k in above:
                        if not k & ~s:
                            break
                    else:
                        kept.append(s)
            family = kept
        family.sort()
        family.sort(key=int.bit_count)  # stable: (size, mask)
        return family

    def is_flag(self) -> bool:
        return all(s.bit_count() <= 2 for s in self.minimal_non_faces())

    # -- derived complexes ----------------------------------------------

    def stellar_subdivision(self, sigma: int) -> "SimplicialComplex":
        """Stellar subdivision at the nonempty face sigma.

        The fresh vertex gets the label m+1.  Facets containing sigma are
        replaced by (F minus one vertex of sigma) + new vertex.  The result
        is an antichain as it stands.  A new facet lies only in sets with the
        new vertex, and (F - v) + new inside (F' - v') + new puts F - v and
        v (in sigma) inside F', so F = F' and v = v'.  An untouched facet G
        misses part of sigma, and G inside F - v would give G = F, which
        contains sigma.
        """
        if sigma == 0 or not self.is_face(sigma):
            raise ValueError("sigma must be a nonempty face")
        new_bit = 1 << self.m
        new_facets = set()
        for f in self.facets:
            if sigma & ~f:
                new_facets.add(f)
                continue
            rest = sigma
            while rest:
                low = rest & -rest
                new_facets.add((f & ~low) | new_bit)
                rest &= rest - 1
        return SimplicialComplex(self.m + 1, frozenset(new_facets))

    def with_ground(self, m: int) -> "SimplicialComplex":
        """Same facets on a larger ground set; the new labels are ghosts."""
        if m < self.m:
            raise ValueError("ground set can only grow")
        return SimplicialComplex(m, self.facets)

    def is_pseudomanifold(self) -> bool:
        """Pure and every codimension-1 face lies in exactly two facets."""
        return self.is_pure() and self.dim >= 0 and ridges_in_two(self.facets)

    # -- serialization ---------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "facets": [list(vertices_of(f)) for f in sorted(self.facets)],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SimplicialComplex":
        return cls.from_facets(
            json_int(obj["m"]), [list(map(json_int, face)) for face in obj["facets"]]
        )
