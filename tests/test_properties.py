"""Hypothesis properties of the Bier construction on random complexes."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from biersphere.bier import alexander_dual, bier_sphere  # noqa: E402
from biersphere.complexes import SimplicialComplex, _antichain  # noqa: E402


@st.composite
def non_simplex_complexes(draw, max_m=7):
    m = draw(st.integers(2, max_m))
    full = (1 << m) - 1
    masks = draw(st.lists(st.integers(0, full - 1), max_size=6))
    return SimplicialComplex(m, _antichain(masks))


@settings(deadline=None, max_examples=150)
@given(non_simplex_complexes())
def test_swapped_sphere_is_bier_of_dual(K):
    m = K.m
    low = (1 << m) - 1
    S = bier_sphere(K).complex
    swapped = frozenset((f >> m) | ((f & low) << m) for f in S.facets)
    assert bier_sphere(alexander_dual(K)).complex.facets == swapped


@settings(deadline=None, max_examples=150)
@given(non_simplex_complexes(max_m=8))
def test_minimal_non_faces_rebuild_the_complex(K):
    # brute force over all 2^m subsets: the faces are the sets that contain
    # no minimal non-face
    mnf = K.minimal_non_faces()
    faces = [s for s in range(1 << K.m) if not any(s & n == n for n in mnf)]
    assert SimplicialComplex(K.m, _antichain(faces)) == K


@settings(deadline=None, max_examples=150)
@given(non_simplex_complexes(max_m=8))
def test_alexander_dual_is_an_involution(K):
    assert alexander_dual(alexander_dual(K)) == K
