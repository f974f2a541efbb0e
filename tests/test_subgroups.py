"""Random finite-index subgroups of the modular group and the principal
congruence subgroups Gamma(3..5) against the genus formulas, at every
weight from -2 to 30."""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import (
    gamma_oracle,
    millington,
    orbit_commutant,
    sl2_regular,
    subgroup_eisenstein_one,
    subgroup_oracle,
)
from vvmf.dimensions import EXACT, certify_irreducible, dim_table
from vvmf.modrep import commutant_dimension, parity_split, validate


def assert_genus_table(rep):
    """rep's table at weights -2..30 equals the genus formulas; at weight
    one, an exact odd table has dim M_1 - dim S_1 = half the regular cusps."""
    for w, m, s in dim_table(rep, -2, 30):
        oracle = subgroup_oracle(rep, w)
        if oracle is not None:
            assert (m.value, s.value) == oracle, (rep.name, w)
            assert m.status == s.status == EXACT, (rep.name, w)
        elif m.status == EXACT:
            assert m.value - s.value == subgroup_eisenstein_one(rep), rep.name


# The seed derandomize=True drew from this body, fixed so that edits keep the draws.
@seed(int("ea0c0160c824b8a50576e5b7acf0e4b4e611716092a9f756"
          "0ae15d0f6019ff64c6d10fe0087a604f99ddd176c744629d", 16))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**32 - 1), st.booleans())
def test_subgroup_tables_match_the_genus_formulas(d, seed, odd):
    # An odd input needs an even degree: x has no fixed point.
    rep = millington(max(2, d - d % 2) if odd else d, seed, odd)
    validate(rep)
    assert_genus_table(rep)


@pytest.mark.parametrize("d, seed, order", [(400, 1, 29945520), (300, 2, 24583104)])
def test_large_odd_subgroups_certify_their_t_order(d, seed, order):
    # Irregular cusps give t cycles whose entries multiply to -1.  At these
    # orders Python's complex power misses (-1)^(n/L) = 1 by 1.3e-9 and
    # 3.3e-9, beyond the tolerance, so the exponent must be reduced exactly.
    rep = millington(d, seed, odd=True)
    assert validate(rep).t_order == order
    assert_genus_table(rep)


@pytest.mark.parametrize("n, degree", [(3, 24), (4, 48), (5, 120)])
def test_full_level_tables_match_the_genus_formulas(n, degree):
    # Weight one waits for a decomposition of the odd part into its
    # irreducible summands; the genus formulas give only M_1 - S_1 there.
    rep = sl2_regular(n)
    assert rep.degree == degree
    for w, m, s in dim_table(rep, -2, 30):
        if w != 1:
            assert (m.value, s.value) == gamma_oracle(n, w), w
            assert m.status == s.status == EXACT, w


@pytest.mark.parametrize("n, degree", [(3, 24), (4, 48), (5, 120)])
def test_full_level_commutants_are_the_group_orders(n, degree):
    # The commutant of the regular representation of a group G has
    # dimension |G|, the sum of the squared degrees of the irreducible
    # representations of G.  Those on which -1 acts as 1 are the ones of
    # G / {1, -1}, whose squared degrees sum to |G| / 2, so each parity
    # part has half.
    rep = sl2_regular(n)
    assert orbit_commutant(rep) == degree
    split = parity_split(rep)
    for part in (split.even_part, split.odd_part):
        assert commutant_dimension(part) == degree // 2, part.name
        assert not certify_irreducible(part), part.name
