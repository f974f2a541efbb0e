"""Random finite-index subgroups of the modular group against the genus
formulas, at every weight from -2 to 30."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import millington, subgroup_eisenstein_one, subgroup_oracle
from vvmf.dimensions import EXACT, dim_table
from vvmf.modrep import validate


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
