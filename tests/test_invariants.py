import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    conjugate,
    fraction_floor_trace,
    fraction_floor_trace_complement,
    fraction_offset,
    gamma_sequence_check,
    p1_sum,
    signature_of_twist,
)
from vvmf.invariants import (
    ExponentData,
    Signature,
    floor_trace,
    floor_trace_complement,
    part_invariants,
    signature,
    t_eigenphases,
)
from vvmf.linalg import SnapFailure
from vvmf.modrep import (
    ModularRepresentation,
    ParityError,
    build_kappa_power,
    build_p1_permutation,
    build_rho0,
    contragredient,
    direct_sum,
    find_t_order,
    parity_split,
    tensor_kappa,
)

F = Fraction

EVEN_KAPPAS = [2, 4, 6, 8, 10]
ODD_KAPPAS = [1, 3, 5, 7, 9, 11]


def even_parts(catalog_reps):
    for rep in catalog_reps.values():
        part = parity_split(rep).even_part
        if part.degree:
            yield part


def odd_parts(catalog_reps):
    for rep in catalog_reps.values():
        part = parity_split(rep).odd_part
        if part.degree:
            yield part


def test_t_eigenphases_examples():
    assert t_eigenphases(build_rho0()) == (F(0),)
    assert t_eigenphases(build_kappa_power(1)) == (F(1, 12),)
    assert t_eigenphases(build_kappa_power(2)) == (F(1, 6),)
    assert t_eigenphases(build_p1_permutation(2)) == (F(0), F(0), F(1, 2))


def cycle_lengths(perm):
    """Cycle lengths of a permutation matrix, read off its nonzero entries."""
    image = np.argmax(np.abs(perm), axis=0)
    seen, lengths = set(), []
    for start in range(len(image)):
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j, length = image[j], length + 1
        if length:
            lengths.append(length)
    return lengths


def phase_case(moduli, seed=None, j=0):
    """A sum of p1(N), conjugated by a condition-10 matrix when seed is
    given, twisted by kappa^j."""
    label = "+".join(f"p1({n})" for n in moduli)
    label += "" if seed is None else f" conj {seed}"
    label += f"*k^{j}" if j else ""
    return pytest.param(moduli, seed, j, id=label)


PHASE_CASES = [phase_case((n,)) for n in range(3, 8)] + [
    phase_case((16, 27, 5)),
    phase_case((25, 27, 28)),
    phase_case((12,), seed=3),
    phase_case((7,), j=5),
]


@pytest.mark.parametrize("moduli, seed, j", PHASE_CASES)
def test_t_eigenphases_match_cycle_type(moduli, seed, j):
    # A cycle of length L contributes the phases 0, 1/L, ..., (L-1)/L,
    # and the twist by kappa^j moves every phase by j/12.
    perm = p1_sum(*moduli)
    rep = tensor_kappa(perm if seed is None else conjugate(perm, seed), j)
    lengths = cycle_lengths(perm.t_image)
    expected = sorted((F(k, length) + F(j, 12)) % 1 for length in lengths for k in range(length))
    assert t_eigenphases(rep) == tuple(expected)
    assert find_t_order(rep) == math.lcm(*lengths, 12 // math.gcd(j, 12))


def test_signature_examples(std2):
    assert signature(build_rho0()) == Signature(1, 0, 0, 0)
    assert signature(build_kappa_power(2)) == Signature(1, 1, 1, 0)
    assert signature(build_kappa_power(4)) == Signature(1, 0, 0, 1)
    assert signature(build_p1_permutation(2)) == Signature(3, 1, 1, 1)
    assert signature(build_p1_permutation(3)) == Signature(4, 2, 1, 1)
    assert signature(std2) == Signature(2, 1, 1, 1)


def test_signature_needs_even_parity():
    with pytest.raises(ParityError):
        signature(build_kappa_power(1))
    with pytest.raises(ParityError):
        signature(direct_sum(build_rho0(), build_kappa_power(1)))


def test_signature_additivity():
    a, b = build_p1_permutation(2), build_kappa_power(2)
    sig = signature(direct_sum(a, b))
    sa, sb = signature(a), signature(b)
    assert (sig.d, sig.alpha, sig.beta1, sig.beta2) == (
        sa.d + sb.d, sa.alpha + sb.alpha, sa.beta1 + sb.beta1, sa.beta2 + sb.beta2)


def test_signature_range_checks():
    with pytest.raises(ValueError):
        Signature(1, 2, 0, 0)
    with pytest.raises(ValueError):
        Signature(2, 0, 2, 1)
    with pytest.raises(ValueError):
        Signature(2, 0, -1, 0)


def test_trace_lambda_values():
    assert signature(build_rho0()).trace_lambda == 1
    assert signature(build_kappa_power(2)).trace_lambda == F(1, 6)
    assert signature(build_kappa_power(4)).trace_lambda == F(1, 3)
    assert signature(build_p1_permutation(2)).trace_lambda == F(3, 2)
    assert signature(build_p1_permutation(3)).trace_lambda == 2


def test_signature_of_twist_rows():
    sig = Signature(1, 0, 0, 0)
    assert signature_of_twist(sig, 0) == sig
    assert signature_of_twist(sig, 1) == Signature(1, 1, 0, 1)
    assert signature_of_twist(sig, 3) == Signature(1, 1, 0, 0)
    for k in range(-6, 7):
        assert signature_of_twist(sig, k) == signature_of_twist(sig, k + 6)


def test_signature_of_twist_matches_tensor(std2):
    reps = [build_rho0(), build_kappa_power(2), build_kappa_power(4),
            build_p1_permutation(2), build_p1_permutation(3), std2]
    for rep in reps:
        sig = signature(rep)
        for k in range(6):
            twisted = signature(tensor_kappa(rep, -2 * k))
            assert twisted == signature_of_twist(sig, k), (rep.name, k)


def test_integer_offset():
    assert part_invariants(parity_split(build_rho0()), False).exp.integer_offset() == 1
    assert part_invariants(parity_split(build_kappa_power(10)), False).exp.integer_offset() == -1
    assert part_invariants(parity_split(build_p1_permutation(3)), False).exp.integer_offset() == 1
    with pytest.raises(SnapFailure):
        ExponentData((F(1, 2),), F(1, 3)).integer_offset()


def test_floor_trace_examples():
    assert floor_trace(part_invariants(parity_split(build_rho0()), False).exp, 0) == 1
    assert floor_trace(part_invariants(parity_split(build_kappa_power(2)), False).exp, 0) == 0


def test_floor_trace_integer_shift():
    for rep in (build_rho0(), build_kappa_power(4), build_p1_permutation(2)):
        exp = part_invariants(parity_split(rep), False).exp
        d = exp.degree
        for s in (F(0), F(1, 12), F(5, 6)):
            assert floor_trace(exp, s + 1) == floor_trace(exp, s) + d
            assert floor_trace_complement(exp, s + 1) == floor_trace_complement(exp, s) + d


phases = st.integers(1, 5000).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: F(p, q)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.lists(phases, max_size=24).map(sorted), st.integers(-40, 40), st.integers(2, 5000))
def test_integer_floor_traces_match_fractions(phase_list, offset, bad_denominator):
    exp = ExponentData(tuple(phase_list), sum(phase_list, F(0)) + offset)
    assert exp.integer_offset() == fraction_offset(exp) == offset
    for shift in (F(0), F(1, 12), F(11, 12), F(1)):
        assert floor_trace(exp, shift) == fraction_floor_trace(exp, shift)
        assert floor_trace_complement(exp, shift) == fraction_floor_trace_complement(exp, shift)
    off = ExponentData(exp.phases, exp.trace_lambda + F(1, bad_denominator))
    for derive in (ExponentData.integer_offset, fraction_offset,
                   lambda e: floor_trace(e, F(1, 12)),
                   lambda e: floor_trace_complement(e, F(11, 12))):
        with pytest.raises(SnapFailure, match="non-integer"):
            derive(off)


def negated(exp):
    # Data of the negated logarithm, phases flipped mod 1.  Not the dual's
    # exponent data in general: the dual canonicalizes its logarithm
    # differently.
    flipped = tuple(sorted(F(0) if x == 0 else 1 - x for x in exp.phases))
    return ExponentData(flipped, -exp.trace_lambda)


def test_negated_data_gives_complement():
    for rep in (build_rho0(), build_kappa_power(2), build_p1_permutation(2),
                build_p1_permutation(3)):
        exp = part_invariants(parity_split(rep), False).exp
        assert floor_trace_complement(exp, 1) == floor_trace(negated(exp), 1)
        neg = negated(exp)
        assert neg.trace_lambda == -exp.trace_lambda
        assert neg.degree == exp.degree


def test_even_invariants_frozen_values(std2):
    cases = [
        (build_rho0(), 1, 0, 1, (0, -1, 0, 0, 0, 0)),
        (build_kappa_power(2), 0, 0, 0, (0, 1, 0, 1, 1, 1)),
        (build_kappa_power(4), 0, 0, 0, (0, 0, 1, 0, 1, 1)),
        (build_p1_permutation(2), 1, -1, 1, (0, 0, 1, 1, 2, 2)),
        (build_p1_permutation(3), 1, -1, 1, (0, 0, 1, 2, 2, 3)),
        (std2, 0, -1, 0, (0, 1, 1, 1, 2, 2)),
    ]
    for rep, lam_plus, lam_minus, h0, base in cases:
        inv = part_invariants(parity_split(rep), False)
        assert inv.lambda_plus == lam_plus, rep.name
        assert inv.lambda_minus == lam_minus, rep.name
        assert inv.h0 == h0, rep.name
        assert inv.gamma_base == base, rep.name


def test_gamma_periodicity_and_zero(catalog_reps):
    for part in even_parts(catalog_reps):
        inv = part_invariants(parity_split(part), False)
        assert inv.gamma(0) == 0
        for k in range(-12, 13):
            assert inv.gamma(k + 6) == inv.gamma(k) + part.degree


def test_gamma_recurrences():
    for rep in (build_rho0(), build_kappa_power(2),
                parity_split(build_p1_permutation(2)).even_part):
        assert gamma_sequence_check(part_invariants(parity_split(rep), False), 20)


def test_odd_invariants_kappa():
    inv = part_invariants(parity_split(build_kappa_power(1)), True)
    assert inv.h0 is None
    assert inv.lambda_plus == 1
    assert inv.lambda_minus == 1
    assert [inv.gamma(k) for k in range(7)] == [0, -1, 0, 0, 0, 0, 1]


def test_odd_invariants_kappa_cubed():
    inv = part_invariants(parity_split(build_kappa_power(3)), True)
    assert inv.sig == signature(build_kappa_power(2))
    assert inv.lambda_plus == 0


def test_odd_invariants_kappa_eleventh():
    # The value pairs with the first power through the odd dual identity
    # lambda_plus(dual) == -lambda_minus(rep).
    inv = part_invariants(parity_split(build_kappa_power(11)), True)
    first = part_invariants(parity_split(build_kappa_power(1)), True)
    assert inv.lambda_plus == -first.lambda_minus
    assert inv.lambda_plus == -1


def test_part_invariants_need_a_pure_part():
    # The side of the split sets the parity; a mixed representation is
    # read one part at a time.
    split = parity_split(direct_sum(build_rho0(), build_kappa_power(1)))
    assert part_invariants(split, False).parity == 1
    assert part_invariants(split, True).parity == -1
    # kappa^1 has the phase 1/12, and its even partner the phase 0.
    assert part_invariants(split, True).exp.phases == (0,)
    assert part_invariants(parity_split(build_kappa_power(1)), True).parity == -1
    assert part_invariants(parity_split(build_kappa_power(2)), False).parity == 1


def test_phase_zero_count(catalog_reps):
    for part in even_parts(catalog_reps):
        inv = part_invariants(parity_split(part), False)
        zeros = sum(1 for x in inv.exp.phases if x == 0)
        assert inv.lambda_plus - inv.lambda_minus == zeros, part.name


def test_dot_lambda_boundary_phase_count(catalog_reps):
    for part in odd_parts(catalog_reps):
        inv = part_invariants(parity_split(part), True)
        boundary = sum(1 for x in inv.exp.phases if x == F(11, 12))
        assert inv.lambda_plus - inv.lambda_minus == boundary, part.name


def test_dot_lambda_chain(catalog_reps):
    for part in odd_parts(catalog_reps):
        inv = part_invariants(parity_split(part), True)
        partner = tensor_kappa(part, -1)
        assert part_invariants(parity_split(partner), False).lambda_plus <= inv.lambda_minus
        assert inv.lambda_minus <= inv.lambda_plus


def test_dual_gamma_identity(catalog_reps):
    for part in even_parts(catalog_reps):
        inv = part_invariants(parity_split(part), False)
        inv_dual = part_invariants(parity_split(contragredient(part)), False)
        for k in range(-20, 21):
            assert inv_dual.gamma(k) == inv.gamma(1) - inv.gamma(1 - k), part.name


def test_reciprocity_even(catalog_reps):
    for part in even_parts(catalog_reps):
        inv = part_invariants(parity_split(part), False)
        inv_dual = part_invariants(parity_split(contragredient(part)), False)
        assert inv.lambda_plus + inv_dual.lambda_minus == -inv.gamma(1), part.name
        assert inv_dual.lambda_plus + inv.lambda_minus == -inv.gamma(1), part.name


def test_reciprocity_odd(catalog_reps):
    for part in odd_parts(catalog_reps):
        inv = part_invariants(parity_split(part), True)
        inv_dual = part_invariants(parity_split(contragredient(part)), True)
        assert inv_dual.lambda_plus == -inv.lambda_minus, part.name
        for k in range(-20, 21):
            assert inv_dual.gamma(k) == -inv.gamma(-k), part.name


def test_lambda_plus_nonpositive_for_nontrivial_irreducible(std2):
    reps = [build_kappa_power(j) for j in EVEN_KAPPAS] + [std2]
    for rep in reps:
        assert part_invariants(parity_split(rep), False).lambda_plus <= 0, rep.name


def test_lambda_order(catalog_reps):
    for part in even_parts(catalog_reps):
        inv = part_invariants(parity_split(part), False)
        assert inv.lambda_minus <= inv.lambda_plus
