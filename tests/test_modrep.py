import cmath
import math

import numpy as np
import pytest

from helpers import enumerate_closure, p1_sum
from vvmf.linalg import Settings, is_identity, mat_pow, max_abs
from vvmf.modrep import (
    ASSERTED_REDUCIBLE,
    UNKNOWN,
    ModularRepresentation,
    RelationViolation,
    TOrderNotFound,
    build_kappa_power,
    build_p1_permutation,
    build_rho0,
    contragredient,
    direct_sum,
    find_t_order,
    parity,
    parity_split,
    st_inverse_image,
    tensor_kappa,
    validate,
)

ZETA12 = cmath.exp(2j * cmath.pi / 12)


def test_construction_checks():
    with pytest.raises(ValueError):
        ModularRepresentation([[1, 0]], [[1]])
    with pytest.raises(ValueError):
        ModularRepresentation([[1]], [[1], [2]])
    with pytest.raises(ValueError):
        ModularRepresentation([[1]], [[1]], irreducible_assertion="maybe")
    with pytest.raises(ValueError):
        ModularRepresentation([[1]], [[1]], irreducible_assertion="asserted-irreducible")


def test_images_are_read_only():
    rep = build_rho0()
    with pytest.raises(ValueError):
        rep.s_image[0, 0] = 5
    with pytest.raises(ValueError):
        rep.t_image[0, 0] = 5


def test_validate_rho0():
    report = validate(build_rho0())
    assert report.relations_ok
    assert report.t_order == 1
    assert report.max_residual <= 1e-9


def test_validate_kappa():
    report = validate(build_kappa_power(1))
    assert report.relations_ok
    assert report.t_order == 12


def test_validate_relation_violation():
    rep = ModularRepresentation([[1]], [[ZETA12]])
    with pytest.raises(RelationViolation) as exc:
        validate(rep)
    assert exc.value.relation == "(st)^3 = s^2"
    assert exc.value.residual > 1e-9


def test_overflowing_products_fail_the_relations():
    # s^2 overflows, so every residual is NaN, and NaN passes no gate.
    m = [[1e300, -1e300], [1e300, 1e300]]
    with pytest.raises(RelationViolation) as exc:
        validate(ModularRepresentation(m, m))
    assert exc.value.relation == "s^4 = 1"
    assert math.isnan(exc.value.residual)


def test_t_order_cap():
    rep = ModularRepresentation([[-1j]], [[ZETA12]])
    with pytest.raises(TOrderNotFound):
        find_t_order(rep, Settings(order_cap=5))
    assert find_t_order(rep, Settings(order_cap=12)) == 12
    assert validate(rep).t_order == 12


def power_search_order(rep, cap=400):
    """Reference order: the least n with t^n = 1, one power at a time."""
    power = np.eye(rep.degree, dtype=np.complex128)
    for n in range(1, cap + 1):
        power = power @ rep.t_image
        if is_identity(power):
            return n
    raise AssertionError(f"no t order up to {cap}")


def test_t_order_matches_power_search(catalog_reps):
    reps = list(catalog_reps.values()) + [
        tensor_kappa(build_p1_permutation(n), j) for n in range(2, 8) for j in (0, 1, 5)]
    for rep in reps:
        assert find_t_order(rep) == power_search_order(rep)


def test_order_cap_bounds_denominators_not_the_order():
    rep = p1_sum(25, 27, 28)
    assert find_t_order(rep, Settings(order_cap=28)) == 18900
    with pytest.raises(TOrderNotFound) as exc:
        find_t_order(rep, Settings(order_cap=27))
    assert exc.value.check == "denominator"
    assert "order cap 27" in str(exc.value)


def t_only(t):
    """A t image with the identity for s: enough for find_t_order."""
    return ModularRepresentation(np.eye(len(t)), t)


def test_irrational_t_phase_fails_without_looping():
    rep = t_only([[cmath.exp(2j * cmath.pi * 2 ** 0.5)]])
    with pytest.raises(TOrderNotFound) as exc:
        find_t_order(rep)
    assert exc.value.check == "denominator"
    # Under a cap no loop could walk, the first convergent within
    # tolerance is found and its power refused.
    with pytest.raises(TOrderNotFound) as exc:
        find_t_order(rep, Settings(order_cap=10 ** 12))
    assert exc.value.check == "power"


def test_non_unit_t_eigenvalue():
    with pytest.raises(TOrderNotFound) as exc:
        find_t_order(t_only([[1, 0], [0, 1.001]]))
    assert exc.value.check == "modulus"
    assert "1.000e-03" in str(exc.value)


def test_unipotent_t_has_no_order():
    # Every eigenvalue is 1, but t itself is not the identity.
    with pytest.raises(TOrderNotFound) as exc:
        find_t_order(t_only([[1, 1], [0, 1]]))
    assert exc.value.check == "power"
    assert "t^1 differs from the identity by 1.000e+00" in str(exc.value)


def test_t_order_proper_divisor_refused():
    # Under eps 9e-4 the phase 173/693 rationalises to 1/4, so the phases
    # give n = lcm(4, 7, 9, 11) = 2772, but t^1386 is already 1.
    phases = [173 / 693, 1 / 7, 1 / 9, 1 / 11]
    rep = t_only(np.diag([cmath.exp(2j * cmath.pi * x) for x in phases]))
    with pytest.raises(TOrderNotFound) as exc:
        find_t_order(rep, Settings(eps=9e-4))
    assert exc.value.check == "divisor"
    assert "t^1386 is already the identity" in str(exc.value)
    assert find_t_order(rep) == 693


def test_closure_sizes():
    assert len(enumerate_closure(build_kappa_power(1), 100)) == 12
    assert len(enumerate_closure(build_p1_permutation(2), 100)) == 6
    assert len(enumerate_closure(build_p1_permutation(3), 100)) == 12


def test_parity_values():
    assert parity(build_rho0()) == 1
    assert parity(build_kappa_power(1)) == -1
    assert parity(direct_sum(build_rho0(), build_kappa_power(1))) == 0


def test_parity_split_pure_even():
    split = parity_split(build_rho0())
    assert split.even_part.degree == 1
    assert split.odd_part.degree == 0
    assert np.allclose(split.even_part.t_image, [[1]])
    # A part that fills the whole space keeps the assertion of its source.
    pair = direct_sum(build_rho0(), build_rho0())
    assert parity_split(pair).even_part.irreducible_assertion == ASSERTED_REDUCIBLE


def test_parity_split_pure_odd():
    split = parity_split(build_kappa_power(1))
    assert split.even_part.degree == 0
    assert split.odd_part.degree == 1
    assert np.allclose(split.odd_part.s_image, [[-1j]])


def test_parity_split_mixed():
    rep = direct_sum(build_rho0(), build_kappa_power(1))
    split = parity_split(rep)
    assert split.even_part.degree == 1
    assert split.odd_part.degree == 1
    assert split.even_part.irreducible_assertion == UNKNOWN
    # The restricted matrices must reproduce the action on the column spans.
    for basis, part in ((split.even_basis, split.even_part),
                        (split.odd_basis, split.odd_part)):
        for g, g_part in ((rep.s_image, part.s_image), (rep.t_image, part.t_image)):
            assert max_abs(g @ basis - basis @ g_part) <= 1e-9


@pytest.mark.parametrize("expr", ["p1(2)", "p1(3)", "kappa^1+kappa^2", "p1(2)*k^2"])
def test_parity_split_preserves_traces(expr, catalog_reps):
    rep = catalog_reps[expr]
    split = parity_split(rep)
    for image, even_m, odd_m in (
        (rep.s_image, split.even_part.s_image, split.odd_part.s_image),
        (rep.t_image, split.even_part.t_image, split.odd_part.t_image),
    ):
        total = complex(np.trace(even_m)) + complex(np.trace(odd_m))
        assert abs(complex(np.trace(image)) - total) <= 1e-9
    u = st_inverse_image(rep)
    u_parts = complex(np.trace(st_inverse_image(split.even_part))) if split.even_part.degree else 0
    u_parts += complex(np.trace(st_inverse_image(split.odd_part))) if split.odd_part.degree else 0
    assert abs(complex(np.trace(u)) - u_parts) <= 1e-9


def test_direct_sum():
    two = direct_sum(build_rho0(), build_rho0())
    assert two.degree == 2
    assert np.array_equal(two.t_image, np.eye(2))
    assert two.irreducible_assertion == ASSERTED_REDUCIBLE
    mixed = direct_sum(build_kappa_power(1), build_kappa_power(2))
    assert mixed.degree == 2
    assert mixed.s_image[0, 0] == -1j and mixed.s_image[1, 1] == -1
    assert mixed.s_image[0, 1] == 0


def test_tensor_kappa_zero_and_full_turn():
    rep = build_p1_permutation(2)
    assert tensor_kappa(rep, 0) is rep
    assert tensor_kappa(rep, 12) is rep
    assert tensor_kappa(build_rho0(), 12).name == "rho0"


def test_tensor_kappa_composes():
    rep = build_p1_permutation(2)
    a = tensor_kappa(tensor_kappa(rep, 3), 4)
    b = tensor_kappa(rep, 7)
    assert max_abs(a.s_image - b.s_image) <= 1e-9
    assert max_abs(a.t_image - b.t_image) <= 1e-9


def test_tensor_kappa_matches_builder():
    lifted = tensor_kappa(build_rho0(), 5)
    built = build_kappa_power(5)
    assert abs(lifted.s_image[0, 0] - built.s_image[0, 0]) <= 1e-12
    assert abs(lifted.t_image[0, 0] - built.t_image[0, 0]) <= 1e-12


def test_contragredient_rho0():
    dual = contragredient(build_rho0())
    assert np.allclose(dual.s_image, [[1]])
    assert np.allclose(dual.t_image, [[1]])


def test_contragredient_involution():
    rep = build_p1_permutation(2)
    back = contragredient(contragredient(rep))
    assert max_abs(back.s_image - rep.s_image) <= 1e-9
    assert max_abs(back.t_image - rep.t_image) <= 1e-9


def test_contragredient_kappa_is_inverse_power():
    dual = contragredient(build_kappa_power(1))
    k11 = build_kappa_power(11)
    assert abs(dual.s_image[0, 0] - k11.s_image[0, 0]) <= 1e-9
    assert abs(dual.t_image[0, 0] - k11.t_image[0, 0]) <= 1e-9
    lifted = tensor_kappa(build_kappa_power(1), 10)
    assert abs(dual.t_image[0, 0] - lifted.t_image[0, 0]) <= 1e-9
    # One more character power closes the cycle back to the trivial values.
    trivial = tensor_kappa(build_kappa_power(1), 11)
    assert abs(trivial.t_image[0, 0] - 1) <= 1e-9


def test_contragredient_distributes_over_sum():
    a, b = build_kappa_power(2), build_p1_permutation(2)
    lhs = contragredient(direct_sum(a, b))
    rhs = direct_sum(contragredient(a), contragredient(b))
    assert max_abs(lhs.s_image - rhs.s_image) <= 1e-9
    assert max_abs(lhs.t_image - rhs.t_image) <= 1e-9


def test_kappa_builders():
    assert np.array_equal(build_kappa_power(0).s_image, build_rho0().s_image)
    assert build_kappa_power(1).s_image[0, 0] == -1j
    k2 = build_kappa_power(2)
    assert abs(k2.s_image[0, 0] + 1) <= 1e-12
    assert abs(k2.t_image[0, 0] - cmath.exp(2j * cmath.pi / 6)) <= 1e-12


@pytest.mark.parametrize("n,degree", [(2, 3), (3, 4), (4, 6), (5, 6), (6, 12), (7, 8)])
def test_p1_degrees(n, degree):
    rep = build_p1_permutation(n)
    assert rep.degree == degree
    validate(rep)
    # Permutation matrices: every row and column sums to one.
    for image in (rep.s_image, rep.t_image):
        assert np.allclose(image.sum(axis=0), 1)
        assert np.allclose(image.sum(axis=1), 1)
        assert np.allclose(image * (1 - image), 0)


def test_p1_modulus_bounds():
    with pytest.raises(ValueError):
        build_p1_permutation(1)
    with pytest.raises(ValueError):
        build_p1_permutation(31)


def test_st_inverse_has_order_three_on_even_rep():
    u = st_inverse_image(build_p1_permutation(2))
    assert is_identity(mat_pow(u, 3))


def test_catalog_reps_validate(catalog_reps):
    for rep in catalog_reps.values():
        report = validate(rep)
        assert report.relations_ok
        split = parity_split(rep)
        for sign, part in ((1, split.even_part), (-1, split.odd_part)):
            if part.degree:
                assert parity(part) == sign
