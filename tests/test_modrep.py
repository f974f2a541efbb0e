import cmath

import numpy as np
import pytest

from vvmf.linalg import is_identity, mat_pow, max_abs
from vvmf.modrep import (
    ASSERTED_IRREDUCIBLE,
    ASSERTED_REDUCIBLE,
    UNKNOWN,
    ClosureCapExceeded,
    ModularRepresentation,
    RelationViolation,
    TOrderNotFound,
    build_kappa_power,
    build_p1_permutation,
    build_rho0,
    contragredient,
    direct_sum,
    enumerate_closure,
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


def test_images_are_read_only():
    rep = build_rho0()
    with pytest.raises(ValueError):
        rep.s_image[0, 0] = 5
    with pytest.raises(ValueError):
        rep.t_image[0, 0] = 5


def test_validate_rho0():
    report = validate(build_rho0(), closure_cap=10)
    assert report.relations_ok
    assert report.t_order == 1
    assert report.group_size == 1
    assert report.max_residual <= 1e-9


def test_validate_kappa():
    report = validate(build_kappa_power(1), closure_cap=100)
    assert report.t_order == 12
    assert report.group_size == 12


def test_validate_relation_violation():
    rep = ModularRepresentation([[1]], [[ZETA12]])
    with pytest.raises(RelationViolation) as exc:
        validate(rep)
    assert exc.value.relation == "(st)^3 = s^2"
    assert exc.value.residual > 1e-9


def test_t_order_cap():
    rep = ModularRepresentation([[-1j]], [[ZETA12]])
    with pytest.raises(TOrderNotFound):
        find_t_order(rep, order_cap=5)
    assert find_t_order(rep, order_cap=12) == 12
    assert validate(rep).t_order == 12


def test_closure_cap_exceeded():
    with pytest.raises(ClosureCapExceeded):
        enumerate_closure(build_kappa_power(1), 5)


def test_closure_sizes():
    assert len(enumerate_closure(build_kappa_power(1))) == 12
    assert len(enumerate_closure(build_p1_permutation(2))) == 6
    assert len(enumerate_closure(build_p1_permutation(3))) == 12


def test_parity_values():
    assert parity(build_rho0()) == 1
    assert parity(build_kappa_power(1)) == -1
    assert parity(direct_sum(build_rho0(), build_kappa_power(1))) == 0


def test_parity_split_pure_even():
    split = parity_split(build_rho0())
    assert split.even_part.degree == 1
    assert split.odd_part.degree == 0
    assert np.allclose(split.even_part.t_image, [[1]])
    assert split.even_part.irreducible_assertion == ASSERTED_IRREDUCIBLE


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
    assert build_kappa_power(1).irreducible_assertion == ASSERTED_IRREDUCIBLE


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
