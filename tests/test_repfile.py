import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from helpers import NON_FINITE_FILES, complex_repfile
from vvmf.linalg import max_abs
from vvmf.modrep import (
    UNKNOWN,
    ModularRepresentation,
    RelationViolation,
    build_kappa_power,
    build_p1_permutation,
    validate,
)
from vvmf.repfile import ParseError, parse_rep

KAPPA_CYCLOTOMIC = {
    "name": "kappa",
    "degree": 1,
    "entry_encoding": "cyclotomic",
    "S": [[{"order": 4, "coeffs": ["0", "0", "0", "1"]}]],
    "T": [[{"order": 12, "coeffs": ["0", "1"]}]],
}

KAPPA_COMPLEX = {
    "name": "kappa",
    "degree": 1,
    "entry_encoding": "complex",
    "S": [[[0, -1]]],
    "T": [[[math.cos(math.pi / 6), math.sin(math.pi / 6)]]],
}


def write(tmp_path, doc, name="rep.json"):
    """Write a document, or JSON text as it is, and return the path."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def test_cyclotomic_kappa_file(tmp_path):
    rep = parse_rep(write(tmp_path, KAPPA_CYCLOTOMIC))
    built = build_kappa_power(1)
    assert rep.name == "kappa"
    assert max_abs(rep.s_image - built.s_image) <= 1e-9
    assert max_abs(rep.t_image - built.t_image) <= 1e-9


def test_complex_kappa_file(tmp_path):
    rep = parse_rep(write(tmp_path, KAPPA_COMPLEX))
    built = build_kappa_power(1)
    assert max_abs(rep.t_image - built.t_image) <= 1e-9
    assert rep.irreducible_assertion == UNKNOWN


def test_round_trip_both_encodings(tmp_path):
    # Each entry loads as exactly the value it denotes.
    cyclotomic = parse_rep(write(tmp_path, KAPPA_CYCLOTOMIC))
    assert (cyclotomic.name, cyclotomic.degree) == ("kappa", 1)
    assert cyclotomic.s_image[0, 0] == -1j
    assert cyclotomic.t_image[0, 0] == cmath.exp(2j * math.pi / 12)
    complex_ = parse_rep(write(tmp_path, KAPPA_COMPLEX))
    assert (complex_.name, complex_.degree) == ("kappa", 1)
    assert complex_.s_image[0, 0] == -1j
    assert complex_.t_image[0, 0] == complex(*KAPPA_COMPLEX["T"][0][0])


def test_serialize_representation_round_trip(tmp_path):
    rep = build_p1_permutation(2)
    back = parse_rep(write(tmp_path, complex_repfile(rep)))
    assert back.name == "p1(2)"
    assert max_abs(back.s_image - rep.s_image) <= 1e-12
    assert max_abs(back.t_image - rep.t_image) <= 1e-12


def test_irreducible_key_is_ignored(tmp_path):
    # Older files may carry an "irreducible" assertion; it is not trusted.
    for value in (True, False, "yes"):
        rep = parse_rep(write(tmp_path, dict(KAPPA_CYCLOTOMIC, irreducible=value)))
        assert rep.irreducible_assertion == UNKNOWN


def test_name_defaults_to_file_stem(tmp_path):
    doc = dict(KAPPA_COMPLEX)
    del doc["name"]
    rep = parse_rep(write(tmp_path, doc, "myrep.json"))
    assert rep.name == "myrep"


def test_relation_violation_from_file(tmp_path):
    doc = {
        "degree": 1,
        "entry_encoding": "cyclotomic",
        "S": [[{"order": 1, "coeffs": ["1"]}]],
        "T": [[{"order": 12, "coeffs": ["0", "1"]}]],
    }
    rep = parse_rep(write(tmp_path, doc))
    with pytest.raises(RelationViolation):
        validate(rep)


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_rep(str(path))


def broken(doc, **changes):
    out = json.loads(json.dumps(doc))
    out.update(changes)
    return out


@pytest.mark.parametrize("doc,needle", [
    (broken(KAPPA_CYCLOTOMIC, T=None), "T"),
    ({k: v for k, v in KAPPA_CYCLOTOMIC.items() if k != "T"}, "T"),
    (broken(KAPPA_CYCLOTOMIC, degree=0), "degree"),
    (broken(KAPPA_CYCLOTOMIC, degree="1"), "degree"),
    (broken(KAPPA_CYCLOTOMIC, degree=True), "degree"),
    (broken(KAPPA_CYCLOTOMIC, entry_encoding="exact"), "entry_encoding"),
    (broken(KAPPA_CYCLOTOMIC, S=[[{"order": 0, "coeffs": ["1"]}]]), "S[0][0].order"),
    (broken(KAPPA_CYCLOTOMIC, S=[[{"order": 4, "coeffs": ["1", "0", "0", "0", "0"]}]]),
     "S[0][0].coeffs"),
    (broken(KAPPA_CYCLOTOMIC, S=[[{"order": 4, "coeffs": ["one"]}]]), "S[0][0].coeffs[0]"),
    (broken(KAPPA_CYCLOTOMIC, S=[[{"order": 4, "coeffs": [1]}]]), "S[0][0].coeffs[0]"),
    (broken(KAPPA_CYCLOTOMIC, S=[[{"order": 4}]]), "S[0][0]"),
    (broken(KAPPA_CYCLOTOMIC, S=[[{"order": 4, "coeffs": ["1"], "extra": 1}]]), "S[0][0]"),
    (broken(KAPPA_CYCLOTOMIC, T=[[{"order": True, "coeffs": ["1"]}]]), "T[0][0].order"),
    (broken(KAPPA_CYCLOTOMIC, name=7), "name"),
    (broken(KAPPA_COMPLEX, S=[[[0]]]), "S[0][0]"),
    (broken(KAPPA_COMPLEX, S=[[[0, True]]]), "S[0][0]"),
    (broken(KAPPA_COMPLEX, S=[[0, -1]]), "S[0]"),
    (broken(KAPPA_COMPLEX, T=[[[1, 0]], [[0, 1]]]), "T"),
    (broken(KAPPA_CYCLOTOMIC, S=[[{"order": 4, "coeffs": ["0", "1e400"]}]]),
     "S[0][0].coeffs[1]"),
    (broken(KAPPA_COMPLEX, S=[[[0, -10**400]]]), "S[0][0]"),
    *(pytest.param(text, "S[0][0]: expected a value within the floating point range", id=label)
      for label, text in NON_FINITE_FILES.items()),
])
def test_schema_errors_name_the_location(tmp_path, doc, needle):
    with pytest.raises(ParseError) as exc:
        parse_rep(write(tmp_path, doc))
    assert needle in str(exc.value)


def test_top_level_must_be_object(tmp_path):
    with pytest.raises(ParseError):
        parse_rep(write(tmp_path, [1, 2, 3]))


def test_matrix_entry_count_must_match_degree(tmp_path):
    doc = broken(KAPPA_COMPLEX, degree=2)
    with pytest.raises(ParseError):
        parse_rep(write(tmp_path, doc))


# Finite doubles of every kind; both zeros and the smallest subnormals are
# drawn on purpose, since the float strategy alone rarely gives -0.0.
finite = st.sampled_from([0.0, -0.0, 5e-324, -5e-324]) | st.floats(allow_nan=False,
                                                                   allow_infinity=False)
images = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.builds(complex, finite, finite), min_size=d, max_size=d), min_size=2 * d,
    max_size=2 * d))
loader_settings = settings(derandomize=True, database=None, max_examples=30, deadline=None,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])


# The seed derandomize=True drew from this body, fixed so that edits keep the draws.
@seed(int("b8122080e522ebe2ade3b597945406d5e13efa07fa50ccab"
          "b5d56901980402f7bf64e052962ded9521285dad2cc04e19", 16))
@loader_settings
@given(images)
def test_finite_matrices_load_bit_for_bit(tmp_path, rows):
    d = len(rows) // 2
    rep = ModularRepresentation(rows[:d], rows[d:], "rep")
    back = parse_rep(write(tmp_path, complex_repfile(rep)))
    assert back.s_image.tobytes() == rep.s_image.tobytes()
    assert back.t_image.tobytes() == rep.t_image.tobytes()


# The seed derandomize=True drew from this body, fixed so that edits keep the draws.
@seed(int("34a22ca0cdafe3a6c8b77e47f64ecd5bb2424067c7d45b91"
          "cb927b8700b666296985d0baf7e0739d99f1966666962a24", 16))
@loader_settings
@given(images, st.data())
def test_one_bad_number_is_named(tmp_path, rows, data):
    d = len(rows) // 2
    doc = complex_repfile(ModularRepresentation(rows[:d], rows[d:], "rep"))
    field = data.draw(st.sampled_from("ST"))
    i, j, part = (data.draw(st.integers(0, n)) for n in (d - 1, d - 1, 1))
    doc[field][i][j][part] = "BAD"
    number = data.draw(st.sampled_from(["1e400", "-1e400", "NaN", "Infinity", "-Infinity",
                                        "1" + "0" * 400]))
    with pytest.raises(ParseError) as exc:
        parse_rep(write(tmp_path, json.dumps(doc).replace('"BAD"', number)))
    assert str(exc.value).startswith(f"{field}[{i}][{j}]: expected")
