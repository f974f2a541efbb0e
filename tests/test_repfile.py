import json
import math

import numpy as np
import pytest

from helpers import complex_repfile
from vvmf.linalg import max_abs
from vvmf.modrep import UNKNOWN, RelationViolation, build_kappa_power, build_p1_permutation
from vvmf.repfile import ParseError, load_repfile, parse_rep, parse_repfile, to_representation

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
    path = tmp_path / name
    path.write_text(json.dumps(doc))
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
    for doc in (KAPPA_CYCLOTOMIC, KAPPA_COMPLEX):
        rf = load_repfile(write(tmp_path, doc))
        assert (rf.name, rf.degree, rf.entry_encoding, rf.s_entries, rf.t_entries) == (
            doc["name"], doc["degree"], doc["entry_encoding"], doc["S"], doc["T"])


def test_serialize_representation_round_trip(tmp_path):
    rep = build_p1_permutation(2)
    back = parse_rep(write(tmp_path, complex_repfile(rep)))
    assert back.name == "p1(2)"
    assert max_abs(back.s_image - rep.s_image) <= 1e-12
    assert max_abs(back.t_image - rep.t_image) <= 1e-12


def test_irreducible_key_is_ignored():
    # Older files may carry an "irreducible" assertion; it is not trusted.
    for value in (True, False, "yes"):
        rep = to_representation(parse_repfile(dict(KAPPA_CYCLOTOMIC, irreducible=value)))
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
    with pytest.raises(RelationViolation):
        parse_rep(write(tmp_path, doc))


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_repfile(str(path))


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
])
def test_schema_errors_name_the_location(doc, needle):
    with pytest.raises(ParseError) as exc:
        parse_repfile(doc)
    assert needle in str(exc.value)


def test_top_level_must_be_object():
    with pytest.raises(ParseError):
        parse_repfile([1, 2, 3])


def test_matrix_entry_count_must_match_degree():
    doc = broken(KAPPA_COMPLEX, degree=2)
    with pytest.raises(ParseError):
        parse_repfile(doc)
