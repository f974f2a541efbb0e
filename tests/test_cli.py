import cmath
import json

import pytest

from helpers import complex_repfile
from vvmf import modrep
from vvmf.cli import main
from vvmf.modrep import build_p1_permutation, find_t_order

KAPPA_FILE = {
    "name": "kappa",
    "degree": 1,
    "entry_encoding": "cyclotomic",
    "S": [[{"order": 4, "coeffs": ["0", "0", "0", "1"]}]],
    "T": [[{"order": 12, "coeffs": ["0", "1"]}]],
}

BAD_FILE = {
    "degree": 1,
    "entry_encoding": "complex",
    "S": [[[1, 0]]],
    "T": [[[0.8660254037844387, 0.5]]],
}


# The order-twelve character with its t entry off by 1e-7: the relations
# fail at the default tolerance 1e-9 and hold at 1e-5.
_ZETA12 = cmath.exp(2j * cmath.pi / 12) + 1e-7
NOISY_FILE = {
    "degree": 1,
    "entry_encoding": "complex",
    "S": [[[0, -1]]],
    "T": [[[_ZETA12.real, _ZETA12.imag]]],
}


def write(tmp_path, doc):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert len(names) == 18
    assert names[0] == "rho0"
    assert "kappa^11" in names
    assert "p1(7)" in names


def test_dims_plain_table(capsys):
    assert main(["dims", "catalog:rho0", "--from", "0", "--to", "12"]) == 0
    out = capsys.readouterr().out
    assert "rep rho0: degree 1" in out
    rows = [line.split() for line in out.splitlines()]
    table = {int(r[0]): (r[1], r[2]) for r in rows
             if len(r) == 3 and r[0].lstrip("-").isdigit()}
    assert table[0] == ("1", "0")
    assert table[11] == ("0", "0")
    assert table[12] == ("2", "1")


def test_dims_json_schema(capsys):
    assert main(["dims", "catalog:rho0", "--from", "0", "--to", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rep"] == "rho0"
    assert doc["degree"] == 1
    assert [row["w"] for row in doc["weights"]] == [0, 1, 2, 3, 4]
    for row in doc["weights"]:
        assert set(row) == {"w", "dimM", "dimS", "statusM", "statusS"}
        for key in ("dimM", "dimS"):
            assert isinstance(row[key], int) and not isinstance(row[key], bool)
        assert row["statusM"] == "exact"
        assert row["statusS"] == "exact"


def test_dims_lower_bound_marker(capsys):
    assert main(["dims", "catalog:kappa^1+kappa^11", "--from", "1", "--to", "1"]) == 0
    out = capsys.readouterr().out
    assert "0+" in out


def test_dims_empty_range(capsys):
    assert main(["dims", "catalog:rho0", "--from", "3", "--to", "1"]) == 1
    assert "empty weight range" in capsys.readouterr().err


def test_dims_missing_range_flags():
    with pytest.raises(SystemExit) as exc:
        main(["dims", "catalog:rho0"])
    assert exc.value.code == 1


def test_unknown_catalog_name(capsys):
    assert main(["info", "catalog:nosuch"]) == 1
    assert "vvmf: error:" in capsys.readouterr().err


def test_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1
    assert "vvmf: error:" in capsys.readouterr().err


def test_validate_file(tmp_path, capsys):
    assert main(["validate", write(tmp_path, KAPPA_FILE)]) == 0
    out = capsys.readouterr().out
    assert "rep kappa: relations ok, t order 12" in out


def test_validate_relation_violation(tmp_path, capsys):
    assert main(["validate", write(tmp_path, BAD_FILE)]) == 2
    assert "RelationViolation" in capsys.readouterr().err


@pytest.mark.parametrize("content, needle", [
    (json.dumps(dict(KAPPA_FILE, T=[[{"order": 12, "coeffs": ["0", "1e400"]}]])).encode(),
     "T[0][0].coeffs[1]"),
    (json.dumps(dict(BAD_FILE, S=[[[10**400, 0]]])).encode(), "S[0][0]"),
    (b'{"degree": 1, "name": "\xff"}', "utf-8"),
], ids=["cyclotomic-overflow", "complex-overflow", "not-utf8"])
def test_unreadable_numbers_and_bytes_are_file_errors(tmp_path, capsys, content, needle):
    path = tmp_path / "rep.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vvmf: error:") and needle in err


def test_validate_json_keys(capsys):
    assert main(["validate", "catalog:kappa^1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["degree", "max_residual", "relations_ok", "rep", "t_order"]
    assert doc["relations_ok"] and doc["t_order"] == 12


def test_validate_closure_cap_exceeded(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "catalog:p1(3)", "--closure-cap", "5"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "vvmf: error:" in err and "ClosureCapExceeded" not in err


def test_global_order_cap(capsys):
    assert main(["--order-cap", "5", "validate", "catalog:kappa^1"]) == 2
    assert "TOrderNotFound" in capsys.readouterr().err


def test_no_global_closure_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--closure-cap", "5", "dims", "catalog:p1(3)", "--from", "0", "--to", "4"])
    assert exc.value.code == 1
    assert "vvmf: error:" in capsys.readouterr().err


def test_dims_file_validates_once(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, complex_repfile(build_p1_permutation(9)))
    names = []

    def counting(rep, *args, **kwargs):
        names.append(rep.name)
        return find_t_order(rep, *args, **kwargs)

    monkeypatch.setattr(modrep, "find_t_order", counting)
    assert main(["dims", path, "--from", "0", "--to", "4"]) == 0
    assert names.count("p1(9)") == 1


def test_info_plain_kappa(capsys):
    assert main(["info", "catalog:kappa^1"]) == 0
    out = capsys.readouterr().out
    assert "rep kappa^1: degree 1, t order 12" in out
    assert "even part: none" in out
    assert "lambda+ 1   lambda- 1" in out


def test_info_json_rho0(capsys):
    assert main(["info", "catalog:rho0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["odd"] is None
    even = doc["even"]
    assert even["signature"] == {"d": 1, "alpha": 0, "beta1": 0, "beta2": 0}
    assert even["t_phases"] == ["0"]
    assert even["h0"] == 1
    assert even["gamma"]["-6"] == -1
    assert even["gamma"]["1"] == -1
    assert even["gamma"]["6"] == 1


def test_generators_plain(capsys):
    assert main(["generators", "catalog:rho0", "--cusp"]) == 0
    out = capsys.readouterr().out
    assert "cusp module" in out
    assert "denominator: (1-z^4)(1-z^6)" in out
    rows = [line.split() for line in out.splitlines() if line.strip()[:1].isdigit()]
    assert ["12", "1"] in rows


def test_generators_json(capsys):
    assert main(["generators", "catalog:rho0", "--cusp", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "cusp"
    assert doc["counts"] == {"12": 1}
    assert doc["numerator"] == [0] * 12 + [1]


def test_generators_weight_one_indeterminate(capsys):
    assert main(["generators", "catalog:kappa^1+kappa^11"]) == 2
    assert "Weight1Indeterminate" in capsys.readouterr().err


def test_irreducible_key_certifies_nothing(tmp_path, capsys):
    # kappa^1+kappa^11 is reducible: a file asserting the opposite still
    # gets a weight-one lower bound, not the formula's exact-looking 0.
    zero = {"order": 1, "coeffs": []}
    doc = {
        "degree": 2,
        "entry_encoding": "cyclotomic",
        "S": [[{"order": 4, "coeffs": ["0", "0", "0", "1"]}, zero],
              [zero, {"order": 4, "coeffs": ["0", "1"]}]],
        "T": [[{"order": 12, "coeffs": ["0", "1"]}, zero],
              [zero, {"order": 12, "coeffs": ["0"] * 11 + ["1"]}]],
        "irreducible": True,
    }
    path = write(tmp_path, doc)
    assert main(["dims", path, "--from", "1", "--to", "1", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["weights"][0]
    assert (row["dimM"], row["statusM"], row["dimS"], row["statusS"]) == (
        0, "lower-bound", 0, "lower-bound")
    assert main(["generators", path, "--cusp"]) == 2
    assert "Weight1Indeterminate" in capsys.readouterr().err


def test_duality_passes(capsys):
    assert main(["duality", "catalog:kappa^2", "--nmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "against ~kappa^2" in out


def test_duality_json(capsys):
    assert main(["duality", "catalog:kappa^1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rep"] == "kappa^1"
    assert doc["n_max"] == 3
    names = {c["name"]: c["status"] for c in doc["checks"]}
    assert names["odd-weight-sum"] == "pass"
    assert names["generator-mirror-holo"] == "pass"
    assert all(c["counterexamples"] == [] for c in doc["checks"] if c["status"] == "pass")


def test_env_tolerance_applied(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, NOISY_FILE)
    assert main(["validate", path]) == 2
    assert "RelationViolation" in capsys.readouterr().err
    monkeypatch.setenv("VVMF_TOLERANCE", "1e-5")
    assert main(["validate", path]) == 0
    assert "relations ok, t order 12" in capsys.readouterr().out


def test_env_tolerance_rejected(monkeypatch, capsys):
    monkeypatch.setenv("VVMF_TOLERANCE", "0.5")
    assert main(["catalog", "list"]) == 1
    assert "vvmf: error:" in capsys.readouterr().err


@pytest.mark.parametrize("variable,value", [("VVMF_TOLERANCE", "abc"), ("VVMF_ORDER_CAP", "1.5")])
def test_env_values_are_usage_errors(monkeypatch, capsys, variable, value):
    monkeypatch.setenv(variable, value)
    with pytest.raises(SystemExit) as exc:
        main(["dims", "catalog:p1(2)", "--from", "0", "--to", "2"])
    assert exc.value.code == 1
    assert "vvmf: error:" in capsys.readouterr().err


@pytest.mark.parametrize("variable", ["VVMF_TOLERANCE", "VVMF_ORDER_CAP"])
def test_env_zero_is_range_checked_and_empty_is_unset(monkeypatch, capsys, variable):
    argv = ["dims", "catalog:p1(2)", "--from", "0", "--to", "2"]
    monkeypatch.setenv(variable, "0")
    assert main(argv) == 1
    assert "vvmf: error:" in capsys.readouterr().err
    monkeypatch.setenv(variable, "")
    assert main(argv) == 0


def test_tolerance_flag_rejected(capsys):
    assert main(["--tolerance", "-1", "dims", "catalog:rho0",
                 "--from", "0", "--to", "0"]) == 1
    assert "vvmf: error:" in capsys.readouterr().err
