import cmath
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import NON_FINITE_FILES, complex_repfile, conjugate, no_invariant_form
from vvmf import cli, modrep
from vvmf.cli import main
from vvmf.modrep import build_p1_permutation, find_t_order
from vvmf.series import DualityReport, IdentityCheck

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


@pytest.mark.parametrize("factor", ["k^12", "k^13"])
def test_twist_power_out_of_range(capsys, factor):
    assert main(["validate", f"catalog:p1(2)*{factor}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"vvmf: error: character power out of range in twist '{factor}'" in captured.err


def test_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1
    assert "vvmf: error:" in capsys.readouterr().err


@pytest.mark.parametrize("name, reason", [
    ("absent.json", "No such file or directory"), ("directory", "Is a directory")])
def test_unreadable_file_is_a_usage_error(tmp_path, capsys, name, reason):
    (tmp_path / "directory").mkdir()
    path = tmp_path / name
    assert main(["dims", str(path), "--from", "0", "--to", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vvmf: error: [Errno")
    assert reason in captured.err and str(path) in captured.err


def test_closed_standard_output_ends_quietly_with_sigpipe_status():
    # About 140 kB of table, more than a pipe holds, so vvmf is still
    # writing when the reader closes its end after the first line.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "vvmf", "dims", "catalog:p1(7)", "--from", "0", "--to", "6000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"rep p1(7): degree 8\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_validate_file(tmp_path, capsys):
    assert main(["validate", write(tmp_path, KAPPA_FILE)]) == 0
    out = capsys.readouterr().out
    assert "rep kappa: relations ok, t order 12" in out


def test_validate_relation_violation(tmp_path, capsys):
    assert main(["validate", write(tmp_path, BAD_FILE)]) == 2
    assert "RelationViolation" in capsys.readouterr().err


def test_validate_overflowing_file(tmp_path, capsys):
    huge = [[[1e300, 0], [-1e300, 0]], [[1e300, 0], [1e300, 0]]]
    doc = {"degree": 2, "entry_encoding": "complex", "S": huge, "T": huge}
    assert main(["validate", write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "RelationViolation" in err and "s^4 = 1" in err


def test_validate_overflowing_t_power_prints_one_line(tmp_path):
    # Under tolerance 1e-5 the eigenphases of this unitary conjugate snap to
    # an order of about 2e19, and t to that power overflows: the process
    # reports the failed check and no floating point warning.
    rep = conjugate(modrep.tensor_kappa(build_p1_permutation(29), 1), 2, condition=1.0)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "vvmf", "--tolerance", "1e-5", "validate",
         write(tmp_path, complex_repfile(rep))],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("vvmf: TOrderNotFound: t^"), proc.stderr
    assert "overflows" in lines[0]


@pytest.mark.parametrize("content, needle", [
    (json.dumps(dict(KAPPA_FILE, T=[[{"order": 12, "coeffs": ["0", "1e400"]}]])).encode(),
     "T[0][0].coeffs[1]"),
    (json.dumps(dict(BAD_FILE, S=[[[10**400, 0]]])).encode(), "S[0][0]"),
    (b'{"degree": 1, "name": "\xff"}', "utf-8"),
    *((text.encode(), "S[0][0]") for text in NON_FINITE_FILES.values()),
], ids=["cyclotomic-overflow", "complex-overflow", "not-utf8", *NON_FINITE_FILES])
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


def test_order_cap_bounds_only_the_representations_own_phases(capsys):
    # kappa^3 has t order 4; its even partner kappa^2 has the phase 1/6,
    # which is derived, not certified, and so is not held to the cap.
    argv = ["--order-cap", "4", "dims", "catalog:kappa^3", "--from", "1", "--to", "5"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[4].split() == ["3", "1", "1"]


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


@pytest.mark.parametrize("n_max", ["0", "-2"])
def test_duality_needs_a_sweep(capsys, n_max):
    assert main(["duality", "catalog:p1(2)", "--nmax", n_max]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--nmax must be at least 1, got {n_max}" in captured.err


def test_duality_json(capsys):
    assert main(["duality", "catalog:kappa^1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rep"] == "kappa^1"
    assert doc["n_max"] == 3
    names = {c["name"]: c["status"] for c in doc["checks"]}
    assert names["odd-weight-sum"] == "pass"
    assert names["generator-mirror-holo"] == "pass"
    assert all(c["counterexamples"] == [] for c in doc["checks"] if c["status"] == "pass")


def test_environment_sets_no_defaults(tmp_path, monkeypatch, capsys):
    # Settings come from the flags alone, so these variables change nothing.
    monkeypatch.setenv("VVMF_TOLERANCE", "1e-5")
    monkeypatch.setenv("VVMF_ORDER_CAP", "5")
    assert main(["validate", write(tmp_path, NOISY_FILE)]) == 2
    assert "RelationViolation" in capsys.readouterr().err
    assert main(["validate", "catalog:kappa^1"]) == 0
    assert "relations ok, t order 12" in capsys.readouterr().out


def test_tolerance_flag_rejected(capsys):
    assert main(["--tolerance", "-1", "dims", "catalog:rho0",
                 "--from", "0", "--to", "0"]) == 1
    assert "vvmf: error:" in capsys.readouterr().err


def test_failed_duality_check_lists_its_counterexamples(monkeypatch, capsys):
    report = DualityReport("r", "~r", 2, (IdentityCheck("even-weight-sum", "fail", ((1, 4),)),
                                          IdentityCheck("generator-mirror-holo", "fail", (3, 5))))
    monkeypatch.setattr(cli, "duality_report", lambda *args: report)
    assert main(["duality", "catalog:rho0"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["even-weight-sum", "fail", "counterexamples:", "[(1,", "4)]"]
    assert lines[2].split() == ["generator-mirror-holo", "fail", "counterexamples:", "[3,", "5]"]
    assert main(["duality", "catalog:rho0", "--json"]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["counterexamples"] for c in checks] == [[[1, 4]], [3, 5]]


def test_dims_of_a_negative_dimension_exits_2(tmp_path, capsys):
    path = write(tmp_path, complex_repfile(no_invariant_form()))
    assert main(["validate", path]) == 0
    assert main(["dims", path, "--from", "0", "--to", "4"]) == 2
    assert "SnapFailure" in capsys.readouterr().err
