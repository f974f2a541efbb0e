"""Golden outputs of the command line on a fixed set of commands.

Each of six subcommands runs with and without --json on every catalog
name and on five direct sums.  The six also run with --json on four
representation files, and validate --json on six files that must fail
to load.  The files are written to a temporary directory that is the
working directory of every command, so the commands name them by file
name alone.  The exit code, stderr and stdout of each command must
match tests/golden_cli.json.  A JSON document is stored
parsed, in output order, and compared as the text of its dump, so a
moved key fails like a changed value; plain output is stored as text.
After an intended output change, regenerate the file and review its diff:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from helpers import NON_FINITE_FILES, complex_repfile, conjugate, cyclotomic_repfile
from vvmf.catalog import catalog_names
from vvmf.cli import main
from vvmf.modrep import build_kappa_power, build_p1_permutation, direct_sum, tensor_kappa

GOLDEN = Path(__file__).with_name("golden_cli.json")

SUMS = ("kappa^1+kappa^11", "rho0+kappa^2", "p1(5)+p1(7)*k^2", "~p1(6)*k^5+kappa^3",
        "p1(7)*k^1+p1(7)*k^1")

SUBCOMMANDS = (["dims", "--from", "-2", "--to", "24"], ["generators"], ["generators", "--cusp"],
               ["duality"], ["info"], ["validate"])

VALID_FILES = ("p1-9.json", "p1-9-k4.json", "kappa-1-5.json", "conj-p1-11.json")

BAD_FILES = ("schema-broken.json", *(f"{label}.json" for label in NON_FINITE_FILES))


def write_rep_files(directory):
    """Write VALID_FILES and BAD_FILES into directory."""
    texts = {f"{label}.json": text for label, text in NON_FINITE_FILES.items()}
    texts["schema-broken.json"] = json.dumps(
        {"degree": 2, "entry_encoding": "complex", "S": [[[0, -1]]], "T": [[[1, 0]]]})
    p1_9 = build_p1_permutation(9)
    for name, rep in (("p1-9", p1_9), ("p1-9-k4", tensor_kappa(p1_9, 4)),
                      ("kappa-1-5", direct_sum(build_kappa_power(1), build_kappa_power(5)))):
        texts[f"{name}.json"] = json.dumps(cyclotomic_repfile(rep))
    conj = conjugate(build_p1_permutation(11), 11)
    texts["conj-p1-11.json"] = json.dumps(complex_repfile(conj))
    for name, text in texts.items():
        (Path(directory) / name).write_text(text)


def commands():
    sources = [f"catalog:{name}" for name in (*catalog_names(), *SUMS)]
    json_commands = [[sub[0], source, *sub[1:], "--json"]
                     for source in (*sources, *VALID_FILES) for sub in SUBCOMMANDS]
    plain_commands = [[sub[0], source, *sub[1:]] for source in sources for sub in SUBCOMMANDS]
    bad_file_commands = [["validate", name, "--json"] for name in BAD_FILES]
    return json_commands + plain_commands + bad_file_commands


def run(argv):
    """Exit code, stderr and stdout of one command, stdout parsed when it is JSON.

    The JSON text must be the two-space indented dump of the parsed
    document, so the document and its key order give back the text.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if text and "--json" in argv:
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        text = doc
    return {"exit": code, "stderr": err.getvalue(), "stdout": text}


def write():
    with tempfile.TemporaryDirectory() as directory, contextlib.chdir(directory):
        write_rep_files(directory)
        golden = {" ".join(argv): run(argv) for argv in commands()}
    GOLDEN.write_text(json.dumps(golden, indent=0) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def rep_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("reps")
    write_rep_files(directory)
    return directory


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_golden_cli(argv, golden, rep_dir, monkeypatch):
    monkeypatch.chdir(rep_dir)
    assert json.dumps(run(argv), indent=1) == json.dumps(golden[" ".join(argv)], indent=1)


def test_golden_file_covers_the_commands(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in commands())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write()
