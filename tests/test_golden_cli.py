"""Golden outputs of the command line on a fixed set of commands.

Each of six subcommands runs with --json on every catalog name and on
five direct sums; its exit code, stderr and parsed JSON stdout must match
tests/golden_cli.json.  After an intended output change, regenerate the
file and review its diff:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from vvmf.catalog import catalog_names
from vvmf.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

SUMS = ("kappa^1+kappa^11", "rho0+kappa^2", "p1(5)+p1(7)*k^2", "~p1(6)*k^5+kappa^3",
        "p1(7)*k^1+p1(7)*k^1")

SUBCOMMANDS = (["dims", "--from", "-2", "--to", "24"], ["generators"], ["generators", "--cusp"],
               ["duality"], ["info"], ["validate"])


def commands():
    return [[sub[0], f"catalog:{name}", *sub[1:], "--json"]
            for name in (*catalog_names(), *SUMS) for sub in SUBCOMMANDS]


def run(argv):
    """Exit code, stderr and stdout of one command, stdout parsed when it is JSON.

    The JSON document is compared as a value, with its text required to be
    the two-space indented dump of that value, so the file can store it
    with sorted keys and a removed key shows as one removed line.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if text:
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        text = doc
    return {"exit": code, "stderr": err.getvalue(), "stdout": text}


def write():
    golden = {" ".join(argv): run(argv) for argv in commands()}
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_golden_cli(argv, golden):
    assert run(argv) == golden[" ".join(argv)]


def test_golden_file_covers_the_commands(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in commands())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write()
