"""JSON representation files.

A file stores the two generator images entry by entry, either as
[re, im] pairs or as exact cyclotomic combinations that are evaluated
to complex doubles on load.  Loading is strict: any malformed field
raises ParseError naming the offending location.  Keys outside the
schema are ignored.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import DEFAULT_SETTINGS, Settings
from .modrep import ModularRepresentation, validate

ENCODINGS = ("complex", "cyclotomic")


class ParseError(ValueError):
    """A representation file does not match the expected schema."""


@dataclass(frozen=True)
class RepFile:
    """Parsed file content, with matrix entries still in raw JSON form."""

    name: str
    degree: int
    entry_encoding: str
    s_entries: list
    t_entries: list


def _fail(path: str, expected: str):
    raise ParseError(f"{path}: expected {expected}")


def _check_entry(value, encoding: str, path: str):
    if encoding == "complex":
        if (not isinstance(value, list) or len(value) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)):
            _fail(path, "a [re, im] pair of numbers")
        try:
            complex(*value)
        except OverflowError:
            _fail(path, "a [re, im] pair within the floating point range")
        return
    if not isinstance(value, dict) or set(value) != {"order", "coeffs"}:
        _fail(path, 'an {"order": n, "coeffs": [...]} object')
    order = value["order"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        _fail(path + ".order", "a positive integer")
    coeffs = value["coeffs"]
    if not isinstance(coeffs, list) or len(coeffs) > order:
        _fail(path + ".coeffs", f"a list of at most {order} strings")
    for i, c in enumerate(coeffs):
        if not isinstance(c, str):
            _fail(f"{path}.coeffs[{i}]", "a 'p/q' or integer string")
        try:
            float(Fraction(c))
        except (ValueError, ZeroDivisionError):
            _fail(f"{path}.coeffs[{i}]", "a 'p/q' or integer string")
        except OverflowError:
            _fail(f"{path}.coeffs[{i}]", "a number within the floating point range")


def _check_matrix(entries, degree: int, encoding: str, field: str):
    if not isinstance(entries, list) or len(entries) != degree:
        _fail(field, f"a {degree}x{degree} matrix")
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != degree:
            _fail(f"{field}[{i}]", f"a row of {degree} entries")
        for j, value in enumerate(row):
            _check_entry(value, encoding, f"{field}[{i}][{j}]")


def parse_repfile(doc: dict, name: str = "rep") -> RepFile:
    """Validate a decoded JSON document against the schema."""
    if not isinstance(doc, dict):
        _fail("top level", "a JSON object")
    for key in ("degree", "entry_encoding", "S", "T"):
        if key not in doc:
            _fail(key, "a value (field is required)")
    degree = doc["degree"]
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        _fail("degree", "a positive integer")
    encoding = doc["entry_encoding"]
    if encoding not in ENCODINGS:
        _fail("entry_encoding", "'complex' or 'cyclotomic'")
    _check_matrix(doc["S"], degree, encoding, "S")
    _check_matrix(doc["T"], degree, encoding, "T")
    if "name" in doc:
        if not isinstance(doc["name"], str):
            _fail("name", "a string")
        name = doc["name"]
    return RepFile(name, degree, encoding, doc["S"], doc["T"])


def load_repfile(path: str) -> RepFile:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ParseError(f"invalid JSON: {err}") from None
    stem = path.rsplit("/", 1)[-1].removesuffix(".json")
    return parse_repfile(doc, stem)


def _entry_value(value, encoding: str) -> complex:
    if encoding == "complex":
        return complex(value[0], value[1])
    order = value["order"]
    total = 0j
    for j, c in enumerate(value["coeffs"]):
        total += float(Fraction(c)) * cmath.exp(2j * math.pi * j / order)
    return total


def to_representation(rf: RepFile, run_validate: bool = True,
                      settings: Settings = DEFAULT_SETTINGS) -> ModularRepresentation:
    """Build the representation a file describes, validating by default."""
    s = np.array([[_entry_value(v, rf.entry_encoding) for v in row] for row in rf.s_entries],
                 dtype=np.complex128)
    t = np.array([[_entry_value(v, rf.entry_encoding) for v in row] for row in rf.t_entries],
                 dtype=np.complex128)
    rep = ModularRepresentation(s, t, rf.name)
    if run_validate:
        validate(rep, settings)
    return rep


def parse_rep(path: str, settings: Settings = DEFAULT_SETTINGS,
              run_validate: bool = True) -> ModularRepresentation:
    """Load, schema-check and (by default) validate a representation file."""
    return to_representation(load_repfile(path), run_validate, settings)
