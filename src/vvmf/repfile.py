"""JSON representation files.

A file stores the two generator images entry by entry, either as
[re, im] pairs or as exact cyclotomic combinations that are evaluated
to complex doubles on load.  Loading is strict: any malformed field, or
an entry that is no finite complex double, raises ParseError naming the
offending location.  Keys outside the schema are ignored.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction

import numpy as np

from .modrep import ModularRepresentation, _root_of_unity

ENCODINGS = ("complex", "cyclotomic")


class ParseError(ValueError):
    """A representation file does not match the expected schema."""


def _fail(path: str, expected: str):
    raise ParseError(f"{path}: expected {expected}")


def _complex_entry(value, path: str) -> complex:
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)):
        _fail(path, "a [re, im] pair of numbers")
    try:
        return complex(*value)
    except OverflowError:
        _fail(path, "a [re, im] pair within the floating point range")


def _cyclotomic_entry(value, path: str) -> complex:
    if not isinstance(value, dict) or set(value) != {"order", "coeffs"}:
        _fail(path, 'an {"order": n, "coeffs": [...]} object')
    order = value["order"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        _fail(path + ".order", "a positive integer")
    coeffs = value["coeffs"]
    if not isinstance(coeffs, list) or len(coeffs) > order:
        _fail(path + ".coeffs", f"a list of at most {order} strings")
    total = 0j
    for j, c in enumerate(coeffs):
        if not isinstance(c, str):
            _fail(f"{path}.coeffs[{j}]", "a 'p/q' or integer string")
        try:
            x = float(Fraction(c))
        except (ValueError, ZeroDivisionError):
            _fail(f"{path}.coeffs[{j}]", "a 'p/q' or integer string")
        except OverflowError:
            _fail(f"{path}.coeffs[{j}]", "a number within the floating point range")
        total += x * _root_of_unity(j, order)
    return total


def _matrix(entries, degree: int, encoding: str, field: str) -> np.ndarray:
    entry = _complex_entry if encoding == "complex" else _cyclotomic_entry
    if not isinstance(entries, list) or len(entries) != degree:
        _fail(field, f"a {degree}x{degree} matrix")
    values = np.empty((degree, degree), dtype=np.complex128)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != degree:
            _fail(f"{field}[{i}]", f"a row of {degree} entries")
        for j, value in enumerate(row):
            path = f"{field}[{i}][{j}]"
            values[i, j] = z = entry(value, path)
            if not cmath.isfinite(z):
                _fail(path, "a value within the floating point range")
    return values


def parse_rep(path: str) -> ModularRepresentation:
    """The representation a file describes; modrep.validate checks its relations."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ParseError(f"invalid JSON: {err}") from None
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
    s = _matrix(doc["S"], degree, encoding, "S")
    t = _matrix(doc["T"], degree, encoding, "T")
    name = doc.get("name", path.rsplit("/", 1)[-1].removesuffix(".json"))
    if not isinstance(name, str):
        _fail("name", "a string")
    return ModularRepresentation(s, t, name)
