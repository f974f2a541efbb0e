"""Built-in representations addressable by name and small expressions.

Atoms are rho0, kappa^j for j in 1..11 and p1(N) for N in 2..7.  An
expression combines atoms with `+` (direct sum, lowest precedence),
`*k^j` for j in 0..11 (character twist, binds tighter) and a `~`
prefix (dual) on atoms.  Example: rho0+~p1(2)*k^3.
"""

from __future__ import annotations

import re

from .modrep import (
    ModularRepresentation,
    build_kappa_power,
    build_p1_permutation,
    build_rho0,
    contragredient,
    direct_sum,
    tensor_kappa,
)


class CatalogError(ValueError):
    """An expression does not name catalog representations."""


_KAPPA = re.compile(r"kappa\^(\d{1,2})$")
_P1 = re.compile(r"p1\((\d{1,2})\)$")
_TWIST = re.compile(r"k\^(\d{1,2})$")


def catalog_names() -> list[str]:
    names = ["rho0"]
    names += [f"kappa^{j}" for j in range(1, 12)]
    names += [f"p1({n})" for n in range(2, 8)]
    return names


def _atom(token: str) -> ModularRepresentation:
    if token == "rho0":
        return build_rho0()
    m = _KAPPA.match(token)
    if m:
        j = int(m.group(1))
        if not 1 <= j <= 11:
            raise CatalogError(f"character power out of range in {token!r}")
        return build_kappa_power(j)
    m = _P1.match(token)
    if m:
        n = int(m.group(1))
        if not 2 <= n <= 7:
            raise CatalogError(f"projective line modulus out of range in {token!r}")
        return build_p1_permutation(n)
    raise CatalogError(f"unknown catalog name {token!r}")


def _term(token: str) -> ModularRepresentation:
    factors = token.split("*")
    head = factors[0]
    duals = 0
    while head.startswith("~"):
        duals += 1
        head = head[1:]
    if not head:
        raise CatalogError(f"missing atom in term {token!r}")
    rep = _atom(head)
    for _ in range(duals):
        rep = contragredient(rep)
    for factor in factors[1:]:
        m = _TWIST.match(factor)
        if not m:
            raise CatalogError(f"expected a twist of the form k^j, got {factor!r}")
        if int(m.group(1)) > 11:
            raise CatalogError(f"character power out of range in twist {factor!r}")
        rep = tensor_kappa(rep, int(m.group(1)))
    return rep


def resolve(expression: str) -> ModularRepresentation:
    """Build the representation an expression denotes."""
    text = expression.replace(" ", "")
    if not text:
        raise CatalogError("empty catalog expression")
    terms = text.split("+")
    if any(not t for t in terms):
        raise CatalogError(f"empty term in {expression!r}")
    rep = _term(terms[0])
    for t in terms[1:]:
        rep = direct_sum(rep, _term(t))
    return rep
