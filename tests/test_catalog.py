import re

import pytest

from vvmf.catalog import CatalogError, resolve


@pytest.mark.parametrize("expr", ["p1(2)*k^12", "p1(2)*k^13", "rho0+kappa^1*k^99"])
def test_twist_power_out_of_range(expr):
    factor = expr.rsplit("*", 1)[1]
    message = f"character power out of range in twist '{factor}'"
    with pytest.raises(CatalogError, match=re.escape(message)):
        resolve(expr)


@pytest.mark.parametrize("token", ["kappa^0", "kappa^00", "kappa^12"])
def test_character_power_out_of_range(token):
    message = f"character power out of range in '{token}'"
    with pytest.raises(CatalogError, match=re.escape(message)):
        resolve(f"rho0+{token}")


def test_character_power_bounds_are_accepted():
    assert resolve("kappa^1").name == "kappa^1"
    assert resolve("kappa^11").name == "kappa^11"


def test_twist_power_bounds_are_accepted():
    assert resolve("p1(2)*k^0").name == "p1(2)"
    assert resolve("p1(2)*k^11").name == "p1(2)*k^11"
