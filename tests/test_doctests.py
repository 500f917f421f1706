"""Docstring examples are executable documentation; keep them honest."""

import doctest

import pytest

import crystalposets.crystal
import crystalposets.keymap
import crystalposets.poset
import crystalposets.weyl


@pytest.mark.parametrize(
    "module",
    [crystalposets.weyl, crystalposets.crystal, crystalposets.keymap, crystalposets.poset],
    ids=lambda m: m.__name__,
)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
