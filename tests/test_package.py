"""The package's public surface: every exported name resolves, and the test
oracles stay in the test suite."""
from __future__ import annotations

import importlib

import pytest

import hyperfactor

# Reference code that lives in tests/oracles.py, not in the package.
TEST_ONLY = ("brute_force_extend", "_Marker", "EXHAUSTED", "TOO_LARGE",
             "vandermonde_sum", "outside_majority_holds", "blocked_degree_bound")


def test_all_is_unique_and_resolves():
    assert len(hyperfactor.__all__) == len(set(hyperfactor.__all__))
    assert [name for name in hyperfactor.__all__ if not hasattr(hyperfactor, name)] == []


@pytest.mark.parametrize("module", ["hyperfactor", "hyperfactor.verify",
                                    "hyperfactor.combinatorics"])
def test_oracles_are_not_shipped(module):
    shipped = importlib.import_module(module)
    assert [name for name in TEST_ONLY if hasattr(shipped, name)] == []
