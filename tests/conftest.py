"""Shared fixtures and builders for the test suite."""
from __future__ import annotations

import pytest

from hyperfactor.model import EdgeClass, Instance, Parameters


def make_instance(n, m, h, lam, r, colored_edges) -> Instance:
    """Build an Instance from {support: {color: count}} dicts."""
    params = Parameters(n=n, m=m, h=h, lam=lam, r=tuple(r))
    coloring = []
    for support, colors in sorted(colored_edges.items()):
        counts = {j - 1: cnt for j, cnt in colors.items()}
        coloring.append(EdgeClass(support=tuple(support), amalgam=0, colors=counts))
    return Instance(params=params, coloring=coloring)


@pytest.fixture
def worked_instance() -> Instance:
    """The m=2, n=4, h=2, lambda=1, r=(1,1,1) regression instance."""
    return make_instance(4, 2, 2, 1, (1, 1, 1), {(1, 2): {1: 1}})
