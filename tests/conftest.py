"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.network.topologies import line_network, ring_network, star_network


@pytest.fixture
def line5():
    """Path on 5 processors."""
    return line_network(5)


@pytest.fixture
def ring6():
    """Ring on 6 processors."""
    return ring_network(6)


@pytest.fixture
def star5():
    """Star with center 0 and 4 leaves."""
    return star_network(5)
