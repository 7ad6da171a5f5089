import pytest

import oracles
from manakov import ratfunc


@pytest.fixture
def general_gcd_ring(monkeypatch):
    """``RationalFunction`` reduced by the general gcd of ``oracles`` instead
    of the package's declared-factor trial division: the ring of quotients
    of arbitrary polynomials that the package no longer ships."""
    monkeypatch.setattr(ratfunc, "poly_gcd", oracles.general_gcd)
