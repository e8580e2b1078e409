import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rmsig import gf2, rmcode, scheme


@pytest.fixture(scope="session")
def rm31():
    return rmcode.build(3, 1)


@pytest.fixture(scope="session")
def rm41():
    return rmcode.build(4, 1)


@pytest.fixture(scope="session")
def toy_keypair():
    """RM(4,1) key with a generous weight bound, for fast round trips."""
    params = scheme.SigningParams(w=10, N=200, t=3)
    return scheme.keygen(4, 1, params, np.random.default_rng(7))


@pytest.fixture
def rref_shapes(monkeypatch):
    """Shapes of the matrices gf2.rref reduces while the test runs."""
    shapes = []
    real = gf2.rref

    def counting(a):
        shapes.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(gf2, "rref", counting)
    return shapes
