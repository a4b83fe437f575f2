import threading
import warnings

import numpy as np
import pytest

from qbattery import workstats
from qbattery.battery import battery_hamiltonian
from qbattery.haar import pair_chunk
from qbattery.linalg import DensityMatrix, random_hermitian


def make_random_battery(rng, d, g=1.0):
    """Random Hermitian battery; interaction canonicalization warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return battery_hamiltonian(
            random_hermitian(rng, d),
            random_hermitian(rng, d),
            random_hermitian(rng, d * d),
            g=g,
        )


def tag_chunks(monkeypatch):
    """Wrap the chunk draw: a sample function reads its chunk index from ``current.c``; ``drawn`` lists the chunks drawn."""
    current, drawn = threading.local(), []

    def draw(cfg, d, c, k):
        current.c = c
        drawn.append(c)
        return pair_chunk(cfg, d, c, k)

    monkeypatch.setattr(workstats, "pair_chunk", draw)
    return current, drawn


def bell_state():
    v = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()))


def max_entangled_state(d):
    v = np.zeros(d * d, dtype=np.complex128)
    v[:: d + 1] = 1 / np.sqrt(d)
    return DensityMatrix(np.outer(v, v.conj()))


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
