import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from propermaps.corpus import corpus


@pytest.fixture(scope="session")
def registry():
    return corpus()


@pytest.fixture()
def rng():
    return np.random.default_rng(20140609)


def sample_sphere(n, count, seed=0):
    """Independent sphere sampler used as a numeric oracle in tests."""
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((count, n)) + 1j * gen.standard_normal((count, n))
    return g / np.linalg.norm(g, axis=1)[:, None]


def bench_module(name, monkeypatch):
    """A module of the benchmark directory, loaded from its file (read only)."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module
