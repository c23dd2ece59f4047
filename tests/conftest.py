import contextlib
import inspect
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

import gq
from gq import Chart, GVar


@pytest.fixture
def rng():
    return random.Random(20240)


@pytest.fixture
def nprng():
    return np.random.default_rng(20240)


def random_poly(chart, rng, max_terms=3, max_even_exp=2, coeff_range=3):
    """Random polynomial in canonical form; odd exponents in {0, 1}."""
    p = chart.zero()
    for _ in range(rng.randint(1, max_terms)):
        key = []
        for v in chart.gvars:
            if v.parity:
                key.append(rng.randint(0, 1))
            else:
                key.append(rng.randint(0, max_even_exp))
        c = Fraction(rng.randint(-coeff_range, coeff_range))
        p = p + chart.monomial(c, tuple(key))
    return p


def given(*builders):
    """Run the decorated property on examples drawn by hypothesis, and skip it
    when hypothesis is not installed; each builder maps
    `hypothesis.strategies` to one argument's strategy."""
    def decorate(prop):
        def test():
            hypothesis = pytest.importorskip("hypothesis")
            st = hypothesis.strategies
            run = hypothesis.given(*(b(st) for b in builders))(prop)
            hypothesis.settings(max_examples=80, deadline=None)(run)()
        test.__name__ = prop.__name__
        return test
    return decorate


@contextlib.contextmanager
def entered_code():
    """Yields the set of code objects of every Python function entered
    inside the block, recorded by `sys.setprofile`."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield entered
    finally:
        sys.setprofile(previous)


def public_names():
    """The names `gq` exports: those `dir(gq)` lists, bar modules and
    underscored names."""
    return sorted(name for name in dir(gq)
                  if not name.startswith("_") and not inspect.ismodule(getattr(gq, name)))


def homogeneous_pieces(p):
    return [c for c in p.weight_decomposition().values() if not c.is_zero()]


def so3_matrix(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def smooth_so3_path(nprng, segments=10, scale=0.8):
    from gq import APath

    ts = np.linspace(0.0, 1.0, segments + 1)
    c = nprng.normal(size=(3, 3)) * scale
    mats = np.stack([so3_matrix(c[0] * np.sin(2 * t) + c[1] * t + c[2] * np.cos(t))
                     for t in ts])
    return APath(ts, mats)
