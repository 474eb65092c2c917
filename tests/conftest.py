import pytest

from kljn import ResistorQuad, solve_variances


@pytest.fixture(scope="session")
def asymmetric_quad():
    """Four distinct resistances; the package's canonical worked example."""
    return ResistorQuad(r_la=1000.0, r_ha=10_000.0, r_lb=5000.0, r_hb=9000.0)


@pytest.fixture(scope="session")
def asymmetric_vars(asymmetric_quad):
    return solve_variances(asymmetric_quad, 1.0)


@pytest.fixture(scope="session")
def symmetric_quad():
    """Equal resistor pairs on both sides: the classic special case."""
    return ResistorQuad(r_la=1000.0, r_ha=9000.0, r_lb=1000.0, r_hb=9000.0)


@pytest.fixture
def missing_draw_symbol(monkeypatch):
    """A numpy whose random._generator exports no random_standard_normal_fill.

    The extension's path is pointed at numpy's Philox extension, which does not
    export it, and the resolved function is forgotten before and after.
    """
    import ctypes

    from numpy.random import _generator, _philox

    from kljn import noise

    assert not hasattr(ctypes.PyDLL(_philox.__file__), "random_standard_normal_fill")
    noise._standard_normal_fill.cache_clear()
    monkeypatch.setattr(_generator, "__file__", _philox.__file__)
    yield
    noise._standard_normal_fill.cache_clear()
