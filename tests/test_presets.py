import dataclasses
import math
import time

import numpy as np
import pytest

from goalfem.adaptivity import run_adaptive
from goalfem.errors import UnknownExperiment
from goalfem.presets import (SLIT_JC, SQUARE_J, SQUARE_TERMS, get_preset,
                             preset_names, slit_references)


def test_roster_complete():
    assert preset_names() == [
        "example1a_case1", "example1a_case1_q3q4", "example1a_case2",
        "example1b_case1", "example1b_case2",
        "example1c_case1", "example1c_case2", "example2"]


def test_unknown_name():
    with pytest.raises(UnknownExperiment):
        get_preset("example3")


def test_every_preset_has_references():
    from goalfem.goals import catalog

    for name in preset_names():
        cfg = get_preset(name)
        assert cfg.reference_values is not None
        assert cfg.reference_uncertainties is not None
        assert all(u >= 0 for u in cfg.reference_uncertainties)
        assert len(cfg.reference_values) == len(catalog(cfg.experiment))


def test_point_reference_is_exact_closed_form():
    cfg = get_preset("example1b_case1")
    assert cfg.reference_values[0] == math.sin(7.2)


def test_square_reference_is_the_series_sum():
    # the literal is the fsum of the Fourier series over odd m below
    # SQUARE_TERMS, to the last bit
    series = 1.0 / 12.0 - 16.0 / math.pi ** 5 * math.fsum(
        math.tanh(m * math.pi / 2.0) / m ** 5
        for m in range(1, SQUARE_TERMS, 2))
    assert SQUARE_J == series
    assert get_preset("example1a_case1").reference_values == (SQUARE_J,)


def test_slit_integral_reference_oracle():
    # recompute the frozen J_C by adaptive quadrature of the closed form,
    # split along the slit where the integrand jumps, over only the part
    # where the weight (y - x)_+ is nonzero: the kink along y = x stays
    # on the boundary of both regions
    from scipy import integrate

    from goalfem.problems import slit_exact

    def f(y, x):
        return (y - x) * float(slit_exact(x, y))

    up, _ = integrate.dblquad(f, -1, 1, lambda x: max(x, 0.0), 1,
                              epsabs=1e-11, epsrel=1e-11)
    lo, _ = integrate.dblquad(f, -1, 0, lambda x: x, 0,
                              epsabs=1e-11, epsrel=1e-11)
    assert SLIT_JC == pytest.approx(up + lo, abs=5e-9)


def test_slit_reference_consistency():
    refs = slit_references()
    cfg = get_preset("example2")
    assert cfg.reference_values == refs
    # J_D telescopes to twice the area of the positive quadrant
    assert refs[0] / refs[3] == pytest.approx(
        2.0 / (-math.sqrt(math.sqrt(1.62) + 0.9)), rel=1e-12)


def test_cheese_reference_combos():
    cfg = get_preset("example1c_case1")
    q = 0.16071095234
    assert cfg.reference_values[0] == pytest.approx((1 + q) ** 2, rel=1e-12)
    assert cfg.reference_values[1] == pytest.approx(
        (4.1285036414 - 8 * 0.49244705234) ** 2, rel=1e-12)
    assert cfg.reference_values[2] == 0.31999986649
    assert cfg.reference_values[3] == 0.35554352679


@pytest.mark.parametrize("name", preset_names())
def test_first_two_levels_under_a_minute(name):
    cfg = dataclasses.replace(get_preset(name), max_levels=2)
    t0 = time.perf_counter()
    records = run_adaptive(cfg)
    wall = time.perf_counter() - t0
    assert len(records) == 2
    assert all(np.isfinite(r.eta_h) for r in records)
    assert wall < 60.0
