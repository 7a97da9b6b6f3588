import dataclasses
import math
import warnings

import numpy as np
import pytest

from cavitylink.qstate import ATOM_E, ATOM_G, QStateError
from cavitylink import perturb
from cavitylink.jcmodel import dressed_pair, jc_space, manifold_splitting
from cavitylink.perturb import (
    FROZEN_CALIBRATION, FROZEN_CONVENTION, SOURCE_POINT_ANGULAR,
    SOURCE_POINT_CYCLIC, QuadratureError, TwoPhotonParams, _path_elements,
    _sigma0_free_total,
    calibrate_convention, two_photon_amplitude, two_photon_probability,
    two_photon_tdse_oracle)


def small_point(sigma0=0.02):
    # weak drive keeps second-order theory accurate for oracle comparisons
    return TwoPhotonParams(rabi_coupling=1.0, delta=10.0, tau=8.0, sigma0=sigma0)


def test_params_validation():
    with pytest.raises(QStateError, match="delta"):
        TwoPhotonParams(rabi_coupling=1.0, delta=0.0, tau=1.0, sigma0=0.1)
    with pytest.raises(QStateError, match="tau"):
        TwoPhotonParams(rabi_coupling=1.0, delta=10.0, tau=-1.0, sigma0=0.1)
    with pytest.warns(UserWarning, match="dispersive"):
        TwoPhotonParams(rabi_coupling=5.0, delta=10.0, tau=1.0, sigma0=0.1)


def test_laser_frequency_is_half_the_gap():
    p = small_point()
    params = p.jc_params()
    r1 = float(manifold_splitting(params, 1))
    np.testing.assert_allclose(p.laser_frequency, (r1 + p.delta / 2.0) / 2.0)


def _dressed_hops(p: TwoPhotonParams, cutoff: int = 2) -> tuple:
    """Hops g0 -> V(+,-),0 and V(+,-),0 -> V+,1 as overlaps of dressed
    vectors under the bare atom raising operator s+ (x) 1."""
    params = p.jc_params()
    raise_op = np.zeros((2, 2))
    raise_op[ATOM_E, ATOM_G] = 1.0
    s_plus = np.kron(raise_op, np.eye(cutoff + 1))
    g0 = jc_space(cutoff).basis_state({"atom": ATOM_G, "cavity": 0}).amplitudes
    pair0 = dressed_pair(params, 0, cutoff)
    v1_plus = dressed_pair(params, 1, cutoff).v_plus
    middle = (pair0.v_plus, pair0.v_minus)
    hop1 = np.array([np.vdot(v, s_plus @ g0) for v in middle])
    hop2 = np.array([np.vdot(v1_plus, s_plus @ v) for v in middle])
    return hop1, hop2


def test_path_weights_are_products_of_dressed_hops():
    for p in (SOURCE_POINT_CYCLIC, TwoPhotonParams(1.0, 5.0, 3.0, 0.1)):
        hop1, hop2 = _dressed_hops(p)
        got1, got2, _d1, _d2 = _path_elements(p.rabi_coupling, p.delta)
        np.testing.assert_allclose(got1, hop1, rtol=0, atol=1e-14)
        np.testing.assert_allclose(got2, hop2, rtol=0, atol=1e-14)
    # the elements at the operating point, through V+ and V- respectively
    hop1, hop2 = _dressed_hops(SOURCE_POINT_CYCLIC)
    np.testing.assert_allclose(hop1, [0.99513333, -0.09853762], atol=1e-8)
    np.testing.assert_allclose(hop2, [0.09760325, 0.98569713], atol=1e-8)
    np.testing.assert_allclose(hop1 * hop2, [0.09712825, -0.09712825], atol=1e-8)


def test_zero_drive_gives_zero_amplitude():
    p = small_point(sigma0=0.0)
    _sigma0_free_total.cache_clear()
    assert two_photon_probability(p) == 0.0
    assert two_photon_amplitude(p) == 0.0
    # exactly zero without integrating, so nothing is cached
    assert _sigma0_free_total.cache_info().currsize == 0


# forward: the |g,0> -> |V+,1> amplitude
@pytest.mark.parametrize("point", [SOURCE_POINT_ANGULAR, SOURCE_POINT_CYCLIC,
                                   small_point()],
                         ids=["forward-angular", "forward-cyclic", "forward-small"])
def test_cold_and_warm_amplitudes_are_identical(point):
    # the cached integral is filled at one drive strength and read at others:
    # every amplitude must equal the one computed with the cache empty
    scales = np.random.default_rng(17).uniform(0.1, 1.0, size=4)
    points = [dataclasses.replace(point, sigma0=point.sigma0 * s) for s in scales]
    cold = []
    for p in points:
        _sigma0_free_total.cache_clear()
        cold.append(two_photon_amplitude(p))
    _sigma0_free_total.cache_clear()
    base = two_photon_amplitude(point)
    warm = [two_photon_amplitude(p) for p in points]
    info = _sigma0_free_total.cache_info()
    assert (info.misses, info.hits) == (1, len(points))
    assert warm == cold
    # and the amplitude scales as sigma0^2
    for s, amp in zip(scales, warm):
        np.testing.assert_allclose(amp, s ** 2 * base, rtol=1e-14, atol=0)


def _trapezoid_total(p: TwoPhotonParams, n: int) -> complex:
    """sum_j hop1_j hop2_j times path j's ordered double integral, by a
    cumulative trapezoid on n + 1 points of the window."""
    hop1, hop2, d1, d2 = _path_elements(p.rabi_coupling, p.delta)
    t_start, t_end = p.pulse.window
    t = np.linspace(t_start, t_end, n + 1)
    dt = (t_end - t_start) / n
    env = np.exp(-(t / p.tau) ** 2)
    total = 0.0
    for w, d_in, d_out in zip(hop1 * hop2, d1, d2):
        f_in = env * np.exp(1j * d_in * t)
        inner = np.concatenate(([0.0], np.cumsum(f_in[1:] + f_in[:-1]) * dt / 2))
        g = env * np.exp(1j * d_out * t) * inner
        total += w * np.sum(g[1:] + g[:-1]) * dt / 2
    return total


@pytest.mark.parametrize("point", [SOURCE_POINT_ANGULAR, SOURCE_POINT_CYCLIC],
                         ids=["forward-angular", "forward-cyclic"])
def test_ordered_integral_matches_richardson_trapezoid(point):
    # the trapezoid's error falls as h^2, so (4 T_2n - T_n) / 3 removes it
    coarse, fine = (_trapezoid_total(point, n) for n in (2 ** 15, 2 ** 16))
    oracle = (4.0 * fine - coarse) / 3.0
    total = _sigma0_free_total(point.rabi_coupling, point.delta, point.tau)
    np.testing.assert_allclose(total, oracle, rtol=1e-9, atol=0)


def test_panel_cap_refuses_before_any_rule_is_evaluated(monkeypatch):
    def no_rule(panels):
        raise AssertionError("a panel rule was evaluated")

    # the angular point starts at 63 panels, the cyclic one at 392
    monkeypatch.setattr(perturb, "ORDERED_MAX_PANELS", 32)
    monkeypatch.setattr(perturb, "_step_rule", no_rule)
    _sigma0_free_total.cache_clear()
    with pytest.raises(QuadratureError, match="63 panels .* would pass ORDERED_MAX_PANELS"):
        two_photon_probability(SOURCE_POINT_ANGULAR)
    with pytest.raises(QuadratureError, match="392 panels"):
        two_photon_probability(SOURCE_POINT_CYCLIC)
    assert _sigma0_free_total.cache_info().currsize == 0


def test_unconverged_ordered_integral_stops_at_the_panel_cap(monkeypatch):
    # no two totals agree to a negative tolerance: 63, 126 and 252 panels are
    # evaluated, then 504 would pass the cap
    monkeypatch.setattr(perturb, "ORDERED_REL_TOL", -1.0)
    monkeypatch.setattr(perturb, "ORDERED_MAX_PANELS", 300)
    _sigma0_free_total.cache_clear()
    with pytest.raises(QuadratureError, match="504 panels"):
        two_photon_probability(SOURCE_POINT_ANGULAR)


def test_perturbative_quadratic_scaling_in_drive():
    # second-order amplitude scales as sigma0^2 while the theory holds
    p1 = small_point(sigma0=0.01)
    p2 = small_point(sigma0=0.02)
    a1 = abs(two_photon_amplitude(p1))
    a2 = abs(two_photon_amplitude(p2))
    np.testing.assert_allclose(a2 / a1, 4.0, rtol=1e-10)


def test_perturbative_matches_tdse_oracle_weak_drive():
    p = small_point()
    pert = two_photon_probability(p)
    exact = two_photon_tdse_oracle(p, tol=1e-10)
    assert pert > 1e-8
    np.testing.assert_allclose(pert, exact, rtol=0.05)


def test_breakdown_warning_above_unity():
    strong = small_point(sigma0=2.0)
    _sigma0_free_total.cache_clear()
    with pytest.warns(UserWarning, match="exceeds 1"):
        assert two_photon_probability(strong) > 1.0
    # a cache hit warns as well, the cached integral being sigma0-free
    with pytest.warns(UserWarning, match="exceeds 1"):
        assert two_photon_probability(strong) > 1.0
    assert _sigma0_free_total.cache_info().hits == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert two_photon_probability(small_point()) < 1.0


def test_operating_point_calibration_frozen_values():
    report = calibrate_convention()
    assert report.chosen == FROZEN_CONVENTION == "cyclic"
    for name in ("angular", "cyclic"):
        np.testing.assert_allclose(report.perturbative[name],
                                   FROZEN_CALIBRATION[name]["perturbative"],
                                   rtol=1e-2)
        np.testing.assert_allclose(report.tdse[name],
                                   FROZEN_CALIBRATION[name]["tdse"], rtol=1e-2)
    # neither reading reproduces the quoted 0.47 band
    assert not report.in_band
    assert abs(report.perturbative["cyclic"] - 0.47) > 0.02
    assert abs(report.tdse["cyclic"] - 0.47) > 0.02


def test_source_points_have_expected_ratios():
    for p in (SOURCE_POINT_ANGULAR, SOURCE_POINT_CYCLIC):
        np.testing.assert_allclose(p.delta / p.rabi_coupling, 10.0)
        np.testing.assert_allclose(p.sigma0 / p.rabi_coupling, 1.0)
        np.testing.assert_allclose(p.tau, 2e-5)
    np.testing.assert_allclose(
        SOURCE_POINT_CYCLIC.rabi_coupling / SOURCE_POINT_ANGULAR.rabi_coupling,
        2.0 * math.pi)
