"""Tests for the incomplete-beta based tail probabilities."""

import math

import numpy as np
import pytest
from scipy import stats, special as sp_special

from specloss.errors import InvalidArgumentError
from specloss.special import betainc_regularized, f_sf, student_t_sf


def test_betainc_boundaries():
    assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
    assert betainc_regularized(2.0, 3.0, 1.0) == 1.0
    assert betainc_regularized(2.0, 3.0, -0.5) == 0.0
    assert betainc_regularized(2.0, 3.0, 1.5) == 1.0


def test_betainc_uniform_case_is_identity():
    for x in (0.1, 0.25, 0.5, 0.9):
        assert math.isclose(betainc_regularized(1.0, 1.0, x), x, rel_tol=1e-14)


def test_betainc_reflection_symmetry():
    rng = np.random.default_rng(3)
    for case in range(50):
        a = float(rng.uniform(0.5, 20.0))
        b = float(rng.uniform(0.5, 20.0))
        x = float(rng.uniform(0.01, 0.99))
        left = betainc_regularized(a, b, x)
        right = 1.0 - betainc_regularized(b, a, 1.0 - x)
        assert math.isclose(left, right, rel_tol=1e-11, abs_tol=1e-14)


def test_betainc_matches_scipy():
    rng = np.random.default_rng(4)
    for case in range(100):
        a = float(rng.uniform(0.5, 200.0))
        b = float(rng.uniform(0.5, 200.0))
        x = float(rng.uniform(0.001, 0.999))
        ours = betainc_regularized(a, b, x)
        ref = float(sp_special.betainc(a, b, x))
        assert math.isclose(ours, ref, rel_tol=1e-11, abs_tol=1e-14)


def test_betainc_rejects_bad_parameters():
    with pytest.raises(InvalidArgumentError):
        betainc_regularized(0.0, 1.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        betainc_regularized(1.0, -2.0, 0.5)


def test_t_sf_cauchy_closed_form():
    # df=1 is the Cauchy distribution: P(T > t) = 1/2 - atan(t)/pi.
    for t in (-5.0, -1.0, 0.0, 0.5, 2.0, 30.0):
        expected = 0.5 - math.atan(t) / math.pi
        assert math.isclose(student_t_sf(t, 1), expected, rel_tol=1e-12, abs_tol=1e-15)


def test_t_sf_df2_closed_form():
    # df=2: P(T > t) = (1 - t/sqrt(2 + t^2)) / 2.
    for t in (-3.0, -0.5, 0.0, 1.0, 4.0):
        expected = 0.5 * (1.0 - t / math.sqrt(2.0 + t * t))
        assert math.isclose(student_t_sf(t, 2), expected, rel_tol=1e-12, abs_tol=1e-15)


def test_t_sf_symmetry_and_midpoint():
    assert student_t_sf(0.0, 7) == 0.5
    rng = np.random.default_rng(5)
    for case in range(50):
        t = float(rng.uniform(0.01, 8.0))
        df = int(rng.integers(1, 300))
        assert math.isclose(
            student_t_sf(-t, df), 1.0 - student_t_sf(t, df), rel_tol=1e-12
        )


def test_t_sf_monotone_decreasing():
    values = [student_t_sf(t, 17) for t in np.linspace(-10.0, 10.0, 401)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_t_sf_matches_scipy():
    rng = np.random.default_rng(6)
    for case in range(100):
        t = float(rng.uniform(-12.0, 12.0))
        df = int(rng.integers(1, 500))
        ours = student_t_sf(t, df)
        ref = float(stats.t.sf(t, df))
        assert math.isclose(ours, ref, rel_tol=1e-10, abs_tol=1e-300)


def test_tails_match_scipy_at_large_degrees_of_freedom():
    # log-spaced degrees of freedom up to 100,000, where lgamma
    # differences in the incomplete-beta front factor used to cancel to
    # relative errors near 5e-10 (1.2e-10 for F tails with both degrees
    # large), and small |t|, where rounding df/(df + t^2) before taking
    # its complement cost up to 4e-9.
    dfs = sorted(set(np.round(np.logspace(0, 5, 60)).astype(int).tolist())
                 | {25496, 100000})
    worst_t = 0.0
    for df in dfs:
        for t in (0.001, 0.01, 0.1, 0.5, 1.0, 1.6, 2.0, 3.0, 5.0, 8.0):
            for signed in (t, -t):
                ref = float(stats.t.sf(signed, df))
                worst_t = max(worst_t, abs(student_t_sf(signed, df) - ref) / ref)
    worst_f = 0.0
    for df1 in (1, 2, 3, 5, 8, 20, 100, 1000, 10000, 100000):
        for df2 in dfs:
            for f in (0.2, 0.8, 1.0, 1.5, 3.0, 6.0, 20.0):
                ref = float(stats.f.sf(f, df1, df2))
                if ref > 1e-280:
                    worst_f = max(worst_f, abs(f_sf(f, df1, df2) - ref) / ref)
    assert worst_t < 3e-11, worst_t
    assert worst_f < 3e-11, worst_f


def test_f_sf_small_ratio_at_large_denominator_df():
    # df1*f small against df2: the complement df1*f/(df2 + df1*f) goes to
    # the incomplete beta exactly; 1 - df2/(df2 + df1*f) cost 1.04e-11.
    for f, df1, df2 in [(0.2, 1, 100000), (0.2, 2, 100000), (0.8, 1, 25496)]:
        ref = float(stats.f.sf(f, df1, df2))
        assert abs(f_sf(f, df1, df2) - ref) <= 1e-13 * ref, (f, df1, df2)


def test_t_sf_special_inputs():
    assert math.isnan(student_t_sf(math.nan, 5))
    assert student_t_sf(math.inf, 5) == 0.0
    assert student_t_sf(-math.inf, 5) == 1.0
    with pytest.raises(InvalidArgumentError):
        student_t_sf(1.0, 0)


def test_f_sf_reduces_to_two_sided_t():
    # F(1, d) is the square of t(d), so P(F > f) = 2 P(T > sqrt(f)).
    rng = np.random.default_rng(8)
    for case in range(50):
        f = float(rng.uniform(0.01, 25.0))
        df = int(rng.integers(2, 300))
        assert math.isclose(
            f_sf(f, 1, df), 2.0 * student_t_sf(math.sqrt(f), df), rel_tol=1e-10
        )


def test_f_sf_matches_scipy():
    rng = np.random.default_rng(9)
    for case in range(100):
        f = float(rng.uniform(0.0, 60.0))
        df1 = int(rng.integers(1, 40))
        df2 = int(rng.integers(1, 400))
        ours = f_sf(f, df1, df2)
        ref = float(stats.f.sf(f, df1, df2))
        assert math.isclose(ours, ref, rel_tol=1e-9, abs_tol=1e-300)


def test_f_sf_special_inputs():
    assert f_sf(0.0, 3, 10) == 1.0
    assert f_sf(math.inf, 3, 10) == 0.0
    assert math.isnan(f_sf(math.nan, 3, 10))
    with pytest.raises(InvalidArgumentError):
        f_sf(-0.5, 3, 10)
    with pytest.raises(InvalidArgumentError):
        f_sf(1.0, 0, 10)
    with pytest.raises(InvalidArgumentError):
        f_sf(1.0, 3, 0)


def test_tail_probabilities_stay_in_unit_interval():
    rng = np.random.default_rng(10)
    for case in range(200):
        t = float(rng.uniform(-50.0, 50.0))
        df = int(rng.integers(1, 1000))
        p = student_t_sf(t, df)
        assert 0.0 <= p <= 1.0
