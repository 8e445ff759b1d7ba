"""Spatially-correlated field sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from repro.variation import chip as chip_module
from repro.variation import correlation
from repro.variation.correlation import (
    build_covariance,
    exponential_correlation,
    sample_correlated_field,
)
from repro.variation.population import generate_population


class TestExponentialCorrelation:
    def test_unity_at_zero(self):
        assert exponential_correlation(np.array(0.0), 4.0) == pytest.approx(1.0)

    def test_decays_with_distance(self):
        d = np.array([0.0, 1.0, 2.0, 8.0])
        rho = exponential_correlation(d, 4.0)
        assert (np.diff(rho) < 0).all()

    def test_e_folding(self):
        assert exponential_correlation(np.array(4.0), 4.0) == pytest.approx(
            np.exp(-1)
        )

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            exponential_correlation(np.array([-1.0]), 4.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            exponential_correlation(np.array([1.0]), 0.0)


class TestBuildCovariance:
    def test_diagonal_is_variance(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        cov = build_covariance(pts, sigma=0.1, length_mm=4.0)
        np.testing.assert_allclose(np.diag(cov), 0.01)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 10, size=(20, 2))
        cov = build_covariance(pts, 0.08, 3.0)
        np.testing.assert_allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > -1e-12

    def test_rejects_bad_points_shape(self):
        with pytest.raises(ValueError):
            build_covariance(np.zeros((3, 3)), 0.1, 1.0)


class TestSampleField:
    def test_deterministic_for_seed(self):
        pts = np.random.default_rng(1).uniform(0, 5, (10, 2))
        a = sample_correlated_field(pts, 1.0, 0.1, 4.0, np.random.default_rng(5))
        b = sample_correlated_field(pts, 1.0, 0.1, 4.0, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_mean_and_std_statistics(self):
        # Average over many independent fields: each point's marginal is
        # N(mean, sigma).
        pts = np.array([[0.0, 0.0], [50.0, 0.0]])  # nearly independent
        rng = np.random.default_rng(3)
        samples = np.array(
            [sample_correlated_field(pts, 1.0, 0.1, 2.0, rng) for _ in range(4000)]
        )
        assert samples.mean() == pytest.approx(1.0, abs=0.01)
        assert samples.std() == pytest.approx(0.1, abs=0.01)

    def test_nearby_points_strongly_correlated(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [40.0, 0.0]])
        rng = np.random.default_rng(4)
        samples = np.array(
            [sample_correlated_field(pts, 1.0, 0.1, 4.0, rng) for _ in range(2000)]
        )
        corr = np.corrcoef(samples.T)
        assert corr[0, 1] > 0.95  # 0.1 mm apart, 4 mm correlation length
        assert abs(corr[0, 2]) < 0.2  # 40 mm apart


@settings(max_examples=20, deadline=None)
@given(
    sigma=st.floats(0.01, 0.3),
    length=st.floats(0.5, 10.0),
    seed=st.integers(0, 2**31),
)
def test_property_sample_finite_and_shaped(sigma, length, seed):
    pts = np.random.default_rng(0).uniform(0, 8, (12, 2))
    field = sample_correlated_field(
        pts, 1.0, sigma, length, np.random.default_rng(seed)
    )
    assert field.shape == (12,)
    assert np.isfinite(field).all()


def _uncached_field(points_mm, mean, sigma, length_mm, rng):
    """Oracle: build and factor the covariance on every draw."""
    cov = build_covariance(points_mm, sigma, length_mm)
    jitter = 1e-10 * sigma**2
    chol = linalg.cholesky(cov + jitter * np.eye(cov.shape[0]), lower=True)
    return mean + chol @ rng.standard_normal(cov.shape[0])


class TestFactorCache:
    def test_population_matches_uncached_oracle(self, monkeypatch):
        correlation._cholesky_factor.cache_clear()
        factorizations = []
        original = correlation.linalg.cholesky

        def counting(*args, **kwargs):
            factorizations.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(correlation.linalg, "cholesky", counting)
        cached = generate_population(4, seed=12)
        # Four chips on one grid factor the covariance once.
        assert len(factorizations) == 1
        monkeypatch.setattr(
            chip_module, "sample_correlated_field", _uncached_field
        )
        oracle = generate_population(4, seed=12)
        assert len(factorizations) == 5  # the oracle factors per chip
        for left, right in zip(cached, oracle):
            np.testing.assert_array_equal(left.theta, right.theta)

    def test_cached_factor_is_read_only(self):
        pts = np.random.default_rng(2).uniform(0, 5, (6, 2))
        field = sample_correlated_field(
            pts, 1.0, 0.1, 4.0, np.random.default_rng(0)
        )
        assert field.flags.writeable
        factor = correlation._cholesky_factor(pts.tobytes(), pts.shape, 0.1, 4.0)
        assert not factor.flags.writeable
