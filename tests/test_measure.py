import math

import numpy as np
import pytest
from fractions import Fraction

from framesphere.errors import (
    ConfigurationError,
    DimensionUnsupportedError,
    SamplingFailureError,
    ShapeMismatchError,
)
from framesphere.measure import (
    MC_CHUNK,
    MCEstimate,
    RngStream,
    SpherePoint,
    UnitaryMatrix,
    exact_monomial_moment,
    haar_sample_batch,
    mc_integrate_group,
    mc_integrate_sphere,
    sphere_sample_batch,
)


def test_rng_stream_is_reproducible():
    a = sphere_sample_batch(3, 16, RngStream(seed=42, stream_id=7))
    b = sphere_sample_batch(3, 16, RngStream(seed=42, stream_id=7))
    assert np.array_equal(a, b)


def test_rng_stream_ids_give_distinct_sequences():
    a = sphere_sample_batch(3, 16, RngStream(seed=42, stream_id=0))
    b = sphere_sample_batch(3, 16, RngStream(seed=42, stream_id=1))
    assert not np.allclose(a, b)


def test_rng_child_streams_are_distinct_and_reproducible():
    root = RngStream(seed=5)
    c0 = sphere_sample_batch(3, 8, root.child(0))
    c1 = sphere_sample_batch(3, 8, root.child(1))
    c0_again = sphere_sample_batch(3, 8, RngStream(seed=5).child(0))
    assert not np.allclose(c0, c1)
    assert np.array_equal(c0, c0_again)


def test_rng_rejects_negative_seed():
    with pytest.raises(ConfigurationError):
        RngStream(seed=-1)


def test_sphere_point_validation():
    p = SpherePoint([1.0, 0.0, 0.0])
    assert p.n == 3
    with pytest.raises(ShapeMismatchError):
        SpherePoint([1.0, 1.0, 0.0])
    with pytest.raises(DimensionUnsupportedError):
        SpherePoint([1.0, 0.0])


def test_unitary_matrix_validation():
    u = UnitaryMatrix(np.eye(3))
    assert u.n == 3
    with pytest.raises(ShapeMismatchError):
        UnitaryMatrix(np.ones((3, 3)))


def test_sphere_samples_live_on_the_sphere():
    pts = sphere_sample_batch(4, 500, RngStream(seed=1))
    norms = np.linalg.norm(pts, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_sphere_sampler_second_moment():
    # E |z_1|^2 = 1/n for the invariant measure
    n = 3
    pts = sphere_sample_batch(n, 200_000, RngStream(seed=2))
    value = np.mean(np.abs(pts[:, 0]) ** 2)
    assert abs(value - 1 / n) < 4 * np.std(np.abs(pts[:, 0]) ** 2) / np.sqrt(len(pts))


def test_haar_samples_are_unitary():
    gs = haar_sample_batch(3, 64, RngStream(seed=4))
    eye = np.eye(3)
    for g in gs:
        assert np.max(np.abs(np.conj(g.T) @ g - eye)) < 1e-12


def test_haar_first_column_matches_sphere_statistics():
    # the first column of a Haar unitary is a uniform sphere point
    n = 3
    gs = haar_sample_batch(n, 100_000, RngStream(seed=6))
    col = gs[:, :, 0]
    value = np.mean(np.abs(col[:, 0]) ** 2)
    se = np.std(np.abs(col[:, 0]) ** 2) / np.sqrt(len(col))
    assert abs(value - 1 / n) < 4 * se


def test_mc_estimate_invariants():
    est = MCEstimate(mean=1.0 + 0.0j, stderr=0.1, n_samples=100)
    assert est.stderr >= 0
    with pytest.raises(ConfigurationError):
        MCEstimate(mean=0j, stderr=-0.5, n_samples=100)
    with pytest.raises(ConfigurationError):
        MCEstimate(mean=0j, stderr=0.0, n_samples=1)


class _Moment:
    def __init__(self, alpha, beta):
        self.alpha = alpha
        self.beta = beta

    def evaluate_batch(self, pts):
        out = np.ones(pts.shape[0], dtype=complex)
        for k, (a, b) in enumerate(zip(self.alpha, self.beta)):
            if a:
                out *= pts[:, k] ** a
            if b:
                out *= np.conj(pts[:, k]) ** b
        return out


@pytest.mark.parametrize(
    "alpha,beta,n",
    [
        ((1, 0, 0), (1, 0, 0), 3),
        ((2, 0, 0), (2, 0, 0), 3),
        ((1, 1, 0), (1, 1, 0), 3),
        ((1, 0, 0), (0, 1, 0), 3),
        ((2, 1, 0, 0), (2, 1, 0, 0), 4),
    ],
)
def test_mc_moments_match_exact_formula(alpha, beta, n):
    expect = float(exact_monomial_moment(alpha, beta, n))
    est = mc_integrate_sphere(_Moment(alpha, beta), n, 200_000, RngStream(seed=7, stream_id=1))
    assert abs(est.mean - expect) <= 4 * est.stderr + 1e-12


def test_exact_monomial_moment_values():
    # (n-1)! alpha! / (n-1+|alpha|)! on the diagonal, zero off it
    assert exact_monomial_moment((1, 0, 0), (1, 0, 0), 3) == Fraction(1, 3)
    assert exact_monomial_moment((2, 0, 0), (2, 0, 0), 3) == Fraction(1, 6)
    assert exact_monomial_moment((1, 1, 0), (1, 1, 0), 3) == Fraction(1, 12)
    assert exact_monomial_moment((1, 0, 0), (0, 1, 0), 3) == 0
    assert exact_monomial_moment((0, 0, 0), (0, 0, 0), 3) == 1
    assert exact_monomial_moment((1, 0, 0, 0), (1, 0, 0, 0), 4) == Fraction(1, 4)


def test_exact_monomial_moment_rejects_bad_indices():
    with pytest.raises(ShapeMismatchError):
        exact_monomial_moment((1, 0), (1, 0, 0), 3)
    with pytest.raises(ShapeMismatchError):
        exact_monomial_moment((-1, 0, 0), (1, 0, 0), 3)


def test_mc_integrate_chunks_match_one_batch():
    # three chunks merged in draw order give the statistics of one big draw
    n_samples = 2 * MC_CHUNK + 5
    f = _Moment((1, 0, 0), (1, 0, 0))
    est = mc_integrate_sphere(f, 3, n_samples, RngStream(seed=8))
    values = f.evaluate_batch(sphere_sample_batch(3, n_samples, RngStream(seed=8)))
    mean = complex(values.mean())
    stderr = math.sqrt(float(np.sum(np.abs(values - mean) ** 2)) / (n_samples - 1) / n_samples)
    assert est.n_samples == n_samples
    assert abs(est.mean - mean) <= 1e-15 * abs(mean)
    assert abs(est.stderr - stderr) <= 1e-15 * stderr


def test_mc_integrate_group_constant():
    est = mc_integrate_group(lambda g: 1.0 + 0j, 3, 100, RngStream(seed=9))
    assert est.mean == pytest.approx(1.0)
    assert est.stderr == pytest.approx(0.0)


def test_mc_integrate_rejects_tiny_sample_counts():
    with pytest.raises(ConfigurationError):
        mc_integrate_sphere(_Moment((0, 0, 0), (0, 0, 0)), 3, 1, RngStream(seed=10))


def test_non_finite_integrand_is_reported():
    class Bad:
        def evaluate_batch(self, pts):
            out = np.zeros(pts.shape[0], dtype=complex)
            out[0] = np.inf
            return out

    with pytest.raises(SamplingFailureError):
        mc_integrate_sphere(Bad(), 3, 100, RngStream(seed=11))
