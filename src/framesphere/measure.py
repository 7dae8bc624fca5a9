"""Sampling and integration on the complex unit sphere and the unitary group.

The sphere S^{2n-1} subset C^n carries the unique unitarily invariant
probability measure; it is realised by normalising a vector of 2n independent
standard Gaussians read as n complex entries.  Unitaries are drawn from Haar
measure via the QR decomposition of a complex Ginibre matrix with the phase
correction q_k -> q_k * r_kk / |r_kk|, without which the distribution of Q
would depend on the QR sign convention and fail to be Haar.

Monomial moments over the sphere have an exact rational closed form
(``exact_monomial_moment``); everything float in this module is cross-checked
against it in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionUnsupportedError,
    SamplingFailureError,
    ShapeMismatchError,
)

#: Unit-norm / unitarity validation tolerance for constructed points and matrices.
UNIT_TOL = 1e-12
#: Samples drawn per chunk by every Monte Carlo route; a multiple of
#: ``polynomials.EVAL_BLOCK``, so chunking leaves the evaluation blocks as they are.
MC_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------


@dataclass
class RngStream:
    """A named, reproducible random stream.

    Two streams constructed with the same ``(seed, stream_id)`` produce
    bit-identical sample sequences.  ``child(k)`` derives an independent
    stream deterministically; callers give each Monte Carlo estimate of one
    run its own child, so results do not depend on which others are computed.
    """

    seed: int
    stream_id: int = 0
    _path: tuple = ()
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.seed < 0 or self.stream_id < 0:
            raise ConfigurationError("seed and stream_id must be nonnegative")
        entropy = (self.seed, self.stream_id) + self._path
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def child(self, k: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self._path + (k,))


def _require_dimension(n: int) -> None:
    if n < 3:
        raise DimensionUnsupportedError(f"ambient dimension n={n} is not supported; need n >= 3")


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


class SpherePoint:
    """A point on the unit sphere of C^n, validated at construction."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=complex)
        if coords.ndim != 1:
            raise ShapeMismatchError(f"sphere point must be a vector, got shape {coords.shape}")
        _require_dimension(coords.shape[0])
        norm = float(np.linalg.norm(coords))
        if abs(norm - 1.0) > UNIT_TOL:
            raise ShapeMismatchError(f"sphere point has norm {norm!r}, out of tolerance {UNIT_TOL}")
        self.coords = coords

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def __repr__(self):
        return f"SpherePoint({self.coords!r})"


class UnitaryMatrix:
    """An n x n unitary matrix, validated at construction (n >= 1)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ShapeMismatchError(f"unitary matrix must be square, got shape {entries.shape}")
        if entries.shape[0] < 1:
            raise DimensionUnsupportedError("unitary matrix needs n >= 1")
        defect = np.max(np.abs(entries.conj().T @ entries - np.eye(entries.shape[0])))
        if defect > UNIT_TOL:
            raise ShapeMismatchError(f"matrix is not unitary: max |U*U - I| = {float(defect):.3e}")
        self.entries = entries

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"UnitaryMatrix(n={self.n})"


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate: mean, standard error and sample count.

    ``stderr`` is the sample standard deviation (ddof=1, real and imaginary
    fluctuations combined) divided by sqrt(n_samples).
    """

    mean: complex
    stderr: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise ConfigurationError("an estimate needs at least 2 samples")
        if not (self.stderr >= 0.0):
            raise ConfigurationError(f"stderr must be nonnegative, got {self.stderr}")


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def sphere_sample_batch(n: int, count: int, rng: RngStream) -> np.ndarray:
    """Draw ``count`` uniform points on S^{2n-1}; returns shape (count, n)."""
    _require_dimension(n)
    g = rng.generator.standard_normal((count, n, 2))
    z = g[..., 0] + 1j * g[..., 1]
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def haar_sample_batch(n: int, count: int, rng: RngStream) -> np.ndarray:
    """Draw ``count`` Haar-distributed unitaries; returns shape (count, n, n)."""
    if n < 1:
        raise DimensionUnsupportedError("haar sampling needs n >= 1")
    g = rng.generator.standard_normal((count, n, n, 2))
    z = (g[..., 0] + 1j * g[..., 1]) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.einsum("...ii->...i", r)
    q *= (d / np.abs(d))[:, None, :]
    return q


# ---------------------------------------------------------------------------
# Monte Carlo integration
# ---------------------------------------------------------------------------


def _check_mc_arguments(n_samples, rng) -> None:
    """The one rule for every route's Monte Carlo arguments.

    ``n_samples`` must be an integer (numpy integers included) >= 2, and an
    ``rng`` must be given.
    """
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 2:
        raise ConfigurationError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    if rng is None:
        raise ConfigurationError("Monte Carlo integration needs an RngStream")


def _mc_chunks(f, n: int, n_samples: int, rng: RngStream, sampler):
    """Draw ``n_samples`` points from ``rng``, MC_CHUNK at a time, and evaluate ``f``.

    Yields ``(samples, values)`` per chunk.  numpy draws sequentially, so the
    chunks together are exactly the points of one ``sampler(n, n_samples, rng)``
    call.  Non-finite values raise ``SamplingFailureError`` naming the global
    sample index.  The arguments pass ``_check_mc_arguments`` first.
    """
    # imported here because polynomials imports this module
    from .polynomials import batch_evaluator

    _check_mc_arguments(n_samples, rng)
    evaluate = batch_evaluator(f)
    for first in range(0, n_samples, MC_CHUNK):
        size = min(MC_CHUNK, n_samples - first)
        samples = sampler(n, size, rng)
        values = evaluate(samples)
        if values.shape != (size,):
            raise ShapeMismatchError(
                f"integrand returned shape {values.shape}, expected ({size},)"
            )
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.argmin(finite))
            raise SamplingFailureError(
                f"integrand returned non-finite value {values[i]!r} at sample {first + i}"
            )
        yield samples, values


def _mc_feature_means(f, features, n: int, n_samples: int, rng: RngStream):
    """Monte Carlo means of conj(phi_m) * f over the sphere, per feature phi_m.

    ``features`` is a ``PolynomialEvaluator`` of the phi_m.  Returns the means
    and their squared standard errors (sample variance with ddof=1, real and
    imaginary fluctuations combined, over ``n_samples``), both of shape
    (features.count,).  This is the one fold of every sphere route that
    projects f onto a list of polynomials.
    """
    s1 = np.zeros(features.count, dtype=complex)
    s2 = np.zeros(features.count)
    for samples, values in _mc_chunks(f, n, n_samples, rng, sphere_sample_batch):
        for rows, feature_values in features.blocks(samples):
            w = values[rows]
            s1 += np.conj(feature_values @ np.conj(w))
            # |phi_m|^2 from the interleaved real and imaginary parts
            s2 += np.square(feature_values.view(np.float64)) @ np.repeat(np.abs(w) ** 2, 2)
    means = s1 / n_samples
    var = np.maximum(s2 / n_samples - np.abs(means) ** 2, 0.0) * (n_samples / (n_samples - 1))
    return means, var / n_samples


def _mc_integrate(f, n: int, n_samples: int, rng: RngStream, sampler) -> MCEstimate:
    # chunk means and squared deviations, merged in draw order (Chan et al.)
    total = 0
    mean = 0.0 + 0.0j
    m2 = 0.0
    for _, values in _mc_chunks(f, n, n_samples, rng, sampler):
        size = len(values)
        c_mean = complex(values.mean())
        c_m2 = float(np.sum(np.abs(values - c_mean) ** 2))
        if total == 0:
            total, mean, m2 = size, c_mean, c_m2
        else:
            delta = c_mean - mean
            new_total = total + size
            m2 = m2 + c_m2 + abs(delta) ** 2 * total * size / new_total
            mean = mean + delta * size / new_total
            total = new_total

    stderr = math.sqrt(m2 / (total - 1) / total)
    return MCEstimate(mean=mean, stderr=stderr, n_samples=total)


def mc_integrate_sphere(f, n: int, n_samples: int, rng: RngStream) -> MCEstimate:
    """Estimate the integral of ``f`` over the uniform measure on S^{2n-1}.

    Parameters
    ----------
    f : callable, polynomial(s), or object with ``evaluate_batch``
        Called with each sample's coordinate array of shape (n,), or with the
        whole (count, n) batch when it exposes ``evaluate_batch``; a
        polynomial or a list of them is summed over the whole batch
        (``polynomials.batch_evaluator``).
    n : int
        Ambient complex dimension, n >= 3.
    n_samples : int
        Number of samples, >= 2.
    rng : RngStream
        Source of randomness.  The samples are drawn from it MC_CHUNK at a
        time, so the estimate depends only on the stream and ``n_samples``.
    """
    _require_dimension(n)
    return _mc_integrate(f, n, n_samples, rng, sphere_sample_batch)


def mc_integrate_group(h, n: int, n_samples: int, rng: RngStream) -> MCEstimate:
    """Estimate the integral of ``h`` over Haar measure on the n x n unitaries.

    ``h`` is called with each sampled matrix of shape (n, n) (or a whole
    (count, n, n) batch via ``evaluate_batch``).
    """
    if n < 1:
        raise DimensionUnsupportedError("group integration needs n >= 1")
    return _mc_integrate(h, n, n_samples, rng, haar_sample_batch)


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------


def _check_multi_index(alpha, n: int, name: str) -> tuple[int, ...]:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n:
        raise ShapeMismatchError(f"{name} has length {len(alpha)}, expected n={n}")
    if any(a < 0 for a in alpha):
        raise ShapeMismatchError(f"{name} has a negative exponent: {alpha}")
    return alpha


def exact_monomial_moment(alpha, beta, n: int) -> Fraction:
    """Exact value of the sphere integral of z^alpha * conj(z)^beta.

    The integral over the uniform measure on S^{2n-1} vanishes unless
    ``alpha == beta`` and otherwise equals

        (n-1)! * alpha! / (n - 1 + |alpha|)!

    returned as an exact ``Fraction``.
    """
    _require_dimension(n)
    alpha = _check_multi_index(alpha, n, "alpha")
    beta = _check_multi_index(beta, n, "beta")
    if alpha != beta:
        return Fraction(0)
    total = sum(alpha)
    num = math.factorial(n - 1)
    for a in alpha:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(n - 1 + total))
