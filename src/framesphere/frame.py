"""Frame functions on the unit sphere and operator reconstruction.

A frame function assigns a value to every unit vector of C^n so that the sum
over each orthonormal basis comes out the same; that common value is the
weight.  Square-integrable frame functions are exactly the quadratic forms
f(z) = <z|Az>, which makes the operator A recoverable from function values.
This module stores the two models (operator form, harmonic components),
fits scattered samples to a harmonic model, checks the constant-sum property,
reconstructs A by two independent routes, and verifies that the induced
measure on projectors is additive.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    NegativityWarning,
    NumericalError,
    ParseError,
    ShapeMismatchError,
    UnderdeterminedDataError,
)
from .exact import GaussianRational
from .harmonics import (
    BiDegree,
    bidegrees_up_to,
    build_basis,
    dimension,
    project_basis,
    reachable_bidegrees,
)
from .measure import (
    UNIT_TOL,
    RngStream,
    _check_mc_arguments,
    _mc_feature_means,
    _require_dimension,
    haar_sample_batch,
    mc_integrate_sphere,
    sphere_sample_batch,
)
from .polynomials import (
    BiDegreePolynomial,
    PolynomialEvaluator,
    _polynomial_parts,
    _sum_inner,
    apply_laplacian,
    batch_evaluator,
)

HERMITIAN_TOL = 1e-10
GRAM_TOL = 1e-12
REAL_TOL = 1e-10
VALUE_GAP_TOL = 1e-6
OPERATOR_GAP_TOL = 1e-8


# ---------------------------------------------------------------------------
# operators and bases
# ---------------------------------------------------------------------------


class OperatorMatrix:
    """A linear operator on C^n stored as a dense complex matrix."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.array(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeMismatchError(f"operator must be a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ShapeMismatchError("operator entries must be finite")
        self.entries = a

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def is_hermitian(self) -> bool:
        gap = np.max(np.abs(self.entries - self.entries.conj().T))
        return bool(gap <= HERMITIAN_TOL)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def normalized(self) -> "OperatorMatrix":
        """Scale to unit trace, for density-operator semantics."""
        tr = self.trace()
        if abs(tr) < 1e-14:
            raise ConfigurationError("cannot normalize an operator with zero trace")
        return OperatorMatrix(self.entries / tr)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, data) -> "OperatorMatrix":
        try:
            n = int(data["n"])
            re = np.asarray(data["re"], dtype=float)
            im = np.asarray(data["im"], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"operator record needs keys n, re, im: {exc}") from None
        if re.shape != (n, n) or im.shape != (n, n):
            raise ParseError(
                f"operator entries must be {n}x{n}; got re {re.shape}, im {im.shape}"
            )
        return cls(re + 1j * im)

    def __repr__(self):
        return f"OperatorMatrix(n={self.n}, hermitian={self.is_hermitian})"


class OrthonormalBasis:
    """n vectors in C^n whose Gram matrix is the identity (rows = vectors)."""

    __slots__ = ("vectors",)

    def __init__(self, vectors):
        v = np.array(vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeMismatchError(f"expected n vectors in C^n, got shape {v.shape}")
        gap = float(np.max(np.abs(np.conj(v) @ v.T - np.eye(v.shape[0]))))
        if gap > GRAM_TOL:
            raise ShapeMismatchError(f"Gram matrix deviates from the identity by {gap:.3e}")
        self.vectors = v

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def __len__(self):
        return self.vectors.shape[0]

    def __iter__(self):
        return iter(self.vectors)


def random_orthonormal_basis(n: int, rng: RngStream) -> OrthonormalBasis:
    """The columns of one Haar-distributed unitary, as a basis object."""
    return OrthonormalBasis(haar_sample_batch(n, 1, rng)[0].T)


# ---------------------------------------------------------------------------
# frame functions
# ---------------------------------------------------------------------------


class FrameFunction:
    """A function on unit vectors of C^n, in one of two concrete models.

    operator  -- f(z) = <z|Az> for an OperatorMatrix A
    harmonic  -- a finite sum of harmonic components keyed by bidegree

    Scattered samples become a harmonic model through ``fit_samples``.
    """

    def __init__(self, *, operator=None, harmonic=None):
        if (operator is None) == (harmonic is None):
            raise ConfigurationError("exactly one of operator/harmonic is required")
        self.operator = None
        self.components = None
        if operator is not None:
            op = operator if isinstance(operator, OperatorMatrix) else OperatorMatrix(operator)
            _require_dimension(op.n)
            self.model = "operator"
            self.operator = op
            self.n = op.n
        else:
            self.model = "harmonic"
            self.components = _validated_components(harmonic)
            self.n = next(iter(self.components.values())).n

    def evaluate(self, z) -> complex:
        coords = _as_point(z, self.n)
        return complex(self.evaluate_batch(coords[None])[0])

    def evaluate_batch(self, points) -> np.ndarray:
        """Values on an array of points, one row per point (no unit check)."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ShapeMismatchError(f"expected points of shape (m, {self.n}), got {pts.shape}")
        if self.model == "operator":
            return _quadratic_form(self.operator.entries, pts)
        return PolynomialEvaluator(self.components.values(), self.n)(pts).sum(axis=0)

    def polynomial_parts(self):
        if self.model == "operator":
            return [BiDegreePolynomial.from_quadratic_form(self.operator.entries)]
        return list(self.components.values())

    def __repr__(self):
        return f"FrameFunction(n={self.n}, model={self.model!r})"


def _validated_components(harmonic) -> dict:
    components = {}
    for key, poly in dict(harmonic).items():
        j = BiDegree(*key)
        if not isinstance(poly, BiDegreePolynomial):
            raise ConfigurationError(f"component {tuple(j)} is not a BiDegreePolynomial")
        if (poly.p, poly.q) != tuple(j):
            raise ShapeMismatchError(
                f"component keyed {tuple(j)} has bidegree ({poly.p},{poly.q})"
            )
        residue = apply_laplacian(poly)
        if residue.terms:
            scale = 1.0 + max(abs(complex(c)) for c in poly.terms.values())
            worst = max(abs(complex(c)) for c in residue.terms.values())
            if worst > HERMITIAN_TOL * scale:
                raise ConfigurationError(
                    f"component {tuple(j)} is not harmonic: Laplacian residue {worst:.3e}"
                )
        components[j] = poly
    if not components:
        raise ConfigurationError("harmonic model needs at least one component")
    dims = {poly.n for poly in components.values()}
    if len(dims) != 1:
        raise ShapeMismatchError(f"components disagree on the ambient dimension: {sorted(dims)}")
    _require_dimension(dims.pop())
    return components


def _validated_samples(points, values):
    pts = np.asarray(points, dtype=complex)
    vals = np.asarray(values, dtype=complex)
    if pts.ndim != 2 or vals.ndim != 1 or pts.shape[0] != vals.shape[0]:
        raise ShapeMismatchError(
            f"samples need points (m, n) with values (m,); got {pts.shape} and {vals.shape}"
        )
    if pts.shape[0] == 0:
        raise UnderdeterminedDataError("sample set is empty")
    _require_dimension(pts.shape[1])
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
        raise ShapeMismatchError("sample points and values must be finite")
    norms = np.linalg.norm(pts, axis=1)
    worst = int(np.argmax(np.abs(norms - 1.0)))
    if abs(norms[worst] - 1.0) > UNIT_TOL:
        raise ShapeMismatchError(
            f"sample point {worst} has norm {norms[worst]!r}, out of tolerance {UNIT_TOL}"
        )
    return pts, vals


def fit_samples(points, values, j_max: int) -> FrameFunction:
    """The harmonic model that fits scattered samples best in least squares.

    Fits the values jointly on the orthonormal harmonic basis functions of
    every bidegree p+q <= max(j_max, 2), so the constant and (1,1) parts,
    where quadratic forms live, are always fitted and the joint fit keeps
    finite-sample cross-talk between bidegrees out of them.  Each bidegree's
    fitted coefficients become one harmonic component of the returned model,
    which every exact route (weights, residual, both reconstructions) then
    reads like any other.  Raises ``UnderdeterminedDataError`` when there are
    fewer points than basis functions or the points leave the fit
    rank-deficient.
    """
    pts, vals = _validated_samples(points, values)
    if j_max < 0:
        raise ConfigurationError(f"j_max must be nonnegative, got {j_max}")
    m, n = pts.shape
    top = max(j_max, 2)
    degrees = bidegrees_up_to(top)
    width = sum(dimension(n, j) for j in degrees)
    if m < width:
        raise UnderdeterminedDataError(
            f"joint fit over p+q <= {top} has {width} features but only {m} samples"
        )
    bases = [build_basis(n, j).basis for j in degrees]
    design = PolynomialEvaluator([z_m for basis in bases for z_m in basis], n)(pts).T
    solution, _, rank, _ = np.linalg.lstsq(design, vals, rcond=None)
    if rank < width:
        raise UnderdeterminedDataError(
            f"sample points span only rank {rank} of the {width} harmonic features"
        )
    components = {}
    coeffs = iter(solution)
    for j, basis in zip(degrees, bases):
        terms = {}
        for z_m, c in zip(basis, coeffs):
            for key, v in z_m.terms.items():
                terms[key] = terms.get(key, 0) + v * c
        components[j] = BiDegreePolynomial(n, j.p, j.q, terms)
    return FrameFunction(harmonic=components)


def _as_point(z, n: int) -> np.ndarray:
    coords = np.asarray(getattr(z, "coords", z), dtype=complex)
    if coords.shape != (n,):
        raise ShapeMismatchError(f"point has shape {coords.shape}, expected ({n},)")
    norm = float(np.linalg.norm(coords))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ShapeMismatchError(f"point has norm {norm!r}, out of tolerance {UNIT_TOL}")
    return coords


def _quadratic_form(a, pts) -> np.ndarray:
    """<z|A z> for each row z of ``pts``."""
    return np.einsum("sk,sk->s", np.conj(pts), pts @ a.T)


def _ambient_dimension(f) -> int:
    n = getattr(f, "n", None)
    if n is None:
        raise ConfigurationError("cannot infer the ambient dimension; pass a model object")
    _require_dimension(int(n))
    return int(n)


def basis_sum(f, basis) -> complex:
    """Sum of frame values over one orthonormal basis."""
    vectors = basis.vectors if isinstance(basis, OrthonormalBasis) else np.asarray(basis, dtype=complex)
    return complex(np.sum(batch_evaluator(f)(vectors)))


# ---------------------------------------------------------------------------
# the constant-sum property
# ---------------------------------------------------------------------------


def basis_weight_sums(f, n_bases: int, rng: RngStream) -> np.ndarray:
    """Basis sums over ``n_bases`` independent Haar-random bases."""
    if n_bases < 1:
        raise ConfigurationError(f"n_bases must be >= 1, got {n_bases}")
    n = _ambient_dimension(f)
    evaluate = batch_evaluator(f)
    gs = haar_sample_batch(n, n_bases, rng)
    vectors = gs.transpose(0, 2, 1).reshape(n_bases * n, n)
    values = evaluate(vectors)
    return values.reshape(n_bases, n).sum(axis=1)


class FramePropertyResult(NamedTuple):
    weight: complex
    max_deviation: float
    verdict: bool


def check_frame_property(f, n_bases: int, tol: float = 1e-8, rng: RngStream = None):
    """Test whether basis sums of ``f`` are constant across random bases.

    Returns (weight estimate, max deviation from it, verdict at ``tol``).
    """
    if n_bases < 2:
        raise ConfigurationError(f"need at least 2 bases to compare, got {n_bases}")
    if tol <= 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    if rng is None:
        raise ConfigurationError("check_frame_property needs an RngStream")
    sums = basis_weight_sums(f, n_bases, rng)
    weight = complex(np.mean(sums))
    max_deviation = float(np.max(np.abs(sums - weight)))
    return FramePropertyResult(weight, max_deviation, bool(max_deviation <= tol))


# ---------------------------------------------------------------------------
# reconstruction, route one: sphere moments
# ---------------------------------------------------------------------------


def _unit_exponent(n: int, k: int) -> tuple:
    return tuple(1 if i == k else 0 for i in range(n))


def _moment_features(n: int) -> list:
    """The n^2 features phi_kl, row-major in (k, l), with A_kl = <phi_kl, f>.

    phi_kl(z) = <z|(n(n+1) E_kl - n delta_kl I) z>.  The fourth sphere moments
    give M = (A + tr(A) I)/(n(n+1)) and s = tr(A)/n for M_kl = int f z_k
    conj(z_l) and s = int f, so A = n(n+1) M - n s I; and since |z|^2 = 1 on
    the sphere, s = <|z|^2, f> is a (1,1) inner product as well.
    """

    def form(k, l):
        return [
            [n * (n + 1) * (a == k and b == l) - n * (k == l and a == b) for b in range(n)]
            for a in range(n)
        ]

    return [BiDegreePolynomial.from_quadratic_form(form(k, l)) for k in range(n) for l in range(n)]


def reconstruct_moment(f, n_samples=None, rng=None, *, return_stderr=False):
    """Recover A with f(z) = <z|Az> from second moments of f on the sphere.

    The moment matrix M_kl = int f(z) z_k conj(z_l) dnu and the mean
    s = int f dnu determine the operator through A = n(n+1) M - (n s) I,
    because the fourth-order sphere moments give M = (A + tr(A) I)/(n(n+1))
    and s = tr(A)/n.  Each entry is therefore one inner product
    A_kl = <phi_kl, f> with the bidegree-(1,1) feature
    phi_kl(z) = n(n+1) conj(z_k) z_l - n delta_kl |z|^2.  With ``n_samples``
    unset the inner products are exact quadrature (polynomial models only);
    with ``n_samples`` set they are Monte Carlo averages, and
    ``return_stderr=True`` additionally returns the estimated Frobenius
    standard error.
    """
    n = _ambient_dimension(f)
    if n_samples is None:
        if return_stderr:
            raise ConfigurationError("stderr is only defined for the Monte Carlo route")
        parts = _polynomial_parts(f)
        if parts is None:
            raise ConfigurationError(
                "exact quadrature needs a polynomial model; pass n_samples for Monte Carlo"
            )
        entries = [complex(_sum_inner(phi, parts)) for phi in _moment_features(n)]
        return OperatorMatrix(np.reshape(entries, (n, n)))

    features = PolynomialEvaluator(_moment_features(n), n)
    means, se_sq = _mc_feature_means(f, features, n, n_samples, rng)
    op = OperatorMatrix(means.reshape(n, n))
    if return_stderr:
        return op, float(np.sqrt(np.sum(se_sq)))
    return op


# ---------------------------------------------------------------------------
# reconstruction, route two: harmonic decomposition
# ---------------------------------------------------------------------------


def reconstruct_harmonic(f, n_samples=None, rng=None) -> OperatorMatrix:
    """Recover A through the decomposition f = c + f_(1,1) on the sphere.

    c is the sphere mean of f, and the coefficient of z_l conj(z_k) in the
    (1,1) component is the (k,l) entry of the traceless part A0, so the
    operator is c I + A0.  Exact quadrature when the model is polynomial
    (``n_samples`` unset), Monte Carlo otherwise.  The trace of A0 vanishes
    identically; the measured trace is checked in the exact regime and
    recentred in both.
    """
    n = _ambient_dimension(f)
    space = build_basis(n, (1, 1))
    if n_samples is None:
        parts = _polynomial_parts(f)
        if parts is None:
            raise ConfigurationError(
                "exact quadrature needs a polynomial model; pass n_samples for Monte Carlo"
            )
        c = _sum_inner(BiDegreePolynomial.constant(n, Fraction(1)), parts)
        f11 = project_basis(f, space)
    else:
        if rng is None:
            raise ConfigurationError("Monte Carlo reconstruction needs an RngStream")
        c = mc_integrate_sphere(f, n, n_samples, rng.child(0)).mean
        f11 = project_basis(f, space, n_samples=n_samples, rng=rng.child(1))

    a0 = np.zeros((n, n), dtype=complex)
    for k in range(n):
        ek = _unit_exponent(n, k)
        for l in range(n):
            el = _unit_exponent(n, l)
            a0[k, l] = complex(f11.terms.get((el, ek), 0))
    tr = complex(np.trace(a0))
    # float inputs round at the scale of their largest entry
    tr_tol = HERMITIAN_TOL * max(1.0, float(np.max(np.abs(a0))))
    if n_samples is None and abs(tr) > tr_tol:
        raise NumericalError(f"traceless part came back with |tr| = {abs(tr):.3e} > {tr_tol:.3e}")
    idx = np.arange(n)
    a0[idx, idx] -= tr / n
    return OperatorMatrix(a0 + complex(c) * np.eye(n))


# ---------------------------------------------------------------------------
# residual outside constants + (1,1)
# ---------------------------------------------------------------------------


@dataclass
class FrameResidualReport:
    """L2 residual of f outside constants + (1,1), with per-component detail.

    ``norm_sq`` and the ``components`` values are Fractions in the exact
    regime and floats under Monte Carlo; ``stderr`` is the standard error of
    ``norm_sq`` (None in the exact regime).
    """

    norm: float
    norm_sq: object
    stderr: object
    components: dict

    def __float__(self):
        return self.norm


def _abs_sq(value):
    if isinstance(value, GaussianRational):
        return value.re * value.re + value.im * value.im
    if isinstance(value, (int, Fraction)):
        return Fraction(value) ** 2
    return abs(complex(value)) ** 2


def _exact_component_norms(n: int, parts, degrees) -> dict:
    """||pi_j f||^2 = sum_m |<v_m, f>|^2 / r_m for each bidegree j, by exact quadrature.

    f is the sum of ``parts``; v_m are the exact orthogonal basis polynomials
    of H_j with squared norms r_m.  Bases are built only for the bidegrees
    some part can reach; the rest are exact zeros.  Fractions when every part
    is exact, floats otherwise.
    """
    zero = Fraction(0) if all(part.is_exact for part in parts) else 0.0
    reachable = reachable_bidegrees(parts)
    norms = {}
    for j in degrees:
        comp = zero
        if j in reachable:
            space = build_basis(n, j)
            for v, r in zip(space.polys, space.norms_sq):
                comp = comp + _abs_sq(_sum_inner(v, parts)) / r
        norms[j] = comp
    return norms


def frame_residual(f, j_max: int, *, n_samples=None, rng=None, detail=False):
    """L2 distance from f to its constant + (1,1) part, over p+q <= j_max.

    Sums the squared norms of every harmonic component other than (0,0) and
    (1,1).  Genuine frame functions have residual zero; anything else leaves
    mass here, which is what makes the residual a detector.  Exact quadrature
    for polynomial models (``n_samples`` unset), building bases only for the
    bidegrees some part can reach and reporting the rest as exact zeros;
    Monte Carlo otherwise, with the squared-coefficient bias removed
    (|c_hat|^2 - se^2 per coefficient).
    With ``detail=True`` returns a FrameResidualReport instead of the norm.
    """
    n = _ambient_dimension(f)
    if j_max < 0:
        raise ConfigurationError(f"j_max must be nonnegative, got {j_max}")
    degrees = [j for j in bidegrees_up_to(j_max) if j not in ((0, 0), (1, 1))]

    if n_samples is None:
        parts = _polynomial_parts(f)
        if parts is None:
            raise ConfigurationError(
                "exact quadrature needs a polynomial model; pass n_samples for Monte Carlo"
            )
        components = _exact_component_norms(n, parts, degrees)
        total = Fraction(0) if all(part.is_exact for part in parts) else 0.0
        for comp in components.values():
            total = total + comp
        report = FrameResidualReport(math.sqrt(float(total)), total, None, components)
        return report if detail else report.norm

    _check_mc_arguments(n_samples, rng)  # before the bases, which can take seconds to build
    bases = [build_basis(n, j).basis for j in degrees]
    evaluator = PolynomialEvaluator([z_m for basis in bases for z_m in basis], n)
    means, se_sqs = _mc_feature_means(f, evaluator, n, n_samples, rng)

    components = {}
    total = 0.0
    variance = 0.0
    split = np.cumsum([len(basis) for basis in bases])[:-1]
    for j, mean, se_sq in zip(degrees, np.split(means, split), np.split(se_sqs, split)):
        comp = float(np.sum(np.abs(mean) ** 2 - se_sq))
        components[j] = comp
        total += comp
        variance += float(np.sum(2.0 * np.abs(mean) ** 2 * se_sq + 2.0 * se_sq**2))
    report = FrameResidualReport(
        math.sqrt(max(total, 0.0)), total, math.sqrt(variance), components
    )
    return report if detail else report.norm


# ---------------------------------------------------------------------------
# uniqueness, symmetry, additivity
# ---------------------------------------------------------------------------


@dataclass
class PolarizationResult:
    """Outcome of deciding A = B from quadratic-form values on the sphere."""

    equal: bool
    max_value_gap: float
    operator_gap: float
    witness: object  # a unit vector with |<z|(A-B)z>| > tolerance, or None

    def __bool__(self):
        return self.equal


def polarization_uniqueness_check(a: OperatorMatrix, b: OperatorMatrix, n_points: int, rng=None):
    """Quadratic-form values on the sphere determine the operator.

    Samples ``n_points`` unit vectors; if some z separates the forms by more
    than 1e-6 it is reported as a witness.  If no point separates them, the
    operators themselves must agree to 1e-8 in max norm -- polarization over
    z = x+y and z = x+iy leaves no freedom -- and the verdict says whether
    they do.
    """
    if a.n != b.n:
        raise ShapeMismatchError(f"operators act on different spaces: {a.n} vs {b.n}")
    if n_points < 1:
        raise ConfigurationError(f"n_points must be >= 1, got {n_points}")
    if rng is None:
        rng = RngStream(seed=0, stream_id=101)
    diff = a.entries - b.entries
    pts = sphere_sample_batch(a.n, n_points, rng)
    gaps = np.abs(_quadratic_form(diff, pts))
    max_gap = float(np.max(gaps))
    operator_gap = float(np.max(np.abs(diff)))
    if max_gap > VALUE_GAP_TOL:
        return PolarizationResult(False, max_gap, operator_gap, pts[int(np.argmax(gaps))])
    return PolarizationResult(operator_gap <= OPERATOR_GAP_TOL, max_gap, operator_gap, None)


@dataclass
class HermitianCheckResult:
    """Whether a real-valued frame function reconstructed to a Hermitian A."""

    real_valued: bool
    hermitian: bool
    consistent: bool
    max_imag: float

    def __bool__(self):
        return self.consistent


def hermitian_check(f, a: OperatorMatrix, n_points: int = 256, rng=None):
    """Real-valued f must reconstruct to a Hermitian operator.

    Samples f and tests the imaginary parts against 1e-10; when they vanish,
    the Hermitian flag of ``a`` is asserted.  Complex-valued f carries no
    constraint.
    """
    if rng is None:
        rng = RngStream(seed=0, stream_id=102)
    n = _ambient_dimension(f)
    values = batch_evaluator(f)(sphere_sample_batch(n, n_points, rng))
    max_imag = float(np.max(np.abs(values.imag)))
    real_valued = max_imag <= REAL_TOL
    hermitian = a.is_hermitian
    return HermitianCheckResult(real_valued, hermitian, hermitian if real_valued else True, max_imag)


@dataclass
class GleasonAdditivityResult:
    """Worst-case additivity errors of mu(P) = tr(T P) over random partitions."""

    additivity_error: float
    trace_match_error: float
    negative_eigenvalues: list

    @property
    def max_error(self) -> float:
        return max(self.additivity_error, self.trace_match_error)

    def __float__(self):
        return self.max_error


def gleason_additivity_check(t: OperatorMatrix, n_trials: int, rng: RngStream, *, warn=True):
    """Additivity of the projector measure induced by a unit-trace operator.

    For each trial, draws a Haar basis, partitions it into 2..n groups, forms
    the projectors P_k onto the groups, and compares: the measures mu(P_k) =
    tr(T P_k) must sum to 1, and each must match the frame-function sum over
    the group's vectors.  Negative eigenvalues are reported with a
    NegativityWarning but do not fail the check (positivity is a property of
    density operators, not of the additivity identity).
    """
    if not t.is_hermitian:
        raise ConfigurationError("additivity check needs a Hermitian operator")
    if abs(t.trace() - 1.0) > 1e-8:
        raise ConfigurationError(
            f"operator trace is {t.trace():.6g}; normalize to unit trace first"
        )
    n = t.n
    _require_dimension(n)
    if n_trials < 1:
        raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
    eigenvalues = np.linalg.eigvalsh((t.entries + t.entries.conj().T) / 2)
    negatives = [float(x) for x in eigenvalues if x < -1e-10]
    if negatives and warn:
        warnings.warn(
            f"operator has negative eigenvalues {negatives}", NegativityWarning, stacklevel=2
        )

    gen = rng.generator
    additivity_error = 0.0
    trace_match_error = 0.0
    for _ in range(n_trials):
        basis = random_orthonormal_basis(n, rng)
        perm = gen.permutation(n)
        n_groups = int(gen.integers(2, n + 1))
        cuts = np.sort(gen.choice(np.arange(1, n), size=n_groups - 1, replace=False))
        mu_total = 0.0 + 0.0j
        for group in np.split(perm, cuts):
            vecs = basis.vectors[group]
            projector = np.einsum("gk,gl->kl", vecs, np.conj(vecs))
            mu = complex(np.einsum("kl,lk->", t.entries, projector))
            frame_sum = complex(np.sum(_quadratic_form(t.entries, vecs)))
            trace_match_error = max(trace_match_error, abs(mu - frame_sum))
            mu_total += mu
        additivity_error = max(additivity_error, abs(mu_total - 1.0))
    return GleasonAdditivityResult(additivity_error, trace_match_error, negatives)
