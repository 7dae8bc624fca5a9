import numpy as np
import pytest
from fractions import Fraction

from framesphere.errors import (
    ConfigurationError,
    NegativityWarning,
    ParseError,
    SamplingFailureError,
    ShapeMismatchError,
    UnderdeterminedDataError,
)
from framesphere import frame
from framesphere.exact import GaussianRational
from framesphere.frame import (
    FrameFunction,
    FrameResidualReport,
    OperatorMatrix,
    OrthonormalBasis,
    basis_sum,
    basis_weight_sums,
    check_frame_property,
    fit_samples,
    frame_residual,
    gleason_additivity_check,
    hermitian_check,
    polarization_uniqueness_check,
    random_orthonormal_basis,
    reconstruct_harmonic,
    reconstruct_moment,
    _moment_features,
)
from framesphere.harmonics import BiDegree, bidegrees_up_to, build_basis, project_basis, project_character
from framesphere.measure import (
    MC_CHUNK,
    RngStream,
    mc_integrate_group,
    mc_integrate_sphere,
    sphere_sample_batch,
)
from framesphere.polynomials import BiDegreePolynomial, inner_product, norm_sq


def _quartic_frame(n=3):
    """|z1|^4 as a harmonic-model frame function (not a quadratic form)."""
    poly = BiDegreePolynomial.monomial(n, (2,) + (0,) * (n - 1), (2,) + (0,) * (n - 1))
    comps = {
        (0, 0): None,
        (1, 1): None,
        (2, 2): None,
    }
    return FrameFunction(
        harmonic={j: project_basis(poly, build_basis(n, j)) for j in comps}
    )


def _random_hermitian(n, gen):
    b = gen.uniform(-1, 1, (n, n)) + 1j * gen.uniform(-1, 1, (n, n))
    return (b + np.conj(b.T)) / 2


# ---------------------------------------------------------------------------
# OperatorMatrix
# ---------------------------------------------------------------------------


def test_operator_matrix_validation():
    a = OperatorMatrix(np.diag([1.0, 2.0, 3.0]))
    assert a.n == 3
    assert a.is_hermitian
    assert a.trace() == pytest.approx(6.0)
    with pytest.raises(ShapeMismatchError):
        OperatorMatrix(np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        OperatorMatrix(np.array([[np.inf, 0], [0, 1]]))


def test_operator_matrix_hermitian_boundary():
    eps = np.zeros((3, 3), dtype=complex)
    eps[0, 1] = 5e-11  # below tolerance: still Hermitian
    assert OperatorMatrix(np.eye(3) + eps).is_hermitian
    eps[0, 1] = 5e-9
    assert not OperatorMatrix(np.eye(3) + eps).is_hermitian


def test_operator_matrix_normalized():
    a = OperatorMatrix(np.diag([1.0, 2.0, 3.0])).normalized()
    assert a.trace() == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        OperatorMatrix(np.diag([1.0, -1.0, 0.0])).normalized()


def test_operator_matrix_dict_round_trip():
    a = OperatorMatrix(np.array([[1.0, 2j, 0], [-2j, 0.5, 1], [0, 1, -1]]))
    back = OperatorMatrix.from_dict(a.to_dict())
    assert np.array_equal(back.entries, a.entries)
    with pytest.raises(ParseError):
        OperatorMatrix.from_dict({"n": 3, "re": [[1, 0], [0, 1]], "im": []})


# ---------------------------------------------------------------------------
# FrameFunction
# ---------------------------------------------------------------------------


def test_frame_function_requires_exactly_one_model():
    with pytest.raises(ConfigurationError):
        FrameFunction()
    with pytest.raises(ConfigurationError):
        FrameFunction(operator=np.eye(3), harmonic={})


def test_operator_model_evaluates_quadratic_form():
    f = FrameFunction(operator=np.diag([1.0, 2.0, 3.0]))
    assert f.evaluate([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert f.evaluate([0.0, 1.0, 0.0]) == pytest.approx(2.0)
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    assert f.evaluate(v) == pytest.approx(1.5)


def test_evaluate_rejects_non_unit_points():
    f = FrameFunction(operator=np.eye(3))
    with pytest.raises(ShapeMismatchError):
        f.evaluate([1.0, 1.0, 0.0])


def test_harmonic_model_rejects_non_harmonic_components():
    bad = BiDegreePolynomial.monomial(3, (1, 0, 0), (1, 0, 0))  # |z1|^2 alone
    with pytest.raises(ConfigurationError):
        FrameFunction(harmonic={(1, 1): bad})


def test_harmonic_model_rejects_mismatched_key():
    space = build_basis(3, (1, 1))
    with pytest.raises(ShapeMismatchError):
        FrameFunction(harmonic={(2, 2): space.polys[0]})


def test_samples_model_checks_unit_norm():
    pts = sphere_sample_batch(3, 4, RngStream(seed=2))
    pts[2] *= 1.5
    with pytest.raises(ShapeMismatchError, match="point 2"):
        fit_samples(pts, np.ones(4), 2)


# ---------------------------------------------------------------------------
# bases and weights
# ---------------------------------------------------------------------------


def test_orthonormal_basis_validation():
    assert len(OrthonormalBasis(np.eye(3))) == 3
    with pytest.raises(ShapeMismatchError):
        OrthonormalBasis(np.ones((3, 3)))


def test_random_orthonormal_basis_is_orthonormal():
    basis = random_orthonormal_basis(4, RngStream(seed=3))
    gram = basis.vectors @ np.conj(basis.vectors.T)
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_weight_equals_trace_for_quadratic_forms():
    # sum over any orthonormal basis of <b|Ab> is tr A, basis-independent
    rng = RngStream(seed=4)
    for n in (3, 4, 5):
        gen = rng.child(n).generator
        a = _random_hermitian(n, gen)
        f = FrameFunction(operator=a)
        sums = basis_weight_sums(f, 10, rng.child(100 + n))
        assert np.max(np.abs(sums - np.trace(a))) < 1e-8


def test_non_frame_function_has_basis_dependent_sums():
    # |z1|^4 sums to 1 over the standard basis but 1/2 over a rotated one
    f = _quartic_frame()
    std = basis_sum(f, OrthonormalBasis(np.eye(3)))
    assert std == pytest.approx(1.0)
    rot = np.array(
        [
            [1 / np.sqrt(2), 1 / np.sqrt(2), 0],
            [1 / np.sqrt(2), -1 / np.sqrt(2), 0],
            [0, 0, 1],
        ]
    )
    assert basis_sum(f, OrthonormalBasis(rot)) == pytest.approx(0.5)


def test_check_frame_property_verdicts():
    f = FrameFunction(operator=np.diag([1.0, 2.0, 3.0]))
    ok = check_frame_property(f, 20, rng=RngStream(seed=40))
    assert ok.verdict
    assert ok.weight == pytest.approx(6.0)
    assert ok.max_deviation < 1e-10

    bad = check_frame_property(_quartic_frame(), 20, rng=RngStream(seed=41))
    assert not bad.verdict
    assert bad.max_deviation > 0.1


# ---------------------------------------------------------------------------
# reconstruction: moment route
# ---------------------------------------------------------------------------


def test_reconstruct_moment_constant_function():
    one = BiDegreePolynomial.constant(3, GaussianRational(1))
    f = FrameFunction(harmonic={(0, 0): one})
    a = reconstruct_moment(f)
    assert np.max(np.abs(a.entries - np.eye(3))) < 1e-14


def test_reconstruct_moment_diagonal_operator():
    f = FrameFunction(operator=np.diag([1.0, 2.0, 3.0]))
    a = reconstruct_moment(f)
    assert np.max(np.abs(a.entries - np.diag([1.0, 2.0, 3.0]))) < 1e-13


def test_reconstruct_moment_exact_rational_entries():
    # rational operators round-trip with exact arithmetic end to end
    rng = np.random.default_rng(20260817)
    for n in (3, 4):
        for _ in range(3):
            re = rng.integers(-100, 100, (n, n))
            im = rng.integers(-100, 100, (n, n))
            entries = [
                [
                    GaussianRational(
                        Fraction(int(re[k][l] + re[l][k]), 200),
                        Fraction(int(im[k][l] - im[l][k]), 200),
                    )
                    for l in range(n)
                ]
                for k in range(n)
            ]
            a = np.array([[complex(c) for c in row] for row in entries])
            poly = BiDegreePolynomial(
                n,
                1,
                1,
                {
                    (
                        tuple(1 if i == l else 0 for i in range(n)),
                        tuple(1 if i == k else 0 for i in range(n)),
                    ): entries[k][l]
                    for k in range(n)
                    for l in range(n)
                    if entries[k][l]
                },
            )
            got = reconstruct_moment(poly)
            assert np.array_equal(got.entries, a)


@pytest.mark.parametrize("n", [3, 4])
def test_moment_features_recover_the_operator_exactly(n):
    # <phi_kl, <z|Az>> = A_kl in exact arithmetic, for a non-Hermitian A
    gen = np.random.default_rng(40 + n)

    def rational():
        return Fraction(int(gen.integers(-60, 60)), int(gen.integers(1, 30)))

    a = [[GaussianRational(rational(), rational()) for _ in range(n)] for _ in range(n)]
    f = BiDegreePolynomial.from_quadratic_form(a)
    features = _moment_features(n)
    assert len(features) == n * n
    for m, phi in enumerate(features):
        k, l = divmod(m, n)
        assert (phi.p, phi.q) == (1, 1) and phi.is_exact
        assert inner_product(phi, f) == a[k][l]


def test_quadratic_forms_have_zero_residual_and_exact_moments():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
    entries = st.tuples(rationals, rationals).map(lambda ri: GaussianRational(*ri))

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        st.sampled_from([3, 4]).flatmap(
            lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
        )
    )
    def check(a):
        poly = BiDegreePolynomial.from_quadratic_form(a)
        assert frame_residual(poly, 4, detail=True).norm_sq == 0
        expected = np.array([[complex(c) for c in row] for row in a])
        assert np.array_equal(reconstruct_moment(poly).entries, expected)

    check()


def test_reconstruct_moment_monte_carlo_within_stderr():
    a = np.diag([1.0, 2.0, 3.0])
    f = FrameFunction(operator=a)
    op, se = reconstruct_moment(f, n_samples=200_000, rng=RngStream(seed=5), return_stderr=True)
    frob = float(np.sqrt(np.sum(np.abs(op.entries - a) ** 2)))
    assert frob <= 4 * se


def test_reconstruct_moment_same_seed_is_deterministic():
    f = FrameFunction(operator=np.eye(3))
    a1 = reconstruct_moment(f, n_samples=10_000, rng=RngStream(seed=6))
    a2 = reconstruct_moment(f, n_samples=10_000, rng=RngStream(seed=6))
    assert np.array_equal(a1.entries, a2.entries)


def test_reconstruct_moment_stderr_needs_mc_route():
    f = FrameFunction(operator=np.eye(3))
    with pytest.raises(ConfigurationError):
        reconstruct_moment(f, return_stderr=True)


def test_reconstruct_moment_from_samples_least_squares():
    gen = np.random.default_rng(7)
    a = _random_hermitian(3, gen)
    pts = sphere_sample_batch(3, 400, RngStream(seed=8))
    vals = np.einsum("sk,kl,sl->s", np.conj(pts), a, pts)
    got = reconstruct_moment(fit_samples(pts, vals, 2))
    assert np.max(np.abs(got.entries - a)) < 1e-10


def test_reconstruct_moment_underdetermined_sample_sets():
    # p+q <= 2 at n = 3 has 1 + 3 + 3 + 6 + 8 + 6 = 27 basis functions
    pts = sphere_sample_batch(3, 5, RngStream(seed=9))
    with pytest.raises(UnderdeterminedDataError, match="27 features"):
        fit_samples(pts, np.ones(5), 2)

    # enough rows but rank-deficient: the same point repeated
    pts = np.tile(np.array([[1.0 + 0j, 0, 0]]), (30, 1))
    with pytest.raises(UnderdeterminedDataError, match="rank 1 of the 27"):
        fit_samples(pts, np.ones(30), 2)


# ---------------------------------------------------------------------------
# reconstruction: harmonic route
# ---------------------------------------------------------------------------


def test_reconstruct_harmonic_identity():
    one = BiDegreePolynomial.constant(3, GaussianRational(1))
    f = FrameFunction(harmonic={(0, 0): one})
    a = reconstruct_harmonic(f)
    assert np.max(np.abs(a.entries - np.eye(3))) < 1e-14


def test_reconstruct_both_routes_agree_exactly():
    gen = np.random.default_rng(10)
    a = _random_hermitian(4, gen)
    f = FrameFunction(operator=a)
    m_route = reconstruct_moment(f)
    h_route = reconstruct_harmonic(f)
    assert np.max(np.abs(m_route.entries - a)) < 1e-12
    assert np.max(np.abs(h_route.entries - a)) < 1e-12
    assert np.max(np.abs(m_route.entries - h_route.entries)) < 1e-12


def test_reconstruct_harmonic_trace_check_scales_with_entries():
    # float rounding in the traceless part grows with the entries; 1e9-sized
    # ones used to trip an absolute 1e-10 bound on |tr A0|
    gen = np.random.default_rng(1)
    a = gen.normal(size=(4, 4)) * 1e9
    a = a + a.T
    got = reconstruct_harmonic(FrameFunction(operator=a))
    assert np.max(np.abs(got.entries - a)) <= 1e-12 * np.max(np.abs(a))


def test_reconstruct_harmonic_monte_carlo():
    a = np.diag([0.5, 0.25, 0.25])
    f = FrameFunction(operator=a)
    got = reconstruct_harmonic(f, n_samples=100_000, rng=RngStream(seed=11))
    assert np.max(np.abs(got.entries - a)) < 0.05
    assert abs(np.trace(got.entries) - 1.0) < 0.05


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def test_frame_residual_exact_quartic():
    poly = BiDegreePolynomial.monomial(3, (2, 0, 0), (2, 0, 0))
    report = frame_residual(poly, 4, detail=True)
    assert isinstance(report, FrameResidualReport)
    assert report.norm_sq == Fraction(1, 300)
    assert report.components[BiDegree(2, 2)] == Fraction(1, 300)
    others = {j: c for j, c in report.components.items() if j != (2, 2)}
    assert all(c == 0 for c in others.values())
    assert float(report) == pytest.approx(float(np.sqrt(1 / 300)))


def test_frame_residual_zero_for_quadratic_forms():
    # float operator entries keep the quadrature in floats, so the residual
    # is zero only to rounding; an exact-coefficient quadratic form gives 0
    f = FrameFunction(operator=np.diag([1.0, 2.0, 3.0]))
    assert frame_residual(f, 4) < 1e-12

    exact = BiDegreePolynomial(
        3,
        1,
        1,
        {
            ((1, 0, 0), (1, 0, 0)): GaussianRational(1),
            ((0, 1, 0), (0, 1, 0)): GaussianRational(2),
            ((0, 0, 1), (0, 0, 1)): GaussianRational(3),
        },
    )
    report = frame_residual(exact, 4, detail=True)
    assert report.norm_sq == 0
    assert all(c == 0 for c in report.components.values())


def test_frame_residual_parseval_for_injected_component():
    # a pure (2,2) harmonic has residual exactly equal to its own norm
    space = build_basis(3, (2, 2))
    v = space.polys[0]
    report = frame_residual(v, 4, detail=True)
    assert report.norm_sq == space.norms_sq[0]
    assert report.components[BiDegree(2, 2)] == space.norms_sq[0]


def _every_bidegree_components(parts, j_max):
    """Residual components with a basis built for every bidegree: the oracle."""
    n = parts[0].n
    out = {}
    for total in range(j_max + 1):
        for p in range(total + 1):
            j = BiDegree(p, total - p)
            if j in ((0, 0), (1, 1)):
                continue
            comp = Fraction(0)
            space = build_basis(n, j)
            for v, r in zip(space.polys, space.norms_sq):
                c = sum((inner_product(v, part) for part in parts), GaussianRational(0))
                comp += (c.re * c.re + c.im * c.im) / r
            out[j] = comp
    return out


def _mixed_harmonic_model():
    return FrameFunction(
        harmonic={j: build_basis(3, j).polys[0] for j in [(0, 2), (2, 1), (3, 0), (2, 2)]}
    )


@pytest.mark.parametrize(
    "make_f, j_max",
    [
        (lambda: BiDegreePolynomial.monomial(3, (2, 0, 0), (2, 0, 0)), 5),
        (lambda: BiDegreePolynomial.monomial(4, (2, 0, 0, 0), (2, 0, 0, 0)), 4),
        (lambda: BiDegreePolynomial.monomial(3, (2, 1, 0), (1, 0, 0)), 5),
        (_quartic_frame, 5),
        (_mixed_harmonic_model, 5),
    ],
    ids=["z1^4-n3", "z1^4-n4", "z1^2z2zbar1", "quartic-model", "mixed-model"],
)
def test_frame_residual_skips_only_unreachable_bidegrees(make_f, j_max):
    f = make_f()
    parts = f.polynomial_parts() if isinstance(f, FrameFunction) else [f]
    report = frame_residual(f, j_max, detail=True)
    oracle = _every_bidegree_components(parts, j_max)
    assert report.components == oracle
    assert list(report.components) == list(oracle)
    assert report.norm_sq == sum(oracle.values())


def test_frame_residual_float_operator_has_exact_zero_components():
    # a quadratic form only reaches (1,1) and (0,0); nothing is left to round
    f = FrameFunction(operator=_random_hermitian(3, np.random.default_rng(3)))
    report = frame_residual(f, 4, detail=True)
    assert all(type(c) is float and c == 0.0 for c in report.components.values())
    assert report.norm == 0.0


def test_frame_residual_monte_carlo_within_stderr():
    poly = BiDegreePolynomial.monomial(3, (2, 0, 0), (2, 0, 0))
    report = frame_residual(poly, 4, n_samples=200_000, rng=RngStream(seed=12), detail=True)
    assert abs(report.norm_sq - 1 / 300) <= 4 * report.stderr


def _random_harmonic_model(gen, n=3, degrees=((0, 0), (1, 1), (2, 2), (3, 1), (0, 2))):
    """A non-frame harmonic model with random float coefficients over exact bases."""
    components = {}
    for j in degrees:
        poly = BiDegreePolynomial(n, j[0], j[1], {})
        for z_m in build_basis(n, j).basis:
            poly = poly + z_m * complex(gen.normal(), gen.normal())
        components[j] = poly
    return FrameFunction(harmonic=components)


def _relative_gap(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_monte_carlo_routes_match_the_term_loop(use_term_loop):
    # same seeds, same sample streams: only the evaluation order of the sums differs
    f = _random_harmonic_model(np.random.default_rng(21))
    space = build_basis(3, (2, 2))
    count = 2 * 2048 + 77

    def run():
        residual = frame_residual(f, 4, n_samples=count, rng=RngStream(seed=22), detail=True)
        moment, stderr = reconstruct_moment(f, count, RngStream(seed=23), return_stderr=True)
        projection = project_basis(f, space, n_samples=count, rng=RngStream(seed=24))
        return residual, moment, stderr, projection

    residual, moment, stderr, projection = run()
    use_term_loop()
    slow_residual, slow_moment, slow_stderr, slow_projection = run()

    assert _relative_gap(residual.norm_sq, slow_residual.norm_sq) <= 1e-12
    assert _relative_gap(residual.stderr, slow_residual.stderr) <= 1e-12
    assert list(residual.components) == list(slow_residual.components)
    components = [residual.components[j] for j in residual.components]
    assert _relative_gap(components, list(slow_residual.components.values())) <= 1e-12
    assert _relative_gap(moment.entries, slow_moment.entries) <= 1e-12
    assert _relative_gap(stderr, slow_stderr) <= 1e-12
    assert projection.terms.keys() == slow_projection.terms.keys()
    keys = list(projection.terms)
    assert _relative_gap(
        [projection.terms[k] for k in keys], [slow_projection.terms[k] for k in keys]
    ) <= 1e-12


def _moment_einsum_fold(f, n_samples, rng):
    """The moment route's former fold: the (samples, n, n) A-integrand, summed per chunk."""
    n = f.n
    s1 = np.zeros((n, n), dtype=complex)
    s2 = np.zeros((n, n))
    idx = np.arange(n)
    for first in range(0, n_samples, MC_CHUNK):
        pts = sphere_sample_batch(n, min(MC_CHUNK, n_samples - first), rng)
        vals = f.evaluate_batch(pts)
        # per-sample A-integrand: n(n+1) f z_k conj(z_l) - n f delta_kl
        term = (n * (n + 1)) * vals[:, None, None] * np.einsum("sk,sl->skl", pts, np.conj(pts))
        term[:, idx, idx] -= n * vals[:, None]
        s1 += term.sum(axis=0)
        s2 += (np.abs(term) ** 2).sum(axis=0)
    mean = s1 / n_samples
    var = np.maximum(s2 / n_samples - np.abs(mean) ** 2, 0.0) * (n_samples / (n_samples - 1))
    return mean, float(np.sqrt(np.sum(var / n_samples)))


def test_monte_carlo_moment_matches_the_einsum_fold():
    # the feature fold differs only in summation order and in using |z|^2 for 1
    f = _random_harmonic_model(np.random.default_rng(29))
    count = 2 * MC_CHUNK + 77
    op, stderr = reconstruct_moment(f, count, RngStream(seed=30), return_stderr=True)
    mean, oracle_stderr = _moment_einsum_fold(f, count, RngStream(seed=30))
    assert _relative_gap(op.entries, mean) <= 1e-13
    assert _relative_gap(stderr, oracle_stderr) <= 1e-13


def test_monte_carlo_residual_keeps_the_per_basis_estimator(term_loop):
    # the estimator written out one basis function at a time, on the same sample stream
    f = _random_harmonic_model(np.random.default_rng(27))
    count = 2048 + 300  # one sampling chunk, two evaluation blocks
    report = frame_residual(f, 3, n_samples=count, rng=RngStream(seed=28), detail=True)

    pts = sphere_sample_batch(3, count, RngStream(seed=28))
    vals = sum(term_loop(poly, pts) for poly in f.components.values())
    variance = 0.0
    for j, comp in report.components.items():
        expected = 0.0
        for z_m in build_basis(3, j).basis:
            prod = np.conj(term_loop(z_m, pts)) * vals
            mean = prod.mean()
            var = max(np.mean(np.abs(prod) ** 2) - abs(mean) ** 2, 0.0) * count / (count - 1)
            se_sq = var / count
            expected += abs(mean) ** 2 - se_sq
            variance += 2.0 * abs(mean) ** 2 * se_sq + 2.0 * se_sq**2
        assert comp == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert report.stderr == pytest.approx(np.sqrt(variance), rel=1e-12)


def test_frame_residual_argument_checks(monkeypatch):
    poly = BiDegreePolynomial.monomial(3, (1, 0, 0), (1, 0, 0))
    with pytest.raises(ConfigurationError):
        frame_residual(poly, -1)
    with pytest.raises(ConfigurationError):
        frame_residual(poly, 4, n_samples=100)  # missing rng

    # bad Monte Carlo arguments fail before any basis is built
    def no_bases(*args):
        raise AssertionError("a basis was built before the argument check")

    monkeypatch.setattr(frame, "build_basis", no_bases)
    with pytest.raises(ConfigurationError):
        frame_residual(poly, 8, n_samples=1, rng=RngStream(seed=1))


_DIAGONAL = FrameFunction(operator=np.diag([1.0, 2.0, 3.0]))
_MC_ROUTES = {
    "mc_integrate_sphere": lambda count, rng: mc_integrate_sphere(_DIAGONAL, 3, count, rng),
    "mc_integrate_group": lambda count, rng: mc_integrate_group(lambda g: g[0, 0], 3, count, rng),
    "frame_residual": lambda count, rng: frame_residual(_DIAGONAL, 2, n_samples=count, rng=rng),
    "reconstruct_moment": lambda count, rng: reconstruct_moment(_DIAGONAL, count, rng),
    "reconstruct_harmonic": lambda count, rng: reconstruct_harmonic(_DIAGONAL, count, rng),
    "project_basis": lambda count, rng: project_basis(
        _DIAGONAL, build_basis(3, (1, 1)), n_samples=count, rng=rng
    ),
    "project_character": lambda count, rng: project_character(
        _DIAGONAL, build_basis(3, (1, 1)), [1.0, 0.0, 0.0], count, rng
    ),
}


@pytest.mark.parametrize("route", sorted(_MC_ROUTES))
def test_monte_carlo_arguments_follow_one_rule(route):
    call = _MC_ROUTES[route]
    for bad in (1, 2.5):
        with pytest.raises(ConfigurationError, match="n_samples"):
            call(bad, RngStream(seed=1))
    with pytest.raises(ConfigurationError, match="RngStream"):
        call(4096, None)
    call(np.int64(4096), RngStream(seed=1))


class _NonFiniteAt:
    """Constant 1 on the sphere of C^3, except NaN at one global sample index."""

    n = 3

    def __init__(self, index):
        self.index = index
        self.seen = 0

    def evaluate_batch(self, pts):
        vals = np.ones(len(pts), dtype=complex)
        if self.seen <= self.index < self.seen + len(pts):
            vals[self.index - self.seen] = np.nan
        self.seen += len(pts)
        return vals


@pytest.mark.parametrize("chunk", [1, 2])
def test_non_finite_value_reports_global_sample_index(chunk):
    # chunk 1 is a full chunk after the first; chunk 2 is the short tail of 7 samples
    index = chunk * MC_CHUNK + 3
    n_samples = 2 * MC_CHUNK + 7
    rng = RngStream(seed=1)
    space = build_basis(3, (1, 1))
    routes = [
        lambda f: frame_residual(f, 0, n_samples=n_samples, rng=rng),
        lambda f: reconstruct_moment(f, n_samples, rng),
        lambda f: mc_integrate_sphere(f, 3, n_samples, rng),
        lambda f: project_basis(f, space, n_samples=n_samples, rng=rng),
    ]
    for route in routes:
        with pytest.raises(SamplingFailureError, match=f"at sample {index}$"):
            route(_NonFiniteAt(index))


def test_fit_samples_recovers_exact_norms():
    poly = BiDegreePolynomial.monomial(3, (2, 0, 0), (2, 0, 0))
    pts = sphere_sample_batch(3, 400, RngStream(seed=13))
    vals = poly.evaluate_batch(pts)
    f = fit_samples(pts, vals, 4)
    assert f.model == "harmonic"
    assert set(f.components) == set(bidegrees_up_to(4))
    assert norm_sq(f.components[BiDegree(0, 0)]) == pytest.approx(1 / 36, abs=1e-10)
    assert norm_sq(f.components[BiDegree(1, 1)]) == pytest.approx(8 / 225, abs=1e-10)
    assert norm_sq(f.components[BiDegree(2, 2)]) == pytest.approx(1 / 300, abs=1e-10)
    assert np.max(np.abs(f.evaluate_batch(pts) - vals)) < 1e-10


def test_fit_samples_needs_enough_points():
    pts = sphere_sample_batch(3, 20, RngStream(seed=14))
    with pytest.raises(UnderdeterminedDataError):
        fit_samples(pts, np.ones(20), 4)



# ---------------------------------------------------------------------------
# uniqueness / symmetry / additivity
# ---------------------------------------------------------------------------


def test_polarization_detects_equal_and_unequal():
    a = OperatorMatrix(np.diag([1.0, 2.0, 3.0]))
    same = polarization_uniqueness_check(a, OperatorMatrix(np.diag([1.0, 2.0, 3.0])), 64)
    assert bool(same)
    assert same.witness is None

    b = OperatorMatrix(np.diag([1.0, 2.0, 3.5]))
    diff = polarization_uniqueness_check(a, b, 64)
    assert not diff
    assert diff.witness is not None
    assert abs(FrameFunction(operator=a).evaluate(diff.witness)
               - FrameFunction(operator=b).evaluate(diff.witness)) > 1e-6


def test_polarization_flags_subthreshold_operator_gap():
    # values agree to sampling tolerance but the operators differ beyond 1e-8
    a = OperatorMatrix(np.eye(3))
    b = OperatorMatrix(np.eye(3) + np.diag([1e-7, 0, 0]))
    res = polarization_uniqueness_check(a, b, 64)
    assert res.max_value_gap <= 1e-6
    assert not res.equal
    assert res.witness is None


def test_hermitian_check_directions():
    gen = np.random.default_rng(15)
    a = OperatorMatrix(_random_hermitian(3, gen))
    res = hermitian_check(FrameFunction(operator=a), a)
    assert res.real_valued and res.hermitian and bool(res)

    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 1.0  # not Hermitian: complex values, no constraint
    res = hermitian_check(FrameFunction(operator=OperatorMatrix(skew)), OperatorMatrix(skew))
    assert not res.real_valued
    assert bool(res)

    # real values paired with a non-Hermitian reconstruction: inconsistent
    res = hermitian_check(FrameFunction(operator=a), OperatorMatrix(skew))
    assert res.real_valued and not res.hermitian and not bool(res)


def test_gleason_additivity_for_density_operators():
    maximal = OperatorMatrix(np.eye(3) / 3)
    res = gleason_additivity_check(maximal, 50, RngStream(seed=16))
    assert res.max_error < 1e-10
    assert not res.negative_eigenvalues

    gen = np.random.default_rng(17)
    b = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    rho = b @ np.conj(b.T)
    rho /= np.trace(rho).real
    res = gleason_additivity_check(OperatorMatrix(rho), 50, RngStream(seed=18))
    assert res.max_error < 1e-10


def test_gleason_additivity_warns_on_negative_eigenvalues():
    t = OperatorMatrix(np.diag([0.8, 0.5, -0.3]))
    with pytest.warns(NegativityWarning):
        res = gleason_additivity_check(t, 10, RngStream(seed=19))
    assert res.negative_eigenvalues == [pytest.approx(-0.3)]
    assert res.max_error < 1e-10  # additivity holds regardless of positivity


def test_gleason_additivity_preconditions():
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ConfigurationError):
        gleason_additivity_check(OperatorMatrix(skew), 5, RngStream(seed=20))
    with pytest.raises(ConfigurationError):
        gleason_additivity_check(OperatorMatrix(np.eye(3)), 5, RngStream(seed=21))
