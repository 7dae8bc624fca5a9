import numpy as np
import pytest
from fractions import Fraction

from framesphere.errors import ConfigurationError, ShapeMismatchError
from framesphere.exact import GaussianRational
from framesphere.harmonics import bidegrees_up_to, build_basis
from framesphere.measure import RngStream, haar_sample_batch, sphere_sample_batch
from framesphere.polynomials import (
    EVAL_BLOCK,
    BiDegreePolynomial,
    PolynomialEvaluator,
    apply_laplacian,
    batch_evaluator,
    compose_with_linear,
    inner_product,
    norm_sq,
    poly_from_records,
    poly_to_records,
)


def test_constructor_checks_homogeneity():
    BiDegreePolynomial(3, 1, 1, {((1, 0, 0), (0, 1, 0)): 1})
    with pytest.raises(ShapeMismatchError):
        BiDegreePolynomial(3, 1, 1, {((1, 0, 0), (0, 0, 0)): 1})
    with pytest.raises(ShapeMismatchError):
        BiDegreePolynomial(3, 2, 0, {((1, 0), (0, 0)): 1})


def test_constant_and_monomial_builders():
    one = BiDegreePolynomial.constant(3, 1)
    assert one.evaluate([1.0, 0.0, 0.0]) == 1
    m = BiDegreePolynomial.monomial(3, (1, 0, 0), (0, 1, 0))
    z = np.array([0.5, 0.5j, np.sqrt(0.5)])
    assert m.evaluate(z) == pytest.approx(z[0] * np.conj(z[1]))


def test_from_quadratic_form_matches_sandwich():
    a = np.array([[1.0, 2.0 + 1.0j, 0.0], [2.0 - 1.0j, -1.0, 0.5j], [0.0, -0.5j, 3.0]])
    f = BiDegreePolynomial.from_quadratic_form(a)
    rng = RngStream(seed=0)
    pts = sphere_sample_batch(3, 10, rng)
    for z in pts:
        expect = np.conj(z) @ a @ z
        assert f.evaluate(z) == pytest.approx(expect)


def test_arithmetic_and_zero_pruning():
    m1 = BiDegreePolynomial.monomial(3, (1, 0, 0), (1, 0, 0))
    m2 = BiDegreePolynomial.monomial(3, (0, 1, 0), (0, 1, 0))
    s = m1 + m2
    assert len(s.terms) == 2
    d = s - m2
    assert d == m1
    cancelled = m1 - m1
    assert not cancelled
    assert cancelled.terms == {}
    scaled = m1 * Fraction(2, 3)
    assert scaled.terms[((1, 0, 0), (1, 0, 0))] == Fraction(2, 3)


def test_mixed_degree_addition_rejected():
    m1 = BiDegreePolynomial.monomial(3, (1, 0, 0), (1, 0, 0))
    m2 = BiDegreePolynomial.monomial(3, (2, 0, 0), (2, 0, 0))
    with pytest.raises(ShapeMismatchError):
        m1 + m2


def test_evaluate_batch_matches_pointwise():
    f = BiDegreePolynomial(
        3, 2, 1, {((2, 0, 0), (0, 1, 0)): 1 + 1j, ((1, 1, 0), (0, 0, 1)): -2}
    )
    pts = sphere_sample_batch(3, 32, RngStream(seed=1))
    batch = f.evaluate_batch(pts)
    for z, v in zip(pts, batch):
        assert v == pytest.approx(f.evaluate(z))


# ---------------------------------------------------------------------------
# PolynomialEvaluator against the per-term loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, j_max", [(3, 5), (4, 4)])
def test_evaluator_matches_term_loop_on_every_basis(n, j_max, term_loop):
    # every bidegree's basis in one call, on more points than one block holds
    polys = [z for j in bidegrees_up_to(j_max) for z in build_basis(n, j).basis]
    pts = sphere_sample_batch(n, EVAL_BLOCK + 61, RngStream(seed=5))
    values = PolynomialEvaluator(polys, n)(pts)
    assert values.shape == (len(polys), len(pts))
    oracle = np.array([term_loop(poly, pts) for poly in polys])
    assert np.max(np.abs(values - oracle)) <= 1e-12


def test_evaluator_interleaved_bidegrees_and_zero_polynomials(term_loop):
    a = BiDegreePolynomial(3, 2, 1, {((2, 0, 0), (0, 1, 0)): 1 + 1j, ((1, 1, 0), (0, 0, 1)): -2})
    b = BiDegreePolynomial(3, 0, 3, {((0, 0, 0), (1, 1, 1)): 0.5})
    c = BiDegreePolynomial(3, 2, 1, {((0, 0, 2), (1, 0, 0)): 3j})
    zero = BiDegreePolynomial(3, 4, 4, {})
    polys = [a, zero, b, c, a]
    pts = sphere_sample_batch(3, 100, RngStream(seed=6))
    values = PolynomialEvaluator(polys, 3)(pts)
    for row, poly in enumerate(polys):
        assert np.max(np.abs(values[row] - term_loop(poly, pts))) <= 1e-14
    assert not values[1].any()
    assert not PolynomialEvaluator([zero], 3)(pts).any()


def test_evaluator_empty_inputs():
    pts = sphere_sample_batch(3, 10, RngStream(seed=7))
    assert PolynomialEvaluator([], 3)(pts).shape == (0, 10)
    one = BiDegreePolynomial.constant(3, 2.5)
    assert PolynomialEvaluator([one], 3)(np.zeros((0, 3))).shape == (1, 0)
    assert list(PolynomialEvaluator([one], 3).blocks(np.zeros((0, 3)))) == []
    assert np.array_equal(PolynomialEvaluator([one], 3)(pts), np.full((1, 10), 2.5 + 0j))


def test_evaluator_exact_coefficients_match_their_float_values():
    exact = BiDegreePolynomial(
        3,
        1,
        2,
        {
            ((1, 0, 0), (0, 1, 1)): GaussianRational(Fraction(1, 3), Fraction(-2, 7)),
            ((0, 1, 0), (2, 0, 0)): Fraction(5, 4),
            ((0, 0, 1), (0, 0, 2)): -3,
        },
    )
    floaty = BiDegreePolynomial(3, 1, 2, {k: complex(c) for k, c in exact.terms.items()})
    pts = sphere_sample_batch(3, 50, RngStream(seed=8))
    assert np.array_equal(PolynomialEvaluator([exact], 3)(pts), PolynomialEvaluator([floaty], 3)(pts))


def test_evaluator_blocks_cover_the_points_in_order():
    polys = build_basis(3, (2, 1)).basis
    pts = sphere_sample_batch(3, 2 * EVAL_BLOCK + 5, RngStream(seed=9))
    evaluator = PolynomialEvaluator(polys, 3)
    whole = evaluator(pts)
    covered = 0
    for rows, values in evaluator.blocks(pts):
        assert rows.start == covered and values.shape[1] <= EVAL_BLOCK
        assert np.array_equal(values, whole[:, rows])
        covered = rows.stop
    assert covered == len(pts)


def test_evaluator_checks_shapes():
    poly = BiDegreePolynomial.monomial(3, (1, 0, 0), (0, 1, 0))
    with pytest.raises(ShapeMismatchError):
        PolynomialEvaluator([poly, BiDegreePolynomial.constant(4, 1)], 3)
    with pytest.raises(ShapeMismatchError):
        PolynomialEvaluator([poly], 3)(np.zeros((5, 4)))
    with pytest.raises(ShapeMismatchError):
        poly.evaluate_batch(np.zeros(3))


def test_batch_evaluator_dispatch():
    a = BiDegreePolynomial.monomial(3, (1, 0, 0), (1, 0, 0), 2.0)
    b = BiDegreePolynomial.monomial(3, (2, 0, 0), (0, 0, 0))
    pts = sphere_sample_batch(3, 20, RngStream(seed=10))
    expected = a.evaluate_batch(pts) + b.evaluate_batch(pts)
    assert np.allclose(batch_evaluator([a, b])(pts), expected, rtol=0, atol=1e-14)
    assert np.array_equal(batch_evaluator(a)(pts), a.evaluate_batch(pts))
    pointwise = batch_evaluator(lambda z: complex(z[0]))(pts)
    assert np.array_equal(pointwise, pts[:, 0])
    assert not batch_evaluator([])(pts).any()
    with pytest.raises(ConfigurationError):
        batch_evaluator(object())


def _fd_laplacian(f, z, h=1e-3):
    """Finite-difference Laplacian in all 2n real coordinates at z."""
    z = np.asarray(z, dtype=complex)
    n = len(z)
    total = 0.0 + 0.0j
    f0 = f.evaluate(z)
    for k in range(n):
        for step in (h, 1j * h):
            zp = z.copy()
            zm = z.copy()
            zp[k] += step
            zm[k] -= step
            total += (f.evaluate(zp) - 2 * f0 + f.evaluate(zm)) / h**2
    return total


@pytest.mark.parametrize(
    "terms,p,q",
    [
        ({((2, 0, 0), (0, 0, 0)): 1}, 2, 0),
        ({((1, 0, 0), (1, 0, 0)): 1}, 1, 1),
        ({((2, 0, 0), (1, 1, 0)): 1 - 0.5j, ((1, 1, 0), (0, 2, 0)): 2}, 2, 2),
        ({((2, 1, 0), (0, 0, 1)): 1}, 3, 1),
    ],
)
def test_laplacian_against_finite_differences(terms, p, q):
    f = BiDegreePolynomial(3, p, q, terms)
    lap = apply_laplacian(f)
    rng = RngStream(seed=2).generator
    for _ in range(4):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        expect = _fd_laplacian(f, z)
        got = lap.evaluate(z)
        scale = max(1.0, abs(expect))
        assert abs(got - expect) / scale < 1e-5


def test_laplacian_kills_holomorphic_monomials():
    f = BiDegreePolynomial.monomial(3, (2, 1, 0), (0, 0, 0))
    assert not apply_laplacian(f)


def test_compose_is_evaluation_pullback():
    f = BiDegreePolynomial(
        3, 2, 1, {((1, 1, 0), (0, 0, 1)): 1 + 2j, ((0, 0, 2), (1, 0, 0)): -1}
    )
    g = haar_sample_batch(3, 1, RngStream(seed=3))[0]
    comp = compose_with_linear(f, g)
    pts = sphere_sample_batch(3, 8, RngStream(seed=4))
    ginv = np.conj(g.T)
    for z in pts:
        assert comp.evaluate(z) == pytest.approx(f.evaluate(ginv @ z))


def test_compose_without_inverse():
    f = BiDegreePolynomial.monomial(3, (1, 0, 0), (0, 0, 0))
    g = haar_sample_batch(3, 1, RngStream(seed=5))[0]
    comp = compose_with_linear(f, g, inverse=False)
    z = sphere_sample_batch(3, 1, RngStream(seed=6))[0]
    assert comp.evaluate(z) == pytest.approx(f.evaluate(g @ z))


def test_compose_keeps_exact_regime_for_exact_matrices():
    f = BiDegreePolynomial.monomial(3, (1, 0, 0), (0, 1, 0), GaussianRational(1))
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    comp = compose_with_linear(f, swap)
    assert comp.is_exact
    assert comp == BiDegreePolynomial.monomial(3, (0, 1, 0), (1, 0, 0), GaussianRational(1))


def test_inner_product_matches_moment_formula():
    # <z1 conj(z1), z1 conj(z1)> = integral |z1|^4 = 1/6
    f = BiDegreePolynomial.monomial(3, (1, 0, 0), (1, 0, 0))
    assert inner_product(f, f) == Fraction(1, 6)
    # <1, |z1|^2> = 1/3
    one = BiDegreePolynomial.constant(3, 1)
    assert inner_product(one, f) == Fraction(1, 3)


def test_inner_product_conjugate_linearity_convention():
    # <a, b> is conjugate-linear in the first slot
    f = BiDegreePolynomial.monomial(3, (1, 0, 0), (1, 0, 0), GaussianRational(0, 1))
    g = BiDegreePolynomial.monomial(3, (1, 0, 0), (1, 0, 0))
    val = inner_product(f, g)
    assert complex(val) == pytest.approx(complex(0, -1) * (1 / 6))
    assert complex(inner_product(g, f)) == pytest.approx(complex(0, 1) * (1 / 6))


def test_inner_product_vanishes_exactly_across_charges():
    a = BiDegreePolynomial.monomial(3, (1, 0, 0), (0, 0, 0))  # charge +1
    b = BiDegreePolynomial.monomial(3, (0, 0, 0), (1, 0, 0))  # charge -1
    assert inner_product(a, b) == 0
    c = BiDegreePolynomial.monomial(3, (2, 0, 0), (1, 0, 0))  # charge +1, degree 3
    assert inner_product(a, c) == Fraction(1, 6)  # same charge may overlap


def test_inner_product_mc_cross_check():
    f = BiDegreePolynomial(
        3, 1, 1, {((1, 0, 0), (0, 1, 0)): 1 + 1j, ((0, 1, 0), (1, 0, 0)): 0.5}
    )
    g = BiDegreePolynomial(3, 1, 1, {((1, 0, 0), (0, 1, 0)): 2, ((0, 0, 1), (0, 0, 1)): -1j})
    exact = complex(inner_product(f, g))
    pts = sphere_sample_batch(3, 200_000, RngStream(seed=7))
    prod = np.conj(f.evaluate_batch(pts)) * g.evaluate_batch(pts)
    se = np.std(prod) / np.sqrt(len(prod))
    assert abs(np.mean(prod) - exact) < 4 * se + 1e-12


def test_norm_sq_values():
    f = BiDegreePolynomial.monomial(3, (1, 0, 0), (1, 0, 0))
    assert norm_sq(f) == Fraction(1, 6)
    one = BiDegreePolynomial.constant(4, 1)
    assert norm_sq(one) == 1


def test_records_round_trip_exact_and_float():
    exact = BiDegreePolynomial(
        3, 1, 1, {((1, 0, 0), (0, 1, 0)): GaussianRational(Fraction(1, 3), Fraction(-2, 7))}
    )
    assert poly_from_records(poly_to_records(exact)) == exact
    assert poly_from_records(poly_to_records(exact)).is_exact

    floaty = BiDegreePolynomial(3, 2, 0, {((1, 1, 0), (0, 0, 0)): 0.25 - 1.5j})
    back = poly_from_records(poly_to_records(floaty))
    assert back.terms == floaty.terms
