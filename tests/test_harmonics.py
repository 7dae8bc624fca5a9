import numpy as np
import pytest
from fractions import Fraction

from framesphere import harmonics

from framesphere.errors import (
    ConfigurationError,
    DimensionUnsupportedError,
    ResourceGuardError,
    ShapeMismatchError,
)
from framesphere.exact import GaussianRational
from framesphere.harmonics import (
    BiDegree,
    bidegrees_up_to,
    build_basis,
    character,
    character_batch,
    dimension,
    laplacian_kernel_dim,
    project_basis,
    project_character,
    reachable_bidegrees,
    representation_matrix,
    zonal_frame_sum,
    zonal_from_generating_function,
    zonal_harmonic,
    zonal_harmonic_components,
    zonal_polynomial,
)
from framesphere.measure import (
    MC_CHUNK,
    RngStream,
    exact_monomial_moment,
    haar_sample_batch,
    sphere_sample_batch,
)
from framesphere.polynomials import (
    BiDegreePolynomial,
    PolynomialEvaluator,
    apply_laplacian,
    batch_evaluator,
    inner_product,
    norm_sq,
)


def test_dimension_formula_values():
    # dim H_{(1,1)} = n^2 - 1
    assert [dimension(n, (1, 1)) for n in (3, 4, 5)] == [8, 15, 24]
    assert dimension(3, (0, 0)) == 1
    assert dimension(3, (1, 0)) == 3
    assert dimension(3, (2, 0)) == 6
    assert dimension(3, (2, 2)) == 27


def test_bidegrees_up_to_orders_by_total_then_p():
    assert bidegrees_up_to(0) == [(0, 0)]
    assert bidegrees_up_to(2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert all(isinstance(j, BiDegree) for j in bidegrees_up_to(3))
    assert len(bidegrees_up_to(5)) == 21
    assert bidegrees_up_to(-1) == []


def test_reachable_bidegrees_follow_the_laplacian_ladder():
    quadratic = BiDegreePolynomial.monomial(3, (1, 0, 0), (0, 1, 0))
    quartic = BiDegreePolynomial.monomial(3, (2, 1, 0), (1, 0, 0))
    assert reachable_bidegrees([quadratic]) == {(1, 1), (0, 0)}
    assert reachable_bidegrees([quartic, quadratic]) == {(3, 1), (2, 0), (1, 1), (0, 0)}
    assert reachable_bidegrees([]) == set()
    # every component outside the reachable set is exactly zero
    for j in bidegrees_up_to(4):
        if j not in reachable_bidegrees([quartic]):
            assert not project_basis(quartic, build_basis(3, j))


def test_dimension_rejects_small_n():
    with pytest.raises(DimensionUnsupportedError):
        dimension(2, (1, 1))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("j", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
def test_dimension_equals_laplacian_kernel_rank(n, j):
    assert dimension(n, j) == laplacian_kernel_dim(n, j)


@pytest.mark.parametrize("j", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1)])
def test_build_basis_is_harmonic_and_orthogonal(j):
    space = build_basis(3, j)
    assert space.dim == dimension(3, j)
    for m, v in enumerate(space.polys):
        assert not apply_laplacian(v)  # exact zero
        assert inner_product(v, v) == space.norms_sq[m]
        for w in space.polys[m + 1 :]:
            assert inner_product(v, w) == 0


def _dense_basis(n, p, q):
    """Unblocked oracle: kernel of the whole Laplacian, Gram-Schmidt over all of P^{p,q}."""
    monos = harmonics._pair_monomials(n, p, q)
    ncols = len(monos)
    rows, _ = harmonics._laplacian_rows(n, p, q)
    rref_rows, pivots = harmonics._rref(rows, ncols)
    pivot_cols = {col: row for row, col in pivots}
    kernel = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, row in pivot_cols.items():
            coeff = rref_rows[row].get(fc)
            if coeff:
                v[pc] = -coeff
        kernel.append(v)

    # monomial Gram matrix, stored per charge block but applied to whole vectors
    groups = {}
    for idx, (alpha, beta) in enumerate(monos):
        groups.setdefault(tuple(a - b for a, b in zip(alpha, beta)), []).append(idx)
    blocks = []
    for idxs in groups.values():
        mat = []
        for gi in idxs:
            beta_i = monos[gi][1]
            moments = []
            for gk in idxs:
                m = tuple(a + b for a, b in zip(beta_i, monos[gk][0]))
                moments.append(exact_monomial_moment(m, m, n))
            mat.append(moments)
        blocks.append((idxs, mat))

    def gram_apply(v):
        out = [Fraction(0)] * ncols
        for idxs, mat in blocks:
            for gi, moments in zip(idxs, mat):
                out[gi] = sum((g * v[gk] for g, gk in zip(moments, idxs) if v[gk]), Fraction(0))
        return out

    ortho, gram_applied, norms = [], [], []
    for v in kernel:
        for u, gu, ru in zip(ortho, gram_applied, norms):
            coeff = sum(gu[i] * v[i] for i in range(ncols) if v[i]) / ru
            if coeff:
                v = [x - coeff * y for x, y in zip(v, u)]
        gv = gram_apply(v)
        ortho.append(v)
        gram_applied.append(gv)
        norms.append(sum(gv[i] * v[i] for i in range(ncols) if v[i]))
    polys = [
        BiDegreePolynomial(n, p, q, {monos[i]: v[i] for i in range(ncols) if v[i]})
        for v in ortho
    ]
    return harmonics.HarmonicSubspace(n, (p, q), polys, norms)


_ORACLE_CASES = [
    (n, (p, total - p))
    for n, top in ((3, 5), (4, 5), (5, 3))
    for total in range(top + 1)
    for p in range(total + 1)
]


@pytest.fixture
def cold_basis_cache():
    saved = dict(harmonics._BASIS_CACHE)
    harmonics._BASIS_CACHE.clear()
    yield
    harmonics._BASIS_CACHE.clear()
    harmonics._BASIS_CACHE.update(saved)


@pytest.mark.parametrize("n, j", _ORACLE_CASES, ids=[f"n{n}-{p}{q}" for n, (p, q) in _ORACLE_CASES])
def test_build_basis_equals_dense_oracle(n, j, cold_basis_cache):
    space = build_basis(n, j)
    oracle = _dense_basis(n, *j)
    assert space.norms_sq == oracle.norms_sq
    assert [list(v.terms.items()) for v in space.polys] == [
        list(v.terms.items()) for v in oracle.polys
    ]


@pytest.mark.parametrize("n, j", [(3, (3, 2)), (4, (2, 2)), (5, (2, 1))])
def test_basis_polynomials_lie_in_one_charge_block(n, j):
    for v in build_basis(n, j).polys:
        charges = {tuple(a - b for a, b in zip(alpha, beta)) for alpha, beta in v.terms}
        assert len(charges) == 1


def test_build_basis_normalised_view():
    space = build_basis(3, (1, 1))
    for z_m in space.basis:
        assert complex(norm_sq(z_m)) == pytest.approx(1.0)


def test_build_basis_resource_guard():
    # dim P^(5,5) on C^8 is 792^2, refused before any work
    with pytest.raises(ResourceGuardError, match="monomial bound"):
        build_basis(8, (5, 5))


def test_zonal_recurrence_matches_generating_function():
    for p in range(5):
        for q in range(5):
            for n in (3, 4):
                assert zonal_polynomial(n, (p, q)) == zonal_from_generating_function(n, (p, q))


def test_zonal_known_coefficients():
    assert zonal_polynomial(3, (0, 0)).coeffs == {(0, 0): Fraction(1)}
    assert zonal_polynomial(3, (1, 0)).coeffs == {(1, 0): Fraction(2)}
    assert zonal_polynomial(3, (1, 1)).coeffs == {(0, 0): Fraction(-2), (1, 1): Fraction(6)}


def test_zonal_selection_rule():
    # the basis sum R(1) + (n-1) R(0) vanishes exactly at j = (1,1) among j != (0,0)
    for n in (3, 4, 5):
        for p in range(4):
            for q in range(4):
                value = zonal_frame_sum(n, (p, q))
                if (p, q) == (1, 1):
                    assert value == 0
                else:
                    assert value != 0 or (p, q) == (0, 0) and False


def test_zonal_frame_sum_values():
    assert zonal_frame_sum(3, (0, 0)) == 3
    assert zonal_frame_sum(3, (1, 1)) == 0
    assert zonal_frame_sum(3, (1, 0)) == 2
    assert zonal_frame_sum(3, (2, 2)) == 15


def test_zonal_harmonic_lives_in_its_subspace():
    # on the sphere the zonal function lies purely in H_{(2,1)}: its total
    # pairing against any charge-matched foreign harmonic space is exactly 0
    n = 3
    pole = [Fraction(3, 5), GaussianRational(0, Fraction(4, 5)), Fraction(0)]
    parts = zonal_harmonic_components(n, (2, 1), pole)
    assert set(parts) == {BiDegree(2, 1), BiDegree(1, 0)}
    for j, poly in parts.items():
        assert (poly.p, poly.q) == tuple(j)
    foreign = build_basis(n, (1, 0))
    for v in foreign.polys:
        total = sum((inner_product(v, poly) for poly in parts.values()), GaussianRational(0))
        assert total == 0


def test_zonal_matches_basis_reproducing_kernel():
    # sum_m Z_m(u) conj(Z_m(t)) over a unit basis is the invariant kernel of
    # H_j, so it equals (dim / R(1)) * R(<u, t>) -- two independent routes
    n = 3
    rng = RngStream(seed=30)
    ts = sphere_sample_batch(n, 3, rng)
    us = sphere_sample_batch(n, 3, rng.child(1))
    for j in [(1, 1), (2, 1), (2, 2)]:
        space = build_basis(n, j)
        r = zonal_polynomial(n, j)
        scale = space.dim / float(r.at_one())
        for t, u in zip(ts, us):
            w = complex(np.sum(u * np.conj(t)))
            kernel = sum(zm.evaluate(u) * np.conj(zm.evaluate(t)) for zm in space.basis)
            assert abs(kernel - scale * r(w)) < 1e-10


def test_zonal_harmonic_pointwise_matches_components():
    n = 3
    rng = RngStream(seed=11)
    t = sphere_sample_batch(n, 1, rng)[0]
    u = sphere_sample_batch(n, 1, rng.child(1))[0]
    direct = zonal_harmonic(n, (2, 2), t, u)
    parts = zonal_harmonic_components(n, (2, 2), t)
    assert direct == pytest.approx(sum(poly.evaluate(u) for poly in parts.values()))


def test_zonal_harmonic_rejects_non_unit_pole():
    with pytest.raises(ShapeMismatchError):
        zonal_harmonic(3, (1, 1), [1.0, 1.0, 0.0], [1.0, 0.0, 0.0])


def test_representation_identity_and_unitarity():
    space = build_basis(3, (1, 1))
    eye = representation_matrix(space, np.eye(3))
    assert np.max(np.abs(eye - np.eye(space.dim))) < 1e-12
    g = haar_sample_batch(3, 1, RngStream(seed=12))[0]
    d = representation_matrix(space, g)
    assert np.max(np.abs(np.conj(d.T) @ d - np.eye(space.dim))) < 1e-10


def test_representation_is_a_homomorphism():
    space = build_basis(3, (1, 0))
    gs = haar_sample_batch(3, 2, RngStream(seed=13))
    d_gh = representation_matrix(space, gs[0] @ gs[1])
    d_g = representation_matrix(space, gs[0])
    d_h = representation_matrix(space, gs[1])
    assert np.max(np.abs(d_gh - d_g @ d_h)) < 1e-10


def test_character_of_adjoint_type_subspace():
    # chi_{(1,1)}(g) = |tr g|^2 - 1
    space = build_basis(3, (1, 1))
    gs = haar_sample_batch(3, 20, RngStream(seed=14))
    chis = character_batch(space, gs)
    expect = np.abs(np.trace(gs, axis1=1, axis2=2)) ** 2 - 1
    assert np.max(np.abs(chis - expect)) < 1e-10


def _bidegrees(top):
    return [(p, total - p) for total in range(top + 1) for p in range(total + 1)]


def _assert_batch_matches_oracle(n, top, seed):
    # the eigenvalue route against the trace of the quadrature representation
    gs = haar_sample_batch(n, 3, RngStream(seed=seed))
    for j in _bidegrees(top):
        space = build_basis(n, j)
        batch = character_batch(space, gs)
        slow = np.array([character(space, g) for g in gs])
        assert batch.shape == (len(gs),)
        assert np.max(np.abs(batch - slow)) < 1e-10, j


def test_character_batch_matches_single_evaluation():
    _assert_batch_matches_oracle(3, 4, seed=15)


def test_character_batch_matches_single_evaluation_n4():
    _assert_batch_matches_oracle(4, 4, seed=16)


def test_character_batch_matches_single_evaluation_n5():
    _assert_batch_matches_oracle(5, 3, seed=19)


def test_character_oracle_is_trace_of_representation_matrix():
    g = haar_sample_batch(3, 1, RngStream(seed=22))[0]
    for j in [(1, 0), (1, 1), (2, 1)]:
        space = build_basis(3, j)
        assert abs(character(space, g) - np.trace(representation_matrix(space, g))) < 1e-12


def test_trivial_character_is_exactly_one():
    gs = haar_sample_batch(4, 50, RngStream(seed=23))
    chis = character_batch(build_basis(4, (0, 0)), gs)
    assert np.all(chis == 1.0)


def test_character_of_swapped_bidegree_is_conjugate():
    gs = haar_sample_batch(4, 50, RngStream(seed=24))
    for p, q in [(1, 0), (2, 0), (2, 1), (3, 1), (3, 0)]:
        chi = character_batch(build_basis(4, (p, q)), gs)
        swapped = character_batch(build_basis(4, (q, p)), gs)
        assert np.max(np.abs(swapped - np.conj(chi))) < 1e-12, (p, q)


def test_character_20_from_eigenvalues():
    # the (2,0) action is the symmetric square of g -> conj(g), so the
    # character is sum_{i <= j} conj(lambda_i lambda_j)
    space = build_basis(3, (2, 0))
    gs = haar_sample_batch(3, 10, RngStream(seed=17))
    chis = character_batch(space, gs)
    for g, chi in zip(gs, chis):
        lam = np.linalg.eigvals(g)
        expect = sum(
            np.conj(lam[i] * lam[j]) for i in range(3) for j in range(i, 3)
        )
        assert abs(chi - expect) < 1e-10


def test_character_orthogonality_smoke():
    n = 3
    gs = haar_sample_batch(n, 20_000, RngStream(seed=18))
    chi11 = character_batch(build_basis(n, (1, 1)), gs)
    chi20 = character_batch(build_basis(n, (2, 0)), gs)

    sq = np.abs(chi11) ** 2
    se = np.std(sq) / np.sqrt(len(sq))
    assert abs(np.mean(sq) - 1.0) < 4 * se

    cross = chi11 * np.conj(chi20)
    se = np.std(cross) / np.sqrt(len(cross))
    assert abs(np.mean(cross)) < 4 * se


def test_project_basis_exact_components():
    # f = |z1|^4 at n = 3 decomposes with exactly known pieces
    n = 3
    f = BiDegreePolynomial.monomial(n, (2, 0, 0), (2, 0, 0))

    f00 = project_basis(f, build_basis(n, (0, 0)))
    assert f00.terms == {((0, 0, 0), (0, 0, 0)): Fraction(1, 6)}
    assert norm_sq(f00) == Fraction(1, 36)

    f11 = project_basis(f, build_basis(n, (1, 1)))
    # (4/5) * (|z1|^2 - |z|^2 / 3), expanded into monomials
    expect = (
        BiDegreePolynomial.monomial(n, (1, 0, 0), (1, 0, 0), Fraction(8, 15))
        + BiDegreePolynomial.monomial(n, (0, 1, 0), (0, 1, 0), Fraction(-4, 15))
        + BiDegreePolynomial.monomial(n, (0, 0, 1), (0, 0, 1), Fraction(-4, 15))
    )
    assert not (f11 - expect)
    assert norm_sq(f11) == Fraction(8, 225)

    f22 = project_basis(f, build_basis(n, (2, 2)))
    assert norm_sq(f22) == Fraction(1, 300)

    # Parseval: the three pieces exhaust the norm
    assert Fraction(1, 36) + Fraction(8, 225) + Fraction(1, 300) == norm_sq(f)

    # components of other bidegree vanish identically
    assert not project_basis(f, build_basis(n, (1, 0)))
    assert not project_basis(f, build_basis(n, (2, 1)))


def test_project_basis_fixes_harmonics():
    space = build_basis(3, (1, 1))
    v = space.polys[2]
    assert not (project_basis(v, space) - v)


def test_project_basis_mc_agrees_with_exact():
    n = 3
    f = BiDegreePolynomial.monomial(n, (2, 0, 0), (2, 0, 0))
    space = build_basis(n, (1, 1))
    exact = project_basis(f, space)
    approx = project_basis(f, space, n_samples=200_000, rng=RngStream(seed=19))
    gap = approx - BiDegreePolynomial(n, 1, 1, {k: complex(c) for k, c in exact.terms.items()})
    worst = max(abs(complex(c)) for c in gap.terms.values())
    assert worst < 0.02


def test_project_basis_mc_chunks_match_one_batch():
    # chunked draws fold into the same sums as one draw of every point
    n_samples = 2 * MC_CHUNK + 9
    f = BiDegreePolynomial.monomial(3, (2, 0, 0), (2, 0, 0))
    space = build_basis(3, (1, 1))
    got = project_basis(f, space, n_samples=n_samples, rng=RngStream(seed=19))
    pts = sphere_sample_batch(3, n_samples, RngStream(seed=19))
    values = batch_evaluator(f)(pts)
    sums = np.zeros(space.dim, dtype=complex)
    for rows, basis_values in PolynomialEvaluator(space.basis, 3).blocks(pts):
        sums += np.conj(basis_values) @ values[rows]
    expect = BiDegreePolynomial(3, 1, 1, {})
    for z_m, coeff in zip(space.basis, sums / n_samples):
        expect = expect + z_m * complex(coeff)
    assert got.terms == expect.terms


def test_project_basis_mc_needs_rng_and_samples():
    f = BiDegreePolynomial.monomial(3, (1, 0, 0), (1, 0, 0))
    space = build_basis(3, (1, 1))
    with pytest.raises(ConfigurationError):
        project_basis(f, space, n_samples=1000)


def test_project_character_agrees_with_basis_route():
    n = 3
    f = BiDegreePolynomial.monomial(n, (2, 0, 0), (2, 0, 0))
    space = build_basis(n, (1, 1))
    exact = project_basis(f, space)
    u = sphere_sample_batch(n, 1, RngStream(seed=20))[0]
    est = project_character(f, space, u, 100_000, RngStream(seed=21))
    expect = complex(exact.evaluate(u))
    assert abs(est.mean - expect) < 4 * est.stderr
