"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible because -s is on in the
project pytest options) and then asserts, so the summary table and the exit
status always agree.
"""

import time
from fractions import Fraction

import numpy as np

from framesphere.frame import (
    FrameFunction,
    OperatorMatrix,
    basis_weight_sums,
    check_frame_property,
    frame_residual,
    gleason_additivity_check,
    reconstruct_harmonic,
    reconstruct_moment,
)
from framesphere.harmonics import (
    BiDegree,
    build_basis,
    character_batch,
    dimension,
    laplacian_kernel_dim,
    project_basis,
    project_character,
    zonal_from_generating_function,
    zonal_frame_sum,
    zonal_polynomial,
)
from framesphere.measure import RngStream, haar_sample_batch, sphere_sample_batch
from framesphere.polynomials import (
    BiDegreePolynomial,
    apply_laplacian,
    compose_with_linear,
    inner_product,
    norm_sq,
)

J_MAX = 6
DIMS = (3, 4, 5)


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def _bidegrees(j_max, j_min=0):
    return [
        (p, total - p)
        for total in range(j_min, j_max + 1)
        for p in range(total + 1)
    ]


def _random_hermitian(n, gen):
    b = gen.uniform(-1, 1, (n, n)) + 1j * gen.uniform(-1, 1, (n, n))
    return (b + np.conj(b.T)) / 2


def _random_harmonic(space, gen):
    coeffs = gen.normal(size=space.dim) + 1j * gen.normal(size=space.dim)
    out = BiDegreePolynomial(space.n, space.j.p, space.j.q, {})
    for c, z_m in zip(coeffs, space.basis):
        out = out + z_m * complex(c)
    return out


def test_criterion_01_zonal_recurrence_matches_generating_function():
    start = time.perf_counter()
    agree = all(
        zonal_polynomial(n, j) == zonal_from_generating_function(n, j)
        for n in DIMS
        for j in _bidegrees(J_MAX)
    )
    elapsed = time.perf_counter() - start
    # the disputed closed form for R(1): the generating function gives
    # R_{1,0}(1) = n-1, the printed sign factor (-1)^(p+q) would flip it
    computed = zonal_polynomial(3, (1, 0)).at_one()
    claimed = -2
    ok = agree and elapsed < 10.0
    assert _report(
        1,
        ok,
        f"recurrence == Taylor expansion for p+q <= {J_MAX}, n in {DIMS}, "
        f"exact rational, {elapsed:.2f}s (< 10s); R_(1,0)(1) at n=3: "
        f"generating function {computed}, alternating-sign closed form {claimed}",
    )


def test_criterion_02_selection_rule():
    hits = []
    for n in DIMS:
        for j in _bidegrees(J_MAX, j_min=1):
            if zonal_frame_sum(n, j) == 0:
                hits.append((n, j))
    ok = hits == [(n, (1, 1)) for n in DIMS]
    assert _report(
        2,
        ok,
        f"R(1) + (n-1)R(0) = 0 exactly and only at (1,1) among 1 <= p+q <= {J_MAX}, "
        f"n in {DIMS}; zeros found at {sorted(set(j for _, j in hits))}",
    )


def test_criterion_03_harmonic_bases_exact():
    gram_ok = True
    laplacian_ok = True
    for j in _bidegrees(4):
        space = build_basis(3, j)
        for a, (v, r) in enumerate(zip(space.polys, space.norms_sq)):
            if apply_laplacian(v):
                laplacian_ok = False
            if inner_product(v, v) != r:
                gram_ok = False
            for w in space.polys[a + 1 :]:
                if inner_product(v, w) != 0:
                    gram_ok = False
    dims_ok = all(
        dimension(n, (1, 1)) == n * n - 1 == laplacian_kernel_dim(n, (1, 1)) for n in DIMS
    )
    ok = gram_ok and laplacian_ok and dims_ok
    assert _report(
        3,
        ok,
        "Gram exactly diagonal with the stored norms, Laplacian exactly zero "
        f"(n=3, p+q <= 4); dim H_(1,1) = n^2-1 by kernel rank for n in {DIMS}",
    )


def test_criterion_04_schur_orthogonality_statistics():
    start = time.perf_counter()
    n, count = 3, 100_000
    gs = haar_sample_batch(n, count, RngStream(seed=2026))
    chi11 = character_batch(build_basis(n, (1, 1)), gs)
    chi20 = character_batch(build_basis(n, (2, 0)), gs)

    sq = np.abs(chi11) ** 2
    sq_mean = float(np.mean(sq))
    sq_se = float(np.std(sq, ddof=1) / np.sqrt(count))
    norm_ok = abs(sq_mean - 1.0) <= 4 * sq_se

    cross = chi11 * np.conj(chi20)
    cross_mean = complex(np.mean(cross))
    cross_se = float(np.std(cross, ddof=1) / np.sqrt(count))
    cross_ok = abs(cross_mean) <= 4 * cross_se

    elapsed = time.perf_counter() - start
    ok = norm_ok and cross_ok and elapsed < 60.0
    assert _report(
        4,
        ok,
        f"10^5 Haar samples: E|chi_11|^2 = {sq_mean:.4f} (1 within 4se = {4 * sq_se:.4f}), "
        f"E chi_11 conj(chi_20) = {abs(cross_mean):.4f} (0 within 4se = {4 * cross_se:.4f}), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_05_projection_routes_agree():
    n = 3
    gen = np.random.default_rng(505)
    a = _random_hermitian(n, gen)
    c = complex(np.trace(a)) / n
    a0 = a - c * np.eye(n)
    f11 = BiDegreePolynomial(
        n,
        1,
        1,
        {
            (
                tuple(1 if i == l else 0 for i in range(n)),
                tuple(1 if i == k else 0 for i in range(n)),
            ): complex(a0[k, l])
            for k in range(n)
            for l in range(n)
            if a0[k, l] != 0
        },
    )
    f22 = _random_harmonic(build_basis(n, (2, 2)), gen)
    f = FrameFunction(
        harmonic={
            (0, 0): BiDegreePolynomial.constant(n, c),
            (1, 1): f11,
            (2, 2): f22,
        }
    )
    space = build_basis(n, (1, 1))
    exact = project_basis(f, space)
    points = sphere_sample_batch(n, 10, RngStream(seed=510))
    worst = 0.0
    all_ok = True
    for i, u in enumerate(points):
        est = project_character(f, space, u, 100_000, RngStream(seed=511, stream_id=i))
        gap = abs(est.mean - complex(exact.evaluate(u)))
        worst = max(worst, gap / (4 * est.stderr))
        if gap > 4 * est.stderr:
            all_ok = False
    assert _report(
        5,
        all_ok,
        "project_character == project_basis at 10 random points for a random "
        f"quadratic form + random (2,2) harmonic (n=3); worst gap {worst:.2f} of its 4se budget",
    )


def _twenty_operators():
    gen = np.random.default_rng(606)
    ops = []
    for i in range(20):
        n = DIMS[i % len(DIMS)]
        ops.append(_random_hermitian(n, gen))
    return ops


def test_criterion_06_reconstruction_exact_and_monte_carlo():
    exact_worst = 0.0
    for a in _twenty_operators():
        f = FrameFunction(operator=a)
        m_route = reconstruct_moment(f)
        h_route = reconstruct_harmonic(f)
        exact_worst = max(
            exact_worst,
            float(np.max(np.abs(m_route.entries - a))),
            float(np.max(np.abs(h_route.entries - a))),
        )
    exact_ok = exact_worst <= 1e-12

    mc_ok = True
    mc_worst = 0.0
    for i, a in enumerate(_twenty_operators()):
        f = FrameFunction(operator=a)
        op, se = reconstruct_moment(
            f, n_samples=1_000_000, rng=RngStream(seed=620, stream_id=i), return_stderr=True
        )
        frob = float(np.sqrt(np.sum(np.abs(op.entries - a) ** 2)))
        mc_worst = max(mc_worst, frob / (4 * se))
        if frob > 4 * se:
            mc_ok = False
    ok = exact_ok and mc_ok
    assert _report(
        6,
        ok,
        f"20 random Hermitian A: exact reconstruction max entry error {exact_worst:.2e} "
        f"(<= 1e-12) on both routes; Monte Carlo at 10^6 samples worst Frobenius error "
        f"{mc_worst:.2f} of its 4-stderr budget",
    )


def _quartic_negative_control():
    n = 3
    poly = BiDegreePolynomial.monomial(n, (2, 0, 0), (2, 0, 0))
    return FrameFunction(
        harmonic={j: project_basis(poly, build_basis(n, j)) for j in ((0, 0), (1, 1), (2, 2))}
    )


def test_criterion_07_frame_verification():
    operators_ok = True
    for i, a in enumerate(_twenty_operators()):
        res = check_frame_property(
            FrameFunction(operator=a), 100, tol=1e-8, rng=RngStream(seed=707, stream_id=i)
        )
        if not res.verdict:
            operators_ok = False

    control = _quartic_negative_control()
    control_res = check_frame_property(control, 100, tol=1e-8, rng=RngStream(seed=708))
    control_fails = not control_res.verdict

    report = frame_residual(control, 4, detail=True)
    exact_ok = report.components[BiDegree(2, 2)] == Fraction(1, 300) and report.norm_sq == Fraction(1, 300)

    ok = operators_ok and control_fails and exact_ok
    assert _report(
        7,
        ok,
        "check_frame_property passes all 20 operator forms (deviation <= 1e-8, 100 bases), "
        f"fails |z1|^4 (deviation {control_res.max_deviation:.3f}); frame_residual flags "
        f"(2,2) with exact value {report.components[BiDegree(2, 2)]}",
    )


def test_criterion_08_projected_components_have_zero_weight():
    n = 3
    space = build_basis(n, (1, 1))
    gen = np.random.default_rng(808)
    candidates = [FrameFunction(operator=_random_hermitian(n, gen)), _quartic_negative_control()]
    worst = 0.0
    for i, f in enumerate(candidates):
        f11 = project_basis(f, space)
        sums = basis_weight_sums(f11, 100, RngStream(seed=810, stream_id=i))
        worst = max(worst, float(np.max(np.abs(sums))))
    ok = worst <= 1e-8
    assert _report(
        8,
        ok,
        f"the (1,1) projection sums to W = 0 over 100 random bases; worst |W| = {worst:.2e} (<= 1e-8)",
    )


def test_criterion_09_real_functions_reconstruct_hermitian():
    worst = 0.0
    for a in _twenty_operators():
        f = FrameFunction(operator=a)  # Hermitian A <=> real-valued f
        for route in (reconstruct_moment, reconstruct_harmonic):
            m = route(f).entries
            worst = max(worst, float(np.max(np.abs(m - np.conj(m.T)))))
    ok = worst <= 1e-10
    assert _report(
        9,
        ok,
        f"real f reconstructs to Hermitian A in all 20 trials on both routes; "
        f"worst deviation {worst:.2e} (<= 1e-10)",
    )


def test_criterion_10_gleason_additivity():
    rng = RngStream(seed=1010)
    gen = rng.generator
    worst = 0.0
    for i, n in enumerate(DIMS):
        b = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
        rho = b @ np.conj(b.T)
        rho /= np.trace(rho).real
        for k, t in enumerate((OperatorMatrix(np.eye(n) / n), OperatorMatrix(rho))):
            res = gleason_additivity_check(t, 100, rng.child(10 * i + k))
            worst = max(worst, res.max_error)
    ok = worst <= 1e-10
    assert _report(
        10,
        ok,
        f"mu(P) = tr(TP) additive over 100 random partitions for unit-trace T, "
        f"n in {DIMS}; max error {worst:.2e} (<= 1e-10)",
    )


def test_criterion_11_strong_continuity_probe():
    n = 3
    gen = np.random.default_rng(1111)
    spaces = [(1, 1), (2, 0), (2, 1), (2, 2), (3, 1)]
    functions = [_random_harmonic(build_basis(n, j), gen) for j in spaces]
    generators = [_random_hermitian(n, gen) for _ in range(5)]

    def unitary_at(h, s):
        w, v = np.linalg.eigh(h)
        return v @ np.diag(np.exp(1j * s * w)) @ np.conj(v.T)

    def distance(f, g):
        moved = compose_with_linear(f, g)
        return float(np.sqrt(abs(norm_sq(moved - f))))

    decreasing = True
    ratios = []
    for f in functions:
        for h in generators:
            far = distance(f, unitary_at(h, 0.1))
            near = distance(f, unitary_at(h, 0.001))
            ratios.append(near / far if far else float("inf"))
            if not near < far:
                decreasing = False
    ok = decreasing
    assert _report(
        11,
        ok,
        "||f o g(s)^-1 - f||_2 decreases from s=0.1 to s=0.001 for 5 harmonic f x 5 "
        f"Hermitian generators; contraction ratios {min(ratios):.4f}..{max(ratios):.4f}",
    )
