"""Harmonic subspaces of L^2 on the complex unit sphere.

The space P^{p,q} of bidegree-(p, q) polynomials restricted to S^{2n-1}
contains the harmonic subspace H^n_{(p,q)} = P^{p,q} ∩ ker(Laplacian); these
subspaces are mutually orthogonal, irreducible under the unitary group, and
together span L^2 of the sphere.  Bases are built over exact rationals: the
Laplacian kernel is computed by exact row reduction and then orthogonalised
by Gram-Schmidt, so orthogonality and kernel membership are exact statements
about rational numbers.  Both steps run per charge block: the Laplacian and
the monomial Gram matrix only connect monomials z^a zbar^b with the same
charge a - b, so the row reduction of the whole matrix is the blockwise one
and every projection coefficient across blocks is exactly zero.  The blocked
basis is therefore identical to the unblocked one.  Unit normalisation
would leave the rational field (norms are rational, their square roots are
not), so each subspace stores exact orthogonal polynomials together with
their exact squared norms, and exposes the unit-normalised float basis as a
derived view.

Characters need no basis.  As U(n)-modules P^{p,q} = H_(p,q) + P^{p-1,q-1}
on the sphere, so under f -> f o g^{-1}

    chi_(p,q)(g) = conj(h_p(lambda)) h_q(lambda) - conj(h_{p-1}(lambda)) h_{q-1}(lambda)

with lambda the eigenvalues of g and h_k the complete homogeneous symmetric
polynomials (the conjugate sits on the holomorphic degree p, which sees
g^{-1} = g^dagger); this is the Jacobi-Trudi / Weyl character formula
(Fulton-Harris, Representation Theory, section 24; Macdonald, Symmetric
Functions, ch. I).  ``character_batch`` evaluates it from traces of matrix
powers; ``character``, the trace of the representation matrix by exact
quadrature, is its independent check.

Zonal polynomials R^n_{p,q} are generated by

    (1 - xi*z - eta*conj(z) + xi*eta)^(1-n) = sum_{p,q} R^n_{p,q}(z) xi^p eta^q

and computed two independent ways: a three-term recurrence in p (production
path) and direct Taylor expansion of the generating function (oracle); the
test suite requires the two tables to agree exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    ResourceGuardError,
    ShapeMismatchError,
)
from .exact import GaussianRational, conj_scalar, is_exact
from .measure import (
    MCEstimate,
    RngStream,
    _mc_feature_means,
    _mc_integrate,
    _require_dimension,
    exact_monomial_moment,
    haar_sample_batch,
)
from .polynomials import (
    BiDegreePolynomial,
    PolynomialEvaluator,
    _polynomial_parts,
    _sum_inner,
    batch_evaluator,
    compose_with_linear,
    inner_product,
)

#: Refuse to build bases whose ambient monomial space exceeds this size.
DEFAULT_MAX_MONOMIALS = 2000


class BiDegree(NamedTuple):
    p: int
    q: int


def _as_bidegree(j) -> BiDegree:
    p, q = j
    p, q = int(p), int(q)
    if p < 0 or q < 0:
        raise ShapeMismatchError(f"bidegree must be nonnegative, got ({p}, {q})")
    return BiDegree(p, q)


# ---------------------------------------------------------------------------
# dimensions and monomial bookkeeping
# ---------------------------------------------------------------------------


def _dim_poly_space(n: int, d: int) -> int:
    """dim of the degree-d polynomials in n variables; 0 for negative d."""
    if d < 0:
        return 0
    return math.comb(d + n - 1, n - 1)


def dimension(n: int, j) -> int:
    """Dimension of the harmonic subspace H^n_{(p,q)}.

    Equals dim P^{p,q} - dim P^{p-1,q-1} with dim P^{p,q} =
    C(p+n-1, n-1) * C(q+n-1, n-1); the test suite validates this closed form
    against explicit Laplacian kernel ranks.
    """
    _require_dimension(n)
    p, q = _as_bidegree(j)
    return _dim_poly_space(n, p) * _dim_poly_space(n, q) - _dim_poly_space(
        n, p - 1
    ) * _dim_poly_space(n, q - 1)


def bidegrees_up_to(j_max: int) -> list:
    """Every bidegree with p + q <= j_max, by total degree and then by p."""
    return [BiDegree(p, total - p) for total in range(j_max + 1) for p in range(total + 1)]


def reachable_bidegrees(parts) -> set:
    """The bidegrees whose harmonic components a sum of polynomials can have.

    On the sphere P^{a,b} = H_(a,b) + P^{a-1,b-1}, so a part of bidegree
    (a, b) only has components in H_(a-k, b-k), k >= 0; every other
    component is exactly zero and needs no basis.
    """
    return {
        BiDegree(part.p - k, part.q - k) for part in parts for k in range(min(part.p, part.q) + 1)
    }


@lru_cache(maxsize=None)
def _monomials(n: int, d: int) -> tuple:
    """All exponent tuples of length n summing to d, lexicographically sorted."""
    if d < 0:
        return ()
    if n == 1:
        return ((d,),)
    out = []
    for first in range(d + 1):
        for rest in _monomials(n - 1, d - first):
            out.append((first,) + rest)
    return tuple(sorted(out))


def _pair_monomials(n: int, p: int, q: int) -> list:
    return [(a, b) for a in _monomials(n, p) for b in _monomials(n, q)]


# ---------------------------------------------------------------------------
# exact Laplacian kernel
# ---------------------------------------------------------------------------


def _laplacian_rows(n: int, p: int, q: int):
    """Sparse integer matrix of the Laplacian P^{p,q} -> P^{p-1,q-1}.

    Rows are indexed by target monomials, columns by source monomials;
    entry 4 * alpha_k * beta_k sits at (source - e_k in both indices).
    """
    sources = _pair_monomials(n, p, q)
    targets = {m: i for i, m in enumerate(_pair_monomials(n, p - 1, q - 1))}
    rows = [dict() for _ in targets]
    for col, (alpha, beta) in enumerate(sources):
        for k in range(n):
            if alpha[k] == 0 or beta[k] == 0:
                continue
            tgt = (
                tuple(a - 1 if i == k else a for i, a in enumerate(alpha)),
                tuple(b - 1 if i == k else b for i, b in enumerate(beta)),
            )
            row = rows[targets[tgt]]
            row[col] = row.get(col, 0) + 4 * alpha[k] * beta[k]
    return rows, len(sources)


def _rref(rows, ncols: int):
    """In-place reduced row echelon form over Fractions; returns pivot list."""
    rows = [{c: Fraction(v) for c, v in r.items() if v} for r in rows]
    pivots = []
    pivot_of_row = 0
    for col in range(ncols):
        pivot = None
        for i in range(pivot_of_row, len(rows)):
            if rows[i].get(col):
                pivot = i
                break
        if pivot is None:
            continue
        rows[pivot_of_row], rows[pivot] = rows[pivot], rows[pivot_of_row]
        prow = rows[pivot_of_row]
        inv = 1 / prow[col]
        for c in list(prow):
            prow[c] *= inv
        for i, r in enumerate(rows):
            if i == pivot_of_row:
                continue
            factor = r.get(col)
            if not factor:
                continue
            for c, v in prow.items():
                nv = r.get(c, Fraction(0)) - factor * v
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
        pivots.append((pivot_of_row, col))
        pivot_of_row += 1
        if pivot_of_row == len(rows):
            break
    return rows, pivots


def laplacian_kernel_dim(n: int, j) -> int:
    """Kernel dimension of the Laplacian on P^{p,q}, by explicit row reduction."""
    _require_dimension(n)
    p, q = _as_bidegree(j)
    if p == 0 or q == 0:
        return _dim_poly_space(n, p) * _dim_poly_space(n, q)
    rows, ncols = _laplacian_rows(n, p, q)
    _, pivots = _rref(rows, ncols)
    return ncols - len(pivots)


# ---------------------------------------------------------------------------
# harmonic subspaces
# ---------------------------------------------------------------------------


class HarmonicSubspace:
    """An orthogonal basis of H^n_{(p,q)} over exact rationals.

    ``polys[m]`` are pairwise orthogonal with exact squared norms
    ``norms_sq[m]``; the unit-normalised basis Z_m = polys[m]/sqrt(norms_sq[m])
    is available as the float view ``basis``.
    """

    def __init__(self, n: int, j: BiDegree, polys, norms_sq):
        self.n = n
        self.j = _as_bidegree(j)
        self.polys = tuple(polys)
        self.norms_sq = tuple(Fraction(r) for r in norms_sq)
        if len(self.polys) != len(self.norms_sq):
            raise ShapeMismatchError("polys and norms_sq must have equal length")
        self._basis_float = None

    @property
    def dim(self) -> int:
        return len(self.polys)

    @property
    def basis(self) -> tuple:
        """Unit-normalised basis as float-coefficient polynomials."""
        if self._basis_float is None:
            normalised = []
            for poly, r in zip(self.polys, self.norms_sq):
                scale = 1.0 / math.sqrt(float(r))
                normalised.append(
                    BiDegreePolynomial(
                        poly.n,
                        poly.p,
                        poly.q,
                        {k: complex(c) * scale for k, c in poly.terms.items()},
                    )
                )
            self._basis_float = tuple(normalised)
        return self._basis_float

    def __repr__(self):
        return f"HarmonicSubspace(n={self.n}, j={tuple(self.j)}, dim={self.dim})"


def _charge(alpha, beta) -> tuple:
    return tuple(a - b for a, b in zip(alpha, beta))


def _block_basis(n: int, monos, rows):
    """Orthogonal basis of the Laplacian kernel within one charge block.

    ``monos`` are the block's pair monomials in global order and ``rows`` the
    block's Laplacian rows over local columns.  The kernel vectors come from
    the free columns of the exact RREF; they are orthogonalised by Gram-Schmidt
    against the block's own Gram matrix, whose entry <z^a zbar^b, z^a' zbar^b'>
    is the exact moment of b + a'.  Yields (free local column, vector, squared
    norm) in column order.
    """
    size = len(monos)
    rref_rows, pivots = _rref(rows, size)
    pivot_row = {col: row for row, col in pivots}
    if len(pivot_row) == size:
        return
    gram = []
    for _, beta in monos:
        gram_row = []
        for alpha2, _ in monos:
            m = tuple(x + y for x, y in zip(beta, alpha2))
            gram_row.append(exact_monomial_moment(m, m, n))
        gram.append(gram_row)
    ortho = []
    for fc in range(size):
        if fc in pivot_row:
            continue
        v = [Fraction(0)] * size
        v[fc] = Fraction(1)
        for pc, row in pivot_row.items():
            coeff = rref_rows[row].get(fc)
            if coeff:
                v[pc] = -coeff
        for u, gu, ru in ortho:
            # exact projection coefficient <u, v>/<u, u>; everything is real
            coeff = sum(g * x for g, x in zip(gu, v) if x) / ru
            if coeff:
                v = [x - coeff * y for x, y in zip(v, u)]
        gv = [sum(g * x for g, x in zip(gram_row, v) if x) for gram_row in gram]
        rv = sum(g * x for g, x in zip(gv, v) if x)
        if rv == 0:
            raise ShapeMismatchError("kernel vectors were not linearly independent")
        ortho.append((v, gv, rv))
        yield fc, v, rv


_BASIS_CACHE: dict = {}


def build_basis(n: int, j) -> HarmonicSubspace:
    """Construct an exact orthogonal basis of H^n_{(p,q)}.

    Computes the Laplacian kernel on P^{p,q} by exact row reduction and
    orthogonalises it by Gram-Schmidt in the exact L2 inner product, both one
    charge block at a time.  The Laplacian and the monomial Gram matrix are
    block-diagonal in the charge alpha - beta, so the RREF of the whole matrix
    is the blockwise RREF (same pivot columns, same kernel vectors) and every
    cross-block projection coefficient is exactly zero: the blocked result is
    the very basis the unblocked computation gives, with the kernel vectors
    taken in global free-column order.  Raises ``ResourceGuardError`` when
    dim P^{p,q} exceeds ``DEFAULT_MAX_MONOMIALS``.  Results are cached per (n, p, q).
    """
    _require_dimension(n)
    p, q = _as_bidegree(j)
    ambient = _dim_poly_space(n, p) * _dim_poly_space(n, q)
    if ambient > DEFAULT_MAX_MONOMIALS:
        raise ResourceGuardError(
            f"dim P^({p},{q}) = {ambient} exceeds the monomial bound {DEFAULT_MAX_MONOMIALS}"
        )
    key = (n, p, q)
    if key in _BASIS_CACHE:
        return _BASIS_CACHE[key]

    monos = _pair_monomials(n, p, q)
    blocks: dict = {}  # charge -> its global columns, in increasing order
    for idx, (alpha, beta) in enumerate(monos):
        blocks.setdefault(_charge(alpha, beta), []).append(idx)
    local = {gi: k for cols in blocks.values() for k, gi in enumerate(cols)}
    block_rows = {charge: [] for charge in blocks}
    for row in _laplacian_rows(n, p, q)[0]:
        # the Laplacian keeps the charge, so each row lies in one block
        alpha, beta = monos[next(iter(row))]
        block_rows[_charge(alpha, beta)].append({local[c]: v for c, v in row.items()})

    found = []
    for charge, cols in blocks.items():
        block_monos = [monos[i] for i in cols]
        for fc, v, rv in _block_basis(n, block_monos, block_rows[charge]):
            terms = {block_monos[i]: x for i, x in enumerate(v) if x}
            found.append((cols[fc], BiDegreePolynomial(n, p, q, terms), rv))
    found.sort(key=lambda item: item[0])

    space = HarmonicSubspace(n, (p, q), [f[1] for f in found], [f[2] for f in found])
    expected = dimension(n, (p, q))
    if space.dim != expected:
        raise ShapeMismatchError(
            f"kernel dimension {space.dim} disagrees with closed form {expected}"
        )
    _BASIS_CACHE[key] = space
    return space


# ---------------------------------------------------------------------------
# zonal polynomials
# ---------------------------------------------------------------------------


class ZonalPolynomial:
    """The zonal polynomial R^n_{p,q} in one complex variable.

    Stored as exact coefficients {(a, b): Fraction} of z^a * conj(z)^b; only
    exponents (p-k, q-k) occur.
    """

    __slots__ = ("n", "p", "q", "coeffs")

    def __init__(self, n: int, p: int, q: int, coeffs):
        self.n = n
        self.p = p
        self.q = q
        self.coeffs = {k: Fraction(v) for k, v in coeffs.items() if v}

    def at_one(self) -> Fraction:
        return sum(self.coeffs.values(), Fraction(0))

    def at_zero(self) -> Fraction:
        return self.coeffs.get((0, 0), Fraction(0))

    def __call__(self, w: complex) -> complex:
        w = complex(w)
        return sum(
            float(c) * w**a * np.conj(w) ** b for (a, b), c in self.coeffs.items()
        )

    def __eq__(self, other):
        if not isinstance(other, ZonalPolynomial):
            return NotImplemented
        return (self.n, self.p, self.q) == (other.n, other.p, other.q) and (
            self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"ZonalPolynomial(n={self.n}, p={self.p}, q={self.q}, {self.coeffs})"


def _shift(coeffs: dict, da: int, db: int) -> dict:
    return {(a + da, b + db): c for (a, b), c in coeffs.items()}


def _combine(*weighted) -> dict:
    out: dict = {}
    for weight, coeffs in weighted:
        if not weight:
            continue
        for k, c in coeffs.items():
            v = out.get(k, Fraction(0)) + weight * c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


@lru_cache(maxsize=None)
def _zonal_coeffs(n: int, p: int, q: int) -> tuple:
    """Zonal coefficient table via the recurrence

    p * R_{p,q} = (p+n-2) * (z * R_{p-1,q} - R_{p-1,q-1}) + p * conj(z) * R_{p,q-1}

    with R_{0,0} = 1 and R at any negative index equal to zero; the p = 0
    column follows from the xi <-> eta symmetry of the generating function,
    which swaps z with conj(z):  R_{0,q}(z) = R_{q,0}(conj(z)).
    """
    if p < 0 or q < 0:
        return ()
    if p == 0 and q == 0:
        return (((0, 0), Fraction(1)),)
    if p == 0:
        return tuple(((b, a), c) for (a, b), c in _zonal_coeffs(n, q, 0))
    prev_p = dict(_zonal_coeffs(n, p - 1, q))
    prev_pq = dict(_zonal_coeffs(n, p - 1, q - 1)) if q >= 1 else {}
    prev_q = dict(_zonal_coeffs(n, p, q - 1)) if q >= 1 else {}
    w = Fraction(p + n - 2, p)
    coeffs = _combine(
        (w, _shift(prev_p, 1, 0)),
        (-w, prev_pq),
        (Fraction(1), _shift(prev_q, 0, 1)),
    )
    return tuple(sorted(coeffs.items()))


def zonal_polynomial(n: int, j) -> ZonalPolynomial:
    """R^n_{p,q} computed by the three-term recurrence (exact coefficients)."""
    _require_dimension(n)
    p, q = _as_bidegree(j)
    return ZonalPolynomial(n, p, q, dict(_zonal_coeffs(n, p, q)))


def zonal_from_generating_function(n: int, j) -> ZonalPolynomial:
    """R^n_{p,q} by direct Taylor expansion of (1 - xi z - eta conj(z) + xi eta)^(1-n).

    Independent of the recurrence: uses the binomial series
    (1-u)^{-(n-1)} = sum_m C(n-2+m, m) u^m with u = xi z + eta conj(z) - xi eta
    and collects the coefficient of xi^p eta^q.  Serves as the oracle the
    recurrence is validated against.
    """
    _require_dimension(n)
    p, q = _as_bidegree(j)
    coeffs: dict = {}
    for k in range(min(p, q) + 1):
        i, jj = p - k, q - k
        m = i + jj + k
        c = (
            Fraction((-1) ** k)
            * math.comb(n - 2 + m, m)
            * Fraction(math.factorial(m), math.factorial(i) * math.factorial(jj) * math.factorial(k))
        )
        coeffs[(i, jj)] = c
    return ZonalPolynomial(n, p, q, coeffs)


def zonal_frame_sum(n: int, j) -> Fraction:
    """The exact selection-rule value R^n_j(1) + (n-1) * R^n_j(0).

    Summing the zonal harmonic with pole e_1 over the standard basis gives
    this number; it vanishes among j != (0,0) exactly at j = (1,1), which is
    why frame functions only see the constant and the (1,1) component.
    """
    r = zonal_polynomial(n, j)
    return r.at_one() + (n - 1) * r.at_zero()


def _unit_vector(t, n: int):
    coords = getattr(t, "coords", t)
    if isinstance(coords, np.ndarray) or not all(
        is_exact(c) or isinstance(c, GaussianRational) for c in coords
    ):
        arr = np.asarray(coords, dtype=complex)
        if arr.shape != (n,):
            raise ShapeMismatchError(f"expected a vector of length {n}, got shape {arr.shape}")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > 1e-12:
            raise ShapeMismatchError(f"pole vector must be unit norm; measured norm {norm!r}")
        return list(arr), False
    coords = list(coords)
    if len(coords) != n:
        raise ShapeMismatchError(f"expected a vector of length {n}, got {len(coords)}")
    norm_sq = sum(
        (c.re * c.re + c.im * c.im) if isinstance(c, GaussianRational) else Fraction(c) ** 2
        for c in coords
    )
    if norm_sq != 1:
        raise ShapeMismatchError(f"pole vector must be unit norm; norm^2 = {norm_sq}")
    return coords, True


def zonal_harmonic(n: int, j, t, u) -> complex:
    """Evaluate the zonal harmonic with pole ``t`` at the point ``u``.

    Both vectors must be unit norm.  The value is R^n_{p,q}(w) with the
    pairing w = sum_k u_k * conj(t_k), which is holomorphic of degree p in u,
    so the function of u lies in H^n_{(p,q)}.
    """
    _require_dimension(n)
    r = zonal_polynomial(n, j)
    tc, _ = _unit_vector(t, n)
    uc, _ = _unit_vector(u, n)
    w = complex(sum(complex(a) * np.conj(complex(b)) for a, b in zip(uc, tc)))
    return complex(r(w))


def zonal_harmonic_components(n: int, j, t) -> dict:
    """The zonal harmonic with pole ``t`` as polynomials in u, one per bidegree.

    R^n_{p,q}(w) with w = sum_k u_k conj(t_k) expands into terms of bidegree
    (p-k, q-k) in u; the returned dict maps each bidegree to its polynomial.
    Exact pole coordinates give exact coefficients.
    """
    _require_dimension(n)
    p, q = _as_bidegree(j)
    r = zonal_polynomial(n, (p, q))
    tc, exact = _unit_vector(t, n)
    if exact:
        tconj = [conj_scalar(GaussianRational(c) if not isinstance(c, GaussianRational) else c) for c in tc]
        one = GaussianRational(1)
    else:
        tconj = [np.conj(complex(c)) for c in tc]
        one = 1 + 0j
    zero = (0,) * n

    w_poly = BiDegreePolynomial(
        n,
        1,
        0,
        {
            (tuple(1 if i == k else 0 for i in range(n)), zero): tconj[k]
            for k in range(n)
            if tconj[k]
        },
    )
    wbar_poly = BiDegreePolynomial(
        n,
        0,
        1,
        {
            (zero, tuple(1 if i == k else 0 for i in range(n))): conj_scalar(tconj[k])
            for k in range(n)
            if tconj[k]
        },
    )

    def power(poly, e):
        acc = BiDegreePolynomial(n, 0, 0, {(zero, zero): one})
        for _ in range(e):
            acc = acc * poly
        return acc

    out: dict = {}
    for (a, b), c in r.coeffs.items():
        term = power(w_poly, a) * power(wbar_poly, b)
        term = term * (c if exact else float(c))
        key = BiDegree(a, b)
        out[key] = out[key] + term if key in out else term
    return out


# ---------------------------------------------------------------------------
# representation matrices and characters
# ---------------------------------------------------------------------------


def representation_matrix(space: HarmonicSubspace, g) -> np.ndarray:
    """Matrix of the action f -> f o g^{-1} on the unit-normalised basis.

    Entry (m, m') is <Z_m, Z_{m'} o g^{-1}>, evaluated by exact quadrature of
    the composed polynomials; the result is unitary to float precision.
    """
    basis = space.basis
    dim = space.dim
    out = np.zeros((dim, dim), dtype=complex)
    composed = [compose_with_linear(bp, g, inverse=True) for bp in basis]
    for m in range(dim):
        for mp in range(dim):
            out[m, mp] = complex(inner_product(basis[m], composed[mp]))
    return out


def character(space: HarmonicSubspace, g) -> complex:
    """Trace of the representation matrix at g, by exact quadrature.

    Sums the diagonal entries <Z_m, Z_m o g^{-1}> of ``representation_matrix``
    without forming the rest of it: dim quadratures instead of dim^2.  Uses
    the basis, so it is an independent check on ``character_batch``.
    """
    diagonal = (inner_product(z_m, compose_with_linear(z_m, g, inverse=True)) for z_m in space.basis)
    return sum((complex(d) for d in diagonal), 0j)


def _complete_symmetric_batch(gs: np.ndarray, d: int) -> list:
    """h_0, ..., h_d of the eigenvalues of each matrix in the batch.

    Takes the power sums p_k = tr(g^k) from batched matrix powers and solves
    Newton's identities k h_k = sum_{i=1..k} p_i h_{k-i}, starting from
    h_0 = 1 exactly.
    """
    h = [np.ones(gs.shape[0], dtype=complex)]
    power_sums = []
    gk = gs
    for k in range(1, d + 1):
        if k > 1:
            gk = gk @ gs
        power_sums.append(np.trace(gk, axis1=1, axis2=2))
        h.append(sum(power_sums[i - 1] * h[k - i] for i in range(1, k + 1)) / k)
    return h


def character_batch(space: HarmonicSubspace, gs: np.ndarray) -> np.ndarray:
    """Characters tr D^j(g) for a batch of unitaries, from their eigenvalues.

    As U(n)-modules P^{p,q} = H_(p,q) + P^{p-1,q-1} on the sphere (the fact
    behind ``dimension``), and P^{p,q} is the tensor product of the degree-p
    holomorphic and degree-q antiholomorphic polynomials.  Under
    f -> f o g^{-1} the holomorphic part sees the eigenvalues of
    g^{-1} = g^dagger, the conjugates of the eigenvalues lambda of g, and the
    antiholomorphic part sees lambda itself.  Hence

        chi_(p,q)(g) = conj(h_p(lambda)) h_q(lambda)
                       - conj(h_{p-1}(lambda)) h_{q-1}(lambda),

    with h_k the complete homogeneous symmetric polynomial and the second
    term absent when p = 0 or q = 0: the Jacobi-Trudi / Weyl character
    formula (Fulton-Harris, Representation Theory, section 24; Macdonald,
    Symmetric Functions, ch. I).  chi_(0,0) is exactly 1.  Agrees with the
    quadrature oracle ``character`` (tested); used for Schur statistics and
    the character projection, where one character per Haar sample is needed.
    """
    gs = np.asarray(gs, dtype=complex)
    if gs.ndim == 2:
        gs = gs[None]
    n, (p, q) = space.n, space.j
    if gs.shape[1:] != (n, n):
        raise ShapeMismatchError(f"expected unitaries of shape ({n},{n}), got {gs.shape[1:]}")
    h = _complete_symmetric_batch(gs, max(p, q))
    chi = np.conj(h[p]) * h[q]
    if p and q:
        chi -= np.conj(h[p - 1]) * h[q - 1]
    return chi


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def project_basis(
    f,
    space: HarmonicSubspace,
    n_samples: int | None = None,
    rng: RngStream | None = None,
) -> BiDegreePolynomial:
    """Orthogonal projection of ``f`` onto the subspace, in the basis route.

    f_j = sum_m <Z_m, f> Z_m.  With ``n_samples`` unset the inner products
    are exact quadrature (f must be a polynomial or a sum of polynomials;
    exact inputs give exact outputs since the square roots of the basis norms
    cancel).  With ``n_samples`` set the coefficients are Monte Carlo
    estimates over ``n_samples`` sphere points shared across the basis.
    """
    if n_samples is None:
        parts = _polynomial_parts(f)
        if parts is None:
            raise ConfigurationError(
                "exact projection needs a polynomial input; pass n_samples for Monte Carlo"
            )
        zero = BiDegreePolynomial(space.n, space.j.p, space.j.q, {})
        result = zero
        for v, r in zip(space.polys, space.norms_sq):
            coeff = _sum_inner(v, parts) / r
            if not (isinstance(coeff, complex) and coeff == 0):
                result = result + v * coeff
        return result
    evaluator = PolynomialEvaluator(space.basis, space.n)
    means, _ = _mc_feature_means(f, evaluator, space.n, n_samples, rng)
    result = BiDegreePolynomial(space.n, space.j.p, space.j.q, {})
    for z_m, coeff in zip(space.basis, means):
        result = result + z_m * complex(coeff)
    return result


def project_character(
    f,
    space: HarmonicSubspace,
    u,
    n_samples: int,
    rng: RngStream,
) -> MCEstimate:
    """Group-averaged projection evaluated at the point ``u``.

    Estimates dim(H_j) * int tr(conj D^j(g)) f(g^{-1} u) dHaar(g) by Monte
    Carlo; for f in L^2 this equals the basis-route projection evaluated at
    u.  Returns the estimate with its standard error.
    """
    u_coords = np.asarray(getattr(u, "coords", u), dtype=complex)
    if u_coords.shape != (space.n,):
        raise ShapeMismatchError(f"point has shape {u_coords.shape}, expected ({space.n},)")
    evaluate = batch_evaluator(f)
    dim = space.dim

    class _Integrand:
        def evaluate_batch(self, gs):
            chi = np.conj(character_batch(space, gs))
            pts = np.einsum("sji,j->si", np.conj(gs), u_coords)
            return dim * chi * evaluate(pts)

    return _mc_integrate(_Integrand(), space.n, n_samples, rng, haar_sample_batch)
