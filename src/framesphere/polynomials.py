"""Bidegree-homogeneous polynomials on C^n.

A polynomial of bidegree (p, q) is a linear combination of monomials
z^alpha * conj(z)^beta with |alpha| = p and |beta| = q; it scales as
f(a*z) = a^p * conj(a)^q * f(z).  Terms are stored sparsely as a dict

    (alpha, beta) -> coefficient

with exponent tuples as keys and zero coefficients dropped, so equality of
dicts is equality of polynomials.  Coefficients are either exact
(``GaussianRational``/``Fraction``/``int``) or ``complex`` floats; operations
between two exact polynomials stay exact, anything mixed drops to floats.

The L2 inner product over the uniform sphere measure reduces termwise to
``measure.exact_monomial_moment`` and is therefore exact in the rational
regime.  Because restriction to the sphere identifies |z|^2 with 1, two
polynomials of different bidegrees are *not* automatically orthogonal: the
moment delta only forces the product to vanish when the charges p - q differ.

Batch evaluation has one path, ``PolynomialEvaluator``.  It compiles a list
of polynomials once: their monomials, with every ancestor, form a tree in
which each node is its parent times one coordinate z_i or one conjugate
conj(z_i), and the nodes are ordered by bidegree so that the polynomials of
one bidegree are a single dense coefficient block over one contiguous slice.
Each call fills the monomial table for ``EVAL_BLOCK`` (2048) points at a time
at one complex multiply per monomial and point, and evaluates each bidegree
as one matrix product.  A single dense matrix over all monomials would be
mostly zeros, since a polynomial only touches its own bidegree's slice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

import numpy as np

from .errors import ConfigurationError, ShapeMismatchError
from .exact import GaussianRational, conj_scalar, is_exact
from .measure import exact_monomial_moment


def _as_exponents(t, n: int, name: str) -> tuple[int, ...]:
    t = tuple(int(e) for e in t)
    if len(t) != n:
        raise ShapeMismatchError(f"{name} has length {len(t)}, expected n={n}")
    if any(e < 0 for e in t):
        raise ShapeMismatchError(f"{name} has negative exponents: {t}")
    return t


class BiDegreePolynomial:
    """Sparse polynomial of fixed bidegree (p, q) on C^n."""

    __slots__ = ("n", "p", "q", "terms")

    def __init__(self, n: int, p: int, q: int, terms=None):
        if n < 1:
            raise ShapeMismatchError(f"ambient dimension must be positive, got {n}")
        if p < 0 or q < 0:
            raise ShapeMismatchError(f"bidegree must be nonnegative, got ({p}, {q})")
        self.n = n
        self.p = p
        self.q = q
        clean = {}
        for (alpha, beta), c in (terms or {}).items():
            alpha = _as_exponents(alpha, n, "alpha")
            beta = _as_exponents(beta, n, "beta")
            if sum(alpha) != p or sum(beta) != q:
                raise ShapeMismatchError(
                    f"term {(alpha, beta)} violates bidegree ({p}, {q})"
                )
            if c != 0:
                clean[(alpha, beta)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, n: int, value) -> "BiDegreePolynomial":
        zero = (0,) * n
        return cls(n, 0, 0, {(zero, zero): value})

    @classmethod
    def monomial(cls, n: int, alpha, beta, coeff=1) -> "BiDegreePolynomial":
        alpha = tuple(alpha)
        beta = tuple(beta)
        return cls(n, sum(alpha), sum(beta), {(alpha, beta): coeff})

    @classmethod
    def from_quadratic_form(cls, matrix) -> "BiDegreePolynomial":
        """The bidegree-(1,1) polynomial z -> sum_kl conj(z_k) A_kl z_l.

        Accepts an ndarray (float regime) or a nested sequence of exact
        scalars (exact regime).
        """
        rows = [list(r) for r in matrix]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ShapeMismatchError("quadratic form matrix must be square")
        exact = all(is_exact(c) or isinstance(c, GaussianRational) for r in rows for c in r)
        terms = {}
        for k in range(n):
            for l in range(n):
                c = rows[k][l]
                if not exact:
                    c = complex(c)
                if c == 0:
                    continue
                alpha = tuple(1 if i == l else 0 for i in range(n))
                beta = tuple(1 if i == k else 0 for i in range(n))
                terms[(alpha, beta)] = c
        return cls(n, 1, 1, terms)

    # -- basic properties ----------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.terms.values())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, BiDegreePolynomial):
            return NotImplemented
        return (
            self.n == other.n
            and self.p == other.p
            and self.q == other.q
            and self.terms == other.terms
        )

    def __repr__(self):
        return (
            f"BiDegreePolynomial(n={self.n}, p={self.p}, q={self.q}, "
            f"{len(self.terms)} terms)"
        )

    # -- arithmetic -----------------------------------------------------------

    def _like(self, terms) -> "BiDegreePolynomial":
        return BiDegreePolynomial(self.n, self.p, self.q, terms)

    def __add__(self, other):
        if not isinstance(other, BiDegreePolynomial):
            return NotImplemented
        if (self.n, self.p, self.q) != (other.n, other.p, other.q):
            raise ShapeMismatchError(
                f"cannot add bidegree ({self.p},{self.q}) and ({other.p},{other.q}) polynomials"
            )
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, BiDegreePolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BiDegreePolynomial):
            if self.n != other.n:
                raise ShapeMismatchError("polynomial product needs matching ambient dimension")
            terms: dict = {}
            for (a1, b1), c1 in self.terms.items():
                for (a2, b2), c2 in other.terms.items():
                    key = (
                        tuple(x + y for x, y in zip(a1, a2)),
                        tuple(x + y for x, y in zip(b1, b2)),
                    )
                    terms[key] = terms.get(key, 0) + c1 * c2
            return BiDegreePolynomial(self.n, self.p + other.p, self.q + other.q, terms)
        return self._like({k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, z) -> complex:
        """Evaluate at a point (SpherePoint or coordinate array)."""
        coords = np.asarray(getattr(z, "coords", z), dtype=complex)
        if coords.shape != (self.n,):
            raise ShapeMismatchError(f"point has shape {coords.shape}, expected ({self.n},)")
        return complex(self.evaluate_batch(coords[None, :])[0])

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Values at each row of a (count, n) batch, via ``PolynomialEvaluator``."""
        return PolynomialEvaluator([self], self.n)(points)[0]


# ---------------------------------------------------------------------------
# batch evaluation
# ---------------------------------------------------------------------------

#: Points per feature block of ``PolynomialEvaluator``.  The monomial table of
#: one block stays in cache; much smaller blocks pay numpy call overhead and
#: one block of 2^16 points is slower again.
EVAL_BLOCK = 2048


def _tree_parent(alpha, beta):
    """The monomial one factor below z^alpha zbar^beta, and that factor.

    The factor is an index into the rows z_0..z_{n-1}, conj(z_0)..conj(z_{n-1}):
    conjugates are stripped first, from the last coordinate.
    """
    n = len(alpha)
    for exps, offset in ((beta, n), (alpha, 0)):
        for i in range(n - 1, -1, -1):
            if exps[i]:
                lower = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
                key = (alpha, lower) if offset else (lower, beta)
                return key, offset + i


class PolynomialEvaluator:
    """Evaluates a list of polynomials on point batches, sharing their monomials.

    Compiled once: every monomial z^alpha zbar^beta of the polynomials becomes
    a node of a tree, together with its ancestors, where each node is its
    parent times one coordinate z_i or one conjugate conj(z_i).  The nodes
    are ordered by bidegree (|alpha|, |beta|), which puts every parent before
    its children and each bidegree's monomials in one contiguous slice; the
    coefficients of the polynomials of one bidegree form one dense block over
    that slice.  A call fills the node table for at most ``EVAL_BLOCK`` points
    at a time (one complex multiply per node and point) and evaluates each
    bidegree's polynomials as one matrix product ``coeffs @ table[lo:hi]``.
    Exact coefficients are converted to complex.

    ``evaluator(points)`` takes a (count, n) batch and returns the values as
    shape (len(polys), count).
    """

    def __init__(self, polys, n: int):
        polys = list(polys)
        if any(poly.n != n for poly in polys):
            raise ShapeMismatchError(f"every polynomial must live on C^{n}")
        self.n = n
        self.count = len(polys)
        root = ((0,) * n, (0,) * n)
        parents = {root: (root, 0)}
        for poly in polys:
            for key in poly.terms:
                while key not in parents:
                    parents[key] = _tree_parent(*key)
                    key = parents[key][0]
        nodes = sorted(parents, key=lambda k: (_bidegree(k), k))  # the root comes first
        index = {key: i for i, key in enumerate(nodes)}

        # (lo, hi, parent rows, factor rows) per bidegree of the nodes after the root
        self._fill = []
        spans = {(0, 0): (0, 1)}
        lo = 1
        for bideg, group in groupby(nodes[1:], key=_bidegree):
            group = list(group)
            hi = lo + len(group)
            parent_rows = np.array([index[parents[k][0]] for k in group])
            factor_rows = np.array([parents[k][1] for k in group])
            self._fill.append((lo, hi, parent_rows, factor_rows))
            spans[bideg] = (lo, hi)
            lo = hi
        self._node_count = len(nodes)

        # one dense coefficient block per bidegree of the polynomials
        rows_of: dict = {}
        for row, poly in enumerate(polys):
            if poly.terms:
                rows_of.setdefault((poly.p, poly.q), []).append(row)
        self._blocks = []
        for bideg, rows in rows_of.items():
            lo, hi = spans[bideg]
            coeffs = np.zeros((len(rows), hi - lo), dtype=complex)
            for r, row in enumerate(rows):
                for key, c in polys[row].terms.items():
                    coeffs[r, index[key] - lo] = complex(c)
            self._blocks.append((np.array(rows), lo, hi, coeffs))

    def blocks(self, points):
        """Yield (rows, values) over consecutive blocks of at most EVAL_BLOCK points.

        ``values`` is this evaluator on ``points[rows]``, shape
        (len(polys), block size), in a buffer that the next block overwrites:
        folding each block into running sums keeps memory at one block
        however many points there are.
        """
        points = np.asarray(points, dtype=complex)
        if points.ndim != 2 or points.shape[1] != self.n:
            raise ShapeMismatchError(
                f"batch has shape {points.shape}, expected (count, {self.n})"
            )
        block_len = min(len(points), EVAL_BLOCK)
        table = np.empty((self._node_count, block_len), dtype=complex)
        values = np.zeros((self.count, block_len), dtype=complex)  # zero polynomials stay 0
        for start in range(0, len(points), EVAL_BLOCK):
            block = points[start : start + EVAL_BLOCK].T
            size = block.shape[1]
            factors = np.concatenate([block, np.conj(block)])
            feats = table[:, :size]
            feats[0] = 1.0
            for lo, hi, parent_rows, factor_rows in self._fill:
                np.multiply(feats[parent_rows], factors[factor_rows], out=feats[lo:hi])
            for poly_rows, lo, hi, coeffs in self._blocks:
                values[poly_rows, :size] = coeffs @ feats[lo:hi]
            yield slice(start, start + size), values[:, :size]

    def __call__(self, points) -> np.ndarray:
        out = np.zeros((self.count, np.shape(points)[0]), dtype=complex)
        for rows, values in self.blocks(points):
            out[:, rows] = values
        return out


def _bidegree(key) -> tuple:
    return sum(key[0]), sum(key[1])


def _polynomial_parts(f):
    """View ``f`` as a list of polynomials if it has one, else None."""
    if isinstance(f, BiDegreePolynomial):
        return [f]
    if isinstance(f, (list, tuple)) and all(isinstance(x, BiDegreePolynomial) for x in f):
        return list(f)
    parts = getattr(f, "polynomial_parts", None)
    if parts is not None:
        return list(parts() if callable(parts) else parts)
    return None


def batch_evaluator(f):
    """The batch function of ``f``: a (count, ...) sample batch -> (count,) values.

    ``f`` may expose ``evaluate_batch`` (used as is), be a polynomial or a
    list of polynomials (summed through one ``PolynomialEvaluator``), or be a
    plain callable applied to each sample in turn.
    """
    if hasattr(f, "evaluate_batch"):
        return lambda batch: np.asarray(f.evaluate_batch(batch), dtype=complex)
    parts = _polynomial_parts(f)
    if parts is not None:
        return lambda batch: PolynomialEvaluator(parts, np.shape(batch)[-1])(batch).sum(axis=0)
    if callable(f):
        return lambda batch: np.asarray([f(x) for x in batch], dtype=complex)
    raise ConfigurationError(f"cannot evaluate an object of type {type(f).__name__}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def apply_laplacian(poly: BiDegreePolynomial) -> BiDegreePolynomial:
    """Euclidean Laplacian on R^{2n} in Wirtinger form.

    Delta = 4 * sum_k d^2/(dz_k d conj(z_k)) termwise: the monomial
    z^alpha conj(z)^beta maps to 4 * sum_k alpha_k beta_k
    z^(alpha - e_k) conj(z)^(beta - e_k).  Exact coefficients stay exact.
    The result has bidegree (p-1, q-1); when p or q is zero it is the zero
    polynomial of bidegree (max(p-1,0), max(q-1,0)).
    """
    p_out, q_out = max(poly.p - 1, 0), max(poly.q - 1, 0)
    terms: dict = {}
    for (alpha, beta), c in poly.terms.items():
        for k in range(poly.n):
            if alpha[k] == 0 or beta[k] == 0:
                continue
            key = (
                tuple(a - 1 if i == k else a for i, a in enumerate(alpha)),
                tuple(b - 1 if i == k else b for i, b in enumerate(beta)),
            )
            terms[key] = terms.get(key, 0) + 4 * alpha[k] * beta[k] * c
    return BiDegreePolynomial(poly.n, p_out, q_out, terms)


def _matrix_rows(g, n: int):
    """Rows of a unitary matrix as lists of scalars, plus an exactness flag."""
    entries = getattr(g, "entries", g)
    if isinstance(entries, np.ndarray):
        if entries.shape != (n, n):
            raise ShapeMismatchError(f"matrix has shape {entries.shape}, expected ({n},{n})")
        return [[complex(x) for x in row] for row in entries], False
    rows = [list(r) for r in entries]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ShapeMismatchError("matrix shape does not match polynomial dimension")
    exact = all(is_exact(x) for r in rows for x in r)
    if not exact:
        rows = [[complex(x) for x in r] for r in rows]
    return rows, exact


def compose_with_linear(poly: BiDegreePolynomial, g, inverse: bool = True) -> BiDegreePolynomial:
    """The pullback of ``poly`` along a unitary: z -> poly(g^{-1} z).

    With ``inverse=True`` (the default) this is the group action
    (D(g) f)(z) = f(g^{-1} z); with ``inverse=False`` it is z -> poly(g z).
    The inverse is taken as the conjugate transpose, so ``g`` must be unitary.
    Exact matrices (nested sequences of rational scalars) keep the exact
    regime; ndarray input produces float coefficients.
    """
    rows, exact = _matrix_rows(g, poly.n)
    n = poly.n
    if inverse:
        rows = [[conj_scalar(rows[j][i]) for j in range(n)] for i in range(n)]

    one = GaussianRational(1) if exact and poly.is_exact else (1 + 0j)

    def linear_form(k, conjugated):
        # z_k o M = sum_j M_kj z_j  (or its conjugate for the anti part)
        out = {}
        for j in range(n):
            c = rows[k][j]
            if conjugated:
                c = conj_scalar(c)
            if c != 0:
                ek = tuple(1 if i == j else 0 for i in range(n))
                out[ek] = c
        return out

    def power_product(exponents, conjugated):
        # expand prod_k (linear form k)^(exponents[k]) as {exponent tuple: coeff}
        acc = {(0,) * n: one}
        for k, e in enumerate(exponents):
            if e == 0:
                continue
            form = linear_form(k, conjugated)
            for _ in range(e):
                nxt: dict = {}
                for mono, c in acc.items():
                    for ej, cj in form.items():
                        key = tuple(x + y for x, y in zip(mono, ej))
                        nxt[key] = nxt.get(key, 0) + c * cj
                acc = nxt
        return acc

    terms: dict = {}
    for (alpha, beta), c in poly.terms.items():
        hol = power_product(alpha, conjugated=False)
        anti = power_product(beta, conjugated=True)
        for a, ca in hol.items():
            for b, cb in anti.items():
                key = (a, b)
                terms[key] = terms.get(key, 0) + c * ca * cb
    return BiDegreePolynomial(n, poly.p, poly.q, terms)


def inner_product(a: BiDegreePolynomial, b: BiDegreePolynomial):
    """L2 inner product <a, b> over the uniform sphere measure.

    Conjugate-linear in the first argument.  Evaluates termwise through the
    exact monomial moments, so the result is exact (``GaussianRational``)
    when both polynomials are exact and ``complex`` otherwise.  Automatically
    zero when the charges p - q of the two polynomials differ.
    """
    if a.n != b.n:
        raise ShapeMismatchError("inner product needs matching ambient dimension")
    exact = a.is_exact and b.is_exact
    total = GaussianRational(0) if exact else (0 + 0j)
    # <z^a zbar^b, z^a' zbar^b'> = moment(b + a') when b + a' == a + b'
    if (a.p - a.q) != (b.p - b.q):
        return total
    for (alpha, beta), ca in a.terms.items():
        for (alpha2, beta2), cb in b.terms.items():
            left = tuple(x + y for x, y in zip(beta, alpha2))
            right = tuple(x + y for x, y in zip(alpha, beta2))
            if left != right:
                continue
            m = exact_monomial_moment(left, left, a.n)
            total = total + conj_scalar(ca) * cb * m
    return total


def _sum_inner(a: BiDegreePolynomial, parts):
    """<a, sum of parts>, accumulated part by part (exact when every input is)."""
    total = None
    for part in parts:
        value = inner_product(a, part)
        total = value if total is None else total + value
    return total


def norm_sq(a: BiDegreePolynomial):
    """Squared L2 norm; exact nonnegative rational in the exact regime."""
    v = inner_product(a, a)
    if isinstance(v, GaussianRational):
        return v.re
    if isinstance(v, complex):
        return v.real
    return Fraction(v)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _scalar_to_json(c):
    if isinstance(c, GaussianRational):
        return {"re": str(c.re), "im": str(c.im)}
    if is_exact(c):
        return {"re": str(Fraction(c)), "im": "0"}
    c = complex(c)
    return {"re": c.real, "im": c.imag}


def _scalar_from_json(d):
    re, im = d["re"], d["im"]
    if isinstance(re, str) and isinstance(im, str):
        return GaussianRational(Fraction(re), Fraction(im))
    return complex(float(re), float(im))


def poly_to_records(poly: BiDegreePolynomial) -> dict:
    """Canonical serialization: header plus terms sorted by exponent tuples.

    Exact coefficients are written as rational strings ("3/5"), float
    coefficients as JSON numbers, so the regime round-trips.
    """
    terms = []
    for (alpha, beta) in sorted(poly.terms):
        rec = {"alpha": list(alpha), "beta": list(beta)}
        rec.update(_scalar_to_json(poly.terms[(alpha, beta)]))
        terms.append(rec)
    return {"n": poly.n, "p": poly.p, "q": poly.q, "terms": terms}


def poly_from_records(data: dict) -> BiDegreePolynomial:
    terms = {}
    for rec in data["terms"]:
        key = (tuple(rec["alpha"]), tuple(rec["beta"]))
        terms[key] = _scalar_from_json(rec)
    return BiDegreePolynomial(int(data["n"]), int(data["p"]), int(data["q"]), terms)
