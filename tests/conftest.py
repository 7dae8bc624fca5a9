"""The per-term polynomial evaluation loop, kept as the oracle for PolynomialEvaluator."""

import numpy as np
import pytest

from framesphere import frame, harmonics, polynomials


def _term_loop(poly, points):
    """Each term from its own coordinate powers: z^alpha zbar^beta, summed."""
    points = np.asarray(points, dtype=complex)
    out = np.zeros(points.shape[0], dtype=complex)
    conj = np.conj(points)
    for (alpha, beta), c in poly.terms.items():
        term = np.prod(points ** np.array(alpha), axis=1)
        term *= np.prod(conj ** np.array(beta), axis=1)
        out += complex(c) * term
    return out


class TermLoopEvaluator:
    """PolynomialEvaluator's interface over the per-term loop."""

    def __init__(self, polys, n):
        self.polys = list(polys)
        self.n = n
        self.count = len(self.polys)

    def __call__(self, points):
        points = np.asarray(points, dtype=complex)
        out = np.zeros((self.count, points.shape[0]), dtype=complex)
        for row, poly in enumerate(self.polys):
            out[row] = _term_loop(poly, points)
        return out

    def blocks(self, points):
        for start in range(0, len(points), polynomials.EVAL_BLOCK):
            rows = slice(start, start + polynomials.EVAL_BLOCK)
            yield rows, self(points[rows])


@pytest.fixture
def term_loop():
    return _term_loop


@pytest.fixture
def use_term_loop(monkeypatch):
    """Call to route every batch polynomial evaluation through the per-term loop."""

    def install():
        for module in (polynomials, frame, harmonics):
            monkeypatch.setattr(module, "PolynomialEvaluator", TermLoopEvaluator)

    return install
