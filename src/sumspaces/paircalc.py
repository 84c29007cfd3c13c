"""Function calculus for two projections.

For continuous f1..f4 on [0,1] the operator

    b = P1 f1(P1P2P1) + P2 f2(P2P1P2) + P1P2 f3(P2P1P2) + P2P1 f4(P1P2P1)

acts blockwise on the canonical components of the pair, and on the generic
part its spectrum is governed by the scalar polynomials

    T(x) = f1 + f2 + x (f3 + f4),
    D(x) = (1 - x)(f1 f2 - x f3 f4),
    F(x) = f1 f2 - x f3 f4,

through the roots of lambda^2 - T(x) lambda + D(x) = 0 over x in sigma(a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated
from .numerics import DEFAULT_TOL, Tolerances, smallest_nonzero_singular_value
from .pairs import PairDecomposition
from .reports import MarginReport


@dataclass
class ScalarFunction:
    """A continuous complex-valued function on [0, 1], with its polynomial
    coefficients (ascending) when it has them; only those serialize.

    A scalar argument gives a Python complex.  An array gives a complex
    array of its shape from one evaluator call, which receives the ndarray
    (one ``polyval`` for a polynomial); a scalar result is broadcast.
    """

    evaluator: object
    coefficients: list | None = None

    def __call__(self, x):
        if np.ndim(x) == 0:
            return complex(self.evaluator(x))
        return np.broadcast_to(self.evaluator(np.asarray(x)), np.shape(x)).astype(complex)

    @classmethod
    def from_poly(cls, coefficients) -> "ScalarFunction":
        coeffs = [complex(c) for c in coefficients]
        return cls(lambda x: np.polynomial.polynomial.polyval(x, coeffs), coeffs)

    @classmethod
    def constant(cls, c) -> "ScalarFunction":
        return cls.from_poly([c])

    @classmethod
    def from_callable(cls, f) -> "ScalarFunction":
        return cls(f, None)


def _component_values(fs):
    """Spectrum contributions of the four flat components
    H1&H2, H1&H2', H1'&H2 and H1'&H2'."""
    f1, f2, f3, f4 = fs
    return [f1(1.0) + f2(1.0) + f3(1.0) + f4(1.0), f1(0.0), f2(0.0), 0.0 + 0.0j]


def build_b(pair: PairDecomposition, f1, f2, f3, f4) -> np.ndarray:
    """Assemble b blockwise on the canonical components."""
    fs = (f1, f2, f3, f4)
    d = pair.ambient_dim
    b = np.zeros((d, d), dtype=complex)
    both, first_only, second_only, _ = _component_values(fs)
    b += both * pair.both.projector()
    b += first_only * pair.first_only.projector()
    b += second_only * pair.second_only.projector()

    r = pair.k_dim
    if r:
        x = pair.a_eigenvalues
        cs, s2 = pair.cosines * pair.sines, pair.sines ** 2
        fx = [f(x) for f in fs]
        top_left = fx[0] + x * (fx[1] + fx[2] + fx[3])
        top_right = cs * (fx[1] + fx[2])
        bot_left = cs * (fx[1] + fx[3])
        bot_right = s2 * fx[1]
        Q1, Q2 = pair.k_basis_1, pair.k_basis_2
        b += (Q1 * top_left) @ Q1.conj().T
        b += (Q1 * top_right) @ Q2.conj().T
        b += (Q2 * bot_left) @ Q1.conj().T
        b += (Q2 * bot_right) @ Q2.conj().T
    return b


def spectrum_of_b(pair: PairDecomposition, f1, f2, f3, f4) -> np.ndarray:
    """Analytic spectrum of b as a multiset of complex values.

    Flat components contribute their scalar values; each generic eigenvalue x
    of a contributes the two roots of lambda^2 - T(x) lambda + D(x) = 0.
    """
    counts = (pair.both.dim, pair.first_only.dim,
              pair.second_only.dim, pair.neither_dim)
    fs = (f1, f2, f3, f4)
    flat = np.repeat(np.array(_component_values(fs), dtype=complex), counts)
    x = pair.a_eigenvalues
    f1x, f2x, f3x, f4x = (f(x) for f in fs)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        T = f1x + f2x + x * (f3x + f4x)
        D = (1.0 - x) * (f1x * f2x - x * f3x * f4x)
    bad = np.flatnonzero(~(np.isfinite(T) & np.isfinite(D)))
    if len(bad):
        i = bad[0]
        raise ValueError(f"T(x) = {T[i]} or D(x) = {D[i]} is not finite at x = {x[i]}")
    return np.concatenate([flat, _quadratic_roots(T, D).ravel()])


def _quadratic_roots(T, D):
    """Roots of lambda^2 - T lambda + D = 0 per entry, as rows (q, D/q), by
    the stable quadratic formula: q = (T + sigma sqrt(T^2 - 4D))/2 with the
    sign sigma that makes |q| largest.  T^2 - 4D is formed after dividing by
    max(|T|, sqrt|D|)^2, so it cannot overflow."""
    scale = np.maximum(np.abs(T), np.sqrt(np.abs(D)))
    scale[scale == 0] = 1.0  # then T = D = 0 gives q = 0, and both roots are 0
    t = T / scale
    root = np.sqrt(t * t - 4.0 * (D / scale) / scale)
    plus, minus = t + root, t - root
    q = scale * np.where(np.abs(plus) >= np.abs(minus), plus, minus) / 2.0
    return np.stack([q, np.divide(D, q, out=np.zeros_like(q), where=q != 0)], axis=-1)


def calculus_criteria(pair: PairDecomposition, f1, f2, f3, f4,
                      tol: Tolerances = DEFAULT_TOL) -> MarginReport:
    """Closedness/invertibility margins of Im(b).

    Requires F(x) = f1 f2 - x f3 f4 nonzero on [0, 1); checked on a
    1001-point uniform grid plus sigma(a).  Pathologies between grid points
    are the caller's responsibility.
    """
    points = np.concatenate([np.linspace(0.0, 1.0, 1001, endpoint=False), pair.a_eigenvalues])
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite F does not vanish
        F = f1(points) * f2(points) - points * f3(points) * f4(points)
    vanishing = np.flatnonzero(np.abs(F) <= tol.margin_tol)
    if len(vanishing):
        i = vanishing[0]
        raise HypothesisViolated(f"F({points[i]}) = {complex(F[i])} vanishes on [0,1)")

    spectrum = spectrum_of_b(pair, f1, f2, f3, f4)
    report = MarginReport()
    nonzero = np.abs(spectrum)[np.abs(spectrum) > 100 * tol.eig_tol]
    report.add("punctured_disk_margin",
               float(nonzero.min()) if len(nonzero) else 1.0,
               tol.margin_tol, vacuous=len(nonzero) == 0)
    if len(spectrum):
        report.add("invertibility_margin", float(np.abs(spectrum).min()), tol.margin_tol)
    else:
        report.add("invertibility_margin", 1.0, tol.margin_tol, vacuous=True)
    s11 = _component_values((f1, f2, f3, f4))[0]
    report.extras["sum_at_one_nonzero"] = bool(abs(s11) > tol.margin_tol)

    b = build_b(pair, f1, f2, f3, f4)
    sv = smallest_nonzero_singular_value(b, tol)
    report.add("closed_range_margin", sv, tol.margin_tol, vacuous=np.isinf(sv))
    return report
