"""Function calculus for two projections.

For polynomials f1..f4 on [0,1] the operator

    b = P1 f1(P1P2P1) + P2 f2(P2P1P2) + P1P2 f3(P2P1P2) + P2P1 f4(P1P2P1)

is a direct sum over the canonical components of the pair (Halmos): a scalar
on each flat component and, per generic x in sigma(a), a 2x2 block with trace
and determinant

    T(x) = f1 + f2 + x (f3 + f4),    D(x) = (1 - x) F(x),    F(x) = f1 f2 - x f3 f4,

so ``calculus_report`` takes the spectrum (the roots of lambda^2 - T lambda + D)
and every margin from one pass over the blocks, with no d x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated
from .numerics import DEFAULT_TOL, Tolerances, numerical_rank, polynomial_roots
from .pairs import PairDecomposition
from .reports import MarginReport


@dataclass
class ScalarFunction:
    """A complex polynomial on [0, 1], by its coefficients (ascending).

    A scalar argument gives a Python complex, an array a complex array of
    its shape, from one ``polyval``.
    """

    coefficients: list

    def __call__(self, x):
        y = np.polynomial.polynomial.polyval(x, self.coefficients)
        return complex(y) if np.ndim(x) == 0 else y

    @classmethod
    def from_poly(cls, coefficients) -> "ScalarFunction":
        return cls([complex(c) for c in coefficients])

    @classmethod
    def constant(cls, c) -> "ScalarFunction":
        return cls.from_poly([c])


def _blocks(pair: PairDecomposition, fs):
    """b's scalars on H1&H2, H1&H2', H1'&H2, H1'&H2' and, repeated by dimension,
    ``flat``; b's 2x2 block per generic x (rows tl, tr, bl, br), its determinant
    D, and the spectrum of b.  ValueError where any of them is not finite."""
    f1, f2, f3, f4 = fs
    values = [f1(1.0) + f2(1.0) + f3(1.0) + f4(1.0), f1(0.0), f2(0.0), 0.0 + 0.0j]
    flat = np.repeat(np.array(values, dtype=complex), (
        pair.both.dim, pair.first_only.dim, pair.second_only.dim, pair.neither_dim))
    x = pair.a_eigenvalues
    cs = pair.cosines * pair.sines
    f1x, f2x, f3x, f4x = (f(x) for f in fs)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        block = np.array([f1x + x * (f2x + f3x + f4x), cs * (f2x + f3x),
                          cs * (f2x + f4x), pair.sines ** 2 * f2x])
        T = f1x + f2x + x * (f3x + f4x)
        D = (1.0 - x) * (f1x * f2x - x * f3x * f4x)
    finite = np.isfinite(np.vstack([block, T, D])).all(axis=0)
    if not (finite.all() and np.isfinite(flat).all()):
        raise ValueError(f"b is not finite: at x in {x[~finite]} or in the values {values}")
    return values, flat, block, D, np.concatenate([flat, _quadratic_roots(T, D).ravel()])


def build_b(pair: PairDecomposition, f1, f2, f3, f4) -> np.ndarray:
    """Assemble b blockwise on the canonical components."""
    values, _, block, _, _ = _blocks(pair, (f1, f2, f3, f4))
    flats = (pair.both, pair.first_only, pair.second_only)
    b = sum(v * S.projector() for v, S in zip(values, flats))
    Q = np.hstack([pair.k_basis_1, pair.k_basis_2])
    tl, tr, bl, br = map(np.diag, block)
    return b + Q @ np.block([[tl, tr], [bl, br]]) @ Q.conj().T


def spectrum_of_b(pair: PairDecomposition, f1, f2, f3, f4) -> np.ndarray:
    """Analytic spectrum of b as a multiset of complex values.

    Flat components contribute their scalar values; each generic eigenvalue x
    of a contributes the two roots of lambda^2 - T(x) lambda + D(x) = 0.
    """
    return _blocks(pair, (f1, f2, f3, f4))[-1]


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


def _block_singular_values(block, D):
    """Both singular values of each 2x2 block from its squared Frobenius norm N
    and |det| = |D|: sigma_max^2 = (N + sqrt(N^2 - 4|D|^2))/2 and sigma_min =
    |D|/sigma_max, on entries scaled by the largest so nothing overflows."""
    scale = np.abs(block).max(axis=0, initial=0.0)
    scale[scale == 0] = 1.0  # a zero block: N = D = 0
    n, det = (np.abs(block / scale) ** 2).sum(axis=0), np.abs(D) / scale / scale
    top = np.sqrt((n + np.sqrt(np.maximum(n * n - 4.0 * det * det, 0.0))) / 2.0)
    return scale * top, scale * np.divide(det, top, out=np.zeros_like(top), where=top > 0)


def _check_F(fs, tol: Tolerances) -> None:
    """HypothesisViolated where |F| <= margin_tol on [0, 1), decided exactly: min |F|
    on [0, 1) is at 0 or at a root of (|F|^2)', so 0 and the real parts in [0, 1) of
    those roots are checked, and of F's own (accurate where they are multiple), with F
    scaled to a largest |coefficient| of 1 so |F|^2 cannot overflow."""
    f1, f2, f3, f4 = (f.coefficients for f in fs)
    P = np.polynomial.polynomial
    with np.errstate(over="ignore", invalid="ignore"):  # refused or harmless
        c = P.polysub(P.polymul(f1, f2), P.polymulx(P.polymul(f3, f4)))
        if not np.isfinite(c).all():
            raise ValueError(f"F = f1 f2 - x f3 f4 is not finite: coefficients {c}")
        scale = np.abs(c).max() or 1.0  # F = 0 is refused at x = 0 below
        c = c / scale
        dG = P.polyder(P.polymul(c, c.conj()).real)  # (|F|^2)' on the real line
        z = np.concatenate([polynomial_roots(c), polynomial_roots(dG)]).real
        points = np.concatenate([[0.0], z[(z >= 0.0) & (z < 1.0)]])
        F = scale * P.polyval(points, c)
    vanishing = np.flatnonzero(np.abs(F) <= tol.margin_tol)
    if len(vanishing):
        i = vanishing[0]
        raise HypothesisViolated(f"F({points[i]}) = {complex(F[i])} vanishes on [0,1)")


def calculus_report(pair: PairDecomposition, f1, f2, f3, f4,
                    tol: Tolerances = DEFAULT_TOL):
    """(spectrum of b, margins of Im(b)) from one pass over b's blocks; F must not
    vanish on [0, 1).  b's singular values are the |values| on the flat components
    and each block's closed-form pair, cut at ``numerical_rank``; the punctured disk's
    descending |spectrum| and b's value on H1&H2 are cut there too, at the scale ||b|| = sv[0]."""
    values, flat, block, D, spectrum = _blocks(pair, (f1, f2, f3, f4))
    _check_F((f1, f2, f3, f4), tol)
    report = MarginReport()
    modulus = np.sort(np.abs(spectrum))[::-1]
    sv = np.sort(np.concatenate([np.abs(flat), *_block_singular_values(block, D)]))[::-1]
    for name, kept in (("punctured_disk_margin", modulus[:numerical_rank(modulus, tol, sv[0])]),
                       ("invertibility_margin", modulus),
                       ("closed_range_margin", sv[:numerical_rank(sv, tol)])):
        report.add(name, float(kept.min()) if len(kept) else 1.0, tol.margin_tol,
                   vacuous=len(kept) == 0)
    report.extras["sum_at_one_nonzero"] = bool(numerical_rank(np.abs(values[:1]), tol, sv[0]))
    return spectrum, report


def calculus_criteria(pair: PairDecomposition, f1, f2, f3, f4,
                      tol: Tolerances = DEFAULT_TOL) -> MarginReport:
    """Closedness/invertibility margins of Im(b), from ``calculus_report``."""
    return calculus_report(pair, f1, f2, f3, f4, tol)[1]
