import collections

import numpy as np
import pytest

import sumspaces as ss
from sumspaces.errors import HypothesisViolated

from conftest import multiset_distance, random_pair, random_subspace


def _poly_eval_matrix(coeffs, M):
    out = np.zeros_like(M)
    power = np.eye(M.shape[0], dtype=complex)
    for c in coeffs:
        out = out + c * power
        power = power @ M
    return out


def test_build_b_matches_direct_operator_formula(rng):
    for _ in range(10):
        H1, H2 = random_pair(rng, 2, 7)
        dec = ss.halmos_decompose(H1, H2)
        fs = [ss.ScalarFunction.from_poly(
            rng.normal(size=3) + 1j * rng.normal(size=3)) for _ in range(4)]
        P1, P2 = H1.projector(), H2.projector()
        direct = (P1 @ _poly_eval_matrix(fs[0].coefficients, P1 @ P2 @ P1)
                  + P2 @ _poly_eval_matrix(fs[1].coefficients, P2 @ P1 @ P2)
                  + P1 @ P2 @ _poly_eval_matrix(fs[2].coefficients, P2 @ P1 @ P2)
                  + P2 @ P1 @ _poly_eval_matrix(fs[3].coefficients, P1 @ P2 @ P1))
        b = ss.build_b(dec, *fs)
        assert np.linalg.norm(b - direct, 2) <= 1e-9


def test_spectrum_of_b_matches_dense_eigenvalues(rng):
    for _ in range(10):
        H1, H2 = random_pair(rng, 2, 7)
        dec = ss.halmos_decompose(H1, H2)
        fs = [ss.ScalarFunction.from_poly(rng.normal(size=4)) for _ in range(4)]
        b = ss.build_b(dec, *fs)
        dist = multiset_distance(np.linalg.eigvals(b), ss.spectrum_of_b(dec, *fs))
        assert dist <= 1e-7


def test_sum_of_projectors_special_case():
    # f1 = f2 = 1, f3 = f4 = 0 gives b = P1 + P2
    H1 = ss.from_spanning(np.array([[1.0], [0.0]]))
    H2 = ss.from_spanning(np.array([[1.0], [1.0]]))
    dec = ss.halmos_decompose(H1, H2)
    one = ss.ScalarFunction.constant(1.0)
    zero = ss.ScalarFunction.constant(0.0)
    b = ss.build_b(dec, one, one, zero, zero)
    assert np.linalg.norm(b - H1.projector() - H2.projector(), 2) <= 1e-12
    spec = np.sort(ss.spectrum_of_b(dec, one, one, zero, zero).real)
    assert np.allclose(spec, [1 - np.sqrt(0.5), 1 + np.sqrt(0.5)], atol=1e-12)


def test_calculus_criteria_margins(rng):
    H1, H2 = random_pair(rng, 3, 6)
    dec = ss.halmos_decompose(H1, H2)
    one = ss.ScalarFunction.constant(1.0)
    zero = ss.ScalarFunction.constant(0.0)
    rep = ss.calculus_criteria(dec, one, one, zero, zero)
    assert rep.entry("punctured_disk_margin").margin > 0
    assert rep.extras["sum_at_one_nonzero"]


def test_calculus_rejects_vanishing_F(rng):
    H1, H2 = random_pair(rng, 3, 6)
    dec = ss.halmos_decompose(H1, H2)
    # f1 vanishes at a grid point inside [0, 1), so F = f1 f2 does too
    f1 = ss.ScalarFunction.from_poly([-100.0 / 1001.0, 1.0])
    one = ss.ScalarFunction.constant(1.0)
    zero = ss.ScalarFunction.constant(0.0)
    with pytest.raises(HypothesisViolated):
        ss.calculus_criteria(dec, f1, one, zero, zero)


def test_scalar_function_constructors():
    f = ss.ScalarFunction.from_poly([1.0, 2.0])
    assert f(0.5) == pytest.approx(2.0)
    g = ss.ScalarFunction.from_callable(lambda x: np.cos(x))
    assert g(0.0) == pytest.approx(1.0)
    assert g.coefficients is None


def test_scalar_function_evaluates_arrays():
    x = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    cases = [(ss.ScalarFunction.from_callable(lambda t: 2.0), np.full(x.shape, 2.0)),
             (ss.ScalarFunction.from_callable(np.cos), np.cos(x)),
             (ss.ScalarFunction.from_poly([1.0, 2.0]), 1.0 + 2.0 * x)]
    for f, expected in cases:
        got = f(x)
        assert got.shape == x.shape and got.dtype == complex
        assert np.array_equal(got, expected)
        assert type(f(0.5)) is complex and type(f(x[0, 1])) is complex


def test_calculus_criteria_calls_each_function_a_fixed_number_of_times(rng):
    def counted(name, g, calls):
        def evaluator(x):
            calls[name] += 1
            return g(x)
        return ss.ScalarFunction.from_callable(evaluator)

    # F = (2 + x)(1 + x^2) - x sin(x) / 2 stays above 1 on [0, 1)
    functions = {"f1": lambda x: 2.0 + x, "f2": lambda x: 1.0 + x * x,
                 "f3": np.sin, "f4": lambda x: 0.5}
    counts = []
    for d, r in ((3, 1), (12, 6)):  # 1 and 6 generic angles: 1002 and 1007 points
        dec = ss.halmos_decompose(random_subspace(rng, d, r), random_subspace(rng, d, r))
        assert dec.k_dim == r
        calls = collections.Counter()
        fs = [counted(name, g, calls) for name, g in functions.items()]
        ss.calculus_criteria(dec, *fs)
        counts.append(calls)
    assert counts[0] == counts[1]
    assert max(counts[0].values()) <= 10
