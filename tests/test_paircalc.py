import collections
import json
import re

import numpy as np
import pytest

import sumspaces as ss
from sumspaces.cli import main
from sumspaces.errors import HypothesisViolated

from conftest import _count_lapack, multiset_distance, random_pair, random_subspace


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


@pytest.mark.parametrize("k", [0, 10, 30])
def test_punctured_disk_margin_scales_with_b(k):
    # f = 2^k (0.1, 0.2, -0.3, 0): b's value on the meet H1&H2 is the round-off
    # f1(1) + f2(1) + f3(1) = 5.6e-17 * 2^k, which an absolute cutoff of 1e-8 read
    # as the punctured-disk margin, and as a nonzero sum at 1, at 2^30; measured
    # against ||b|| it is zero
    e = np.eye(4, dtype=complex)
    t = 0.7
    H2 = ss.Subspace(4, np.stack([e[:, 0], np.cos(t) * e[:, 1] + np.sin(t) * e[:, 2]], 1))
    pair = ss.halmos_decompose(ss.Subspace(4, e[:, :2]), H2)
    fs = [ss.ScalarFunction.constant(2.0 ** k * v) for v in (0.1, 0.2, -0.3, 0.0)]
    spectrum, rep = ss.calculus_report(pair, *fs)
    assert np.sort(np.abs(spectrum))[1] / 2.0 ** k == pytest.approx(5.551115123125783e-17)
    assert rep.margin("punctured_disk_margin") / 2.0 ** k \
        == pytest.approx(0.09110613904121714, rel=1e-12)
    assert rep.extras["sum_at_one_nonzero"] is False


def test_calculus_criteria_margins(rng):
    H1, H2 = random_pair(rng, 3, 6)
    dec = ss.halmos_decompose(H1, H2)
    one = ss.ScalarFunction.constant(1.0)
    zero = ss.ScalarFunction.constant(0.0)
    rep = ss.calculus_report(dec, one, one, zero, zero)[1]
    assert rep.entry("punctured_disk_margin").margin > 0
    assert rep.extras["sum_at_one_nonzero"]


def test_calculus_rejects_vanishing_F(rng):
    H1, H2 = random_pair(rng, 3, 6)
    dec = ss.halmos_decompose(H1, H2)
    planes = ss.halmos_decompose(random_subspace(rng, 6, 2), random_subspace(rng, 6, 2))
    one = ss.ScalarFunction.constant(1.0)
    zero = ss.ScalarFunction.constant(0.0)
    # f1 vanishes at a grid point inside [0, 1); between grid points; at a tangent
    # root (x - 0.3)^2; at a tangent root beside a large one, which the roots of
    # (|F|^2)' alone place 1e-5 off (F's own roots are needed); at a tangent root
    # beside a huge one, found only from the reversed polynomial's companion matrix
    tangent_and_large = 1000.0 * np.polynomial.polynomial.polyfromroots([0.5, 0.5, -1300.0])
    tangent_and_huge = [810000.0, -1799999.999999999, 999999.9999999983, 1e-09]
    for pair, coefficients, root in ((dec, [-100.0 / 1001.0, 1.0], 100.0 / 1001.0),
                                     (planes, [-0.5, 1000.0], 0.0005),
                                     (planes, [0.09, -0.6, 1.0], 0.3),
                                     (planes, tangent_and_large, 0.5),
                                     (planes, tangent_and_huge, 0.9)):
        f1 = ss.ScalarFunction.from_poly(coefficients)
        with pytest.raises(HypothesisViolated) as refused:
            ss.calculus_report(pair, f1, one, zero, zero)
        x = float(re.match(r"F\((.*?)\)", str(refused.value)).group(1))  # the x it names
        assert abs(x - root) <= 1e-4
    with pytest.raises(HypothesisViolated):  # F = 0
        ss.calculus_report(planes, zero, one, one, zero)
    with pytest.raises(ValueError, match="not finite"):  # F's coefficient 1e600 overflows
        ss.calculus_report(ss.halmos_decompose(H1, H1), *[
            ss.ScalarFunction.constant(1e300)] * 2, zero, zero)


def test_calculus_accepts_a_near_miss(rng):
    # |F| = (x - 0.3)^2 + 1e-6 >= 1e-6 on [0, 1), above margin_tol = 1e-8
    planes = ss.halmos_decompose(random_subspace(rng, 6, 2), random_subspace(rng, 6, 2))
    near = ss.ScalarFunction.from_poly([0.09 + 1e-6, -0.6, 1.0])
    one = ss.ScalarFunction.constant(1.0)
    zero = ss.ScalarFunction.constant(0.0)
    spectrum = ss.calculus_report(planes, near, one, zero, zero)[0]
    assert np.array_equal(spectrum, ss.spectrum_of_b(planes, near, one, zero, zero))


def test_scalar_function_constructors():
    f = ss.ScalarFunction.from_poly([1.0, 2.0])
    assert f(0.5) == pytest.approx(2.0)
    assert f.coefficients == [1.0, 2.0]


def test_scalar_function_evaluates_arrays():
    x = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    cubic = 1.0 + x * (-2.0 + x * (0.5j + x * 3.0))
    cases = [(ss.ScalarFunction.constant(2.0), np.full(x.shape, 2.0)),
             (ss.ScalarFunction.from_poly([1.0, -2.0, 0.5j, 3.0]), cubic),
             (ss.ScalarFunction.from_poly([1.0, 2.0]), 1.0 + 2.0 * x)]
    for f, expected in cases:
        got = f(x)
        assert got.shape == x.shape and got.dtype == complex
        assert np.array_equal(got, expected)
        assert type(f(0.5)) is complex and type(f(x[0, 1])) is complex


def test_calculus_criteria_calls_each_function_a_fixed_number_of_times(rng, monkeypatch):
    # F = (2 + x)(1 + x^2) - x^2 / 2 stays above 2 on [0, 1)
    fs = [ss.ScalarFunction.from_poly(c)
          for c in ([2.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0], [0.5])]
    names = {id(f.coefficients): f"f{i}" for i, f in enumerate(fs, start=1)}
    polyval, calls = np.polynomial.polynomial.polyval, collections.Counter()

    def counted(x, c, *args, **kwargs):  # F's own coefficients count as "F"
        calls[names.get(id(c), "F")] += 1
        return polyval(x, c, *args, **kwargs)

    monkeypatch.setattr(np.polynomial.polynomial, "polyval", counted)
    counts = []
    for d, r in ((3, 1), (12, 6)):  # 1 and 6 generic angles
        dec = ss.halmos_decompose(random_subspace(rng, d, r), random_subspace(rng, d, r))
        assert dec.k_dim == r
        calls.clear()
        ss.calculus_report(dec, *fs)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert set(counts[0]) == {"f1", "f2", "f3", "f4", "F"}
    assert max(counts[0].values()) <= 10


def test_calculus_request_factorization_counts(rng, tmp_path, monkeypatch):
    # d = 12: the two decode SVDs and the pair kernel's two, no SVD of the d x d b;
    # the F check takes companion eigenvalues of F and of (|F|^2)' from degree 2 on
    paths = []
    for name, r in (("a", 4), ("b", 5)):
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(ss.subspace_to_json(random_subspace(rng, 12, r)), fh)
    for f1, eigvals in (("1.5", 0), ("0.5,1,1", 2)):  # F = 0.7 f1 has no real root
        codes = []
        argv = ["calculus", "--a", paths[0], "--b", paths[1], f"--f1={f1}", "--f2", "0.7"]
        calls = _count_lapack(monkeypatch, lambda: codes.append(main(argv)))
        assert codes == [0]
        assert calls == {"svd_thin": 3, "svd": 1, **({"eigvals": eigvals} if eigvals else {})}
