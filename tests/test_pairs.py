import json

import numpy as np
import pytest

import sumspaces as ss
from sumspaces.cli import main

from conftest import _count_lapack, random_pair, random_subspace


def test_decomposition_components_are_orthogonal(rng):
    for _ in range(20):
        H1, H2 = random_pair(rng, 3, 9)
        dec = ss.halmos_decompose(H1, H2)
        frame = np.hstack([dec.both.basis, dec.first_only.basis,
                           dec.second_only.basis, dec.k_basis_1, dec.k_basis_2])
        assert frame.shape[1] + dec.neither_dim == H1.ambient_dim
        gram = frame.conj().T @ frame
        assert np.linalg.norm(gram - np.eye(frame.shape[1]), 2) <= 1e-10


def _planted_meet_pair(rng, d, m, r1, r2):
    """H1, H2 sharing the m leading columns of a random unitary; the rest of
    each is a random combination of the next r1 + r2 columns, so the last
    d - m - r1 - r2 columns lie in H1'&H2'."""
    Q = random_subspace(rng, d, d).basis
    rest = Q[:, m:m + r1 + r2]
    H1 = ss.from_spanning(np.hstack([Q[:, :m], rest @ rng.normal(size=(r1 + r2, r1))]))
    H2 = ss.from_spanning(np.hstack([Q[:, :m], rest @ rng.normal(size=(r1 + r2, r2))]))
    return H1, H2


def test_neither_dim_is_codimension_of_the_sum(rng):
    pairs = [random_pair(rng, 2, 12) for _ in range(20)]
    for _ in range(20):  # planted meets, most with r1 + r2 > d
        d = int(rng.integers(3, 12))
        m = int(rng.integers(1, d))
        r1 = int(rng.integers(0, d - m + 1))
        r2 = int(rng.integers(0, d - m - r1 + 1))
        pairs.append(_planted_meet_pair(rng, d, m, r1, r2))
    assert sum(H1.dim + H2.dim > H1.ambient_dim for H1, H2 in pairs) >= 10
    for H1, H2 in pairs:
        dec = ss.halmos_decompose(H1, H2)
        assert dec.neither_dim == H1.ambient_dim - ss.sum_span([H1, H2]).dim
    # with rank_tol below rounding the meet reads as generic; the sum is all of C^6
    H1, H2 = _planted_meet_pair(rng, 6, 3, 2, 1)
    assert ss.halmos_decompose(H1, H2, ss.Tolerances(rank_tol=1e-30)).neither_dim == 0


def _planted_meet_with_sine_svd():
    # meets on both sides: dim(H1&H2) = 2 and dim(H1'&H2') = 2 in C^9, so
    # the kernels need their sine SVD
    H1, H2 = _planted_meet_pair(np.random.default_rng(5), 9, 2, 3, 2)
    assert ss.intersect(H1, H2).dim == 2
    assert ss.intersect(ss.complement(H1), ss.complement(H2)).dim == 2
    return H1, H2


def test_full_svd_counts_on_a_planted_meet(monkeypatch):
    H1, H2 = _planted_meet_with_sine_svd()
    # principal_pairs: a full cosine SVD and a thin sine SVD and nothing else;
    # no frame for H1'&H2', no d x d eigensolve, SVD or norm
    assert _count_lapack(monkeypatch, ss.halmos_decompose, H1, H2) == {"svd": 1,
                                                                       "svd_thin": 1}
    # principal_values: the same two SVDs without singular vectors
    for fn in (ss.pair_criteria, ss.independent_pair_constants, ss.friedrichs_angle):
        assert _count_lapack(monkeypatch, fn, H1, H2) == {"svdvals": 2}, fn.__name__


def test_pair_request_runs_the_values_kernel_once(monkeypatch, tmp_path, capsys):
    paths = []
    for name, H in zip("ab", _planted_meet_with_sine_svd()):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(ss.subspace_to_json(H)))
    argv = ["pair", "--a", str(paths[0]), "--b", str(paths[1])]
    # the two decodes' thin from_spanning, then one principal_values run
    assert _count_lapack(monkeypatch, main, argv) == {"svd_thin": 2, "svdvals": 2}
    assert json.loads(capsys.readouterr().out)["margins"]["pair_criteria"]["extras"] == {
        "k_dim": 2}


def test_pair_request_above_the_qr_size_decodes_by_qr(monkeypatch, tmp_path, capsys, rng):
    # d = 64 with 24 and 40 vectors: both sides exceed QR_MIN_SIDE, so each
    # decode takes a QR and sigma(R), then one principal_values run
    paths = []
    for name, r in zip("ab", (24, 40)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(ss.subspace_to_json(random_subspace(rng, 64, r))))
    argv = ["pair", "--a", str(paths[0]), "--b", str(paths[1])]
    assert _count_lapack(monkeypatch, main, argv) == {"qr": 2, "svdvals": 4}
    assert json.loads(capsys.readouterr().out)["margins"]["pair_criteria"]["extras"] == {
        "k_dim": 24}


def test_a_eigenvalues_strictly_inside_unit_interval(rng):
    for _ in range(20):
        H1, H2 = random_pair(rng)
        dec = ss.halmos_decompose(H1, H2)
        x = dec.a_eigenvalues
        assert np.all(np.diff(x) >= 0)
        assert np.all(x > 1e-10) and np.all(x < 1.0 - 1e-10)


def test_second_copy_lies_in_h2_plus_h1(rng):
    H1, H2 = random_pair(rng, 4, 8)
    dec = ss.halmos_decompose(H1, H2)
    if dec.k_dim:
        # first copy sits inside H1
        P1 = H1.projector()
        assert np.linalg.norm(P1 @ dec.k_basis_1 - dec.k_basis_1, 2) <= 1e-10
        # second copy is orthogonal to H1 within the generic part
        assert np.linalg.norm(P1 @ dec.k_basis_2, 2) <= 1e-8


def test_friedrichs_angle_containment_is_right_angle(rng):
    big = random_subspace(rng, 5, 3)
    small = ss.from_spanning(big.basis[:, :1])
    assert abs(ss.friedrichs_angle(big, small) - np.pi / 2) <= 1e-12


def test_pair_criteria_complement_symmetry(rng):
    for _ in range(10):
        H1, H2 = random_pair(rng, 2, 8)
        rep = ss.pair_criteria(H1, H2)
        rep_c = ss.pair_criteria(ss.complement(H1), ss.complement(H2))
        # c4 is c1 of the complement pair
        assert abs(rep.margin("c4_complement_pair")
                   - rep_c.margin("c1_one_minus_max_a")) <= 1e-8
        assert rep.all_satisfied() or any(
            e.verdict != "satisfied" for e in rep.entries)


def test_c5_uses_the_absolute_cutoff():
    # H1 = H2: (I - P1) P2 = 0, so no nonzero singular value is left
    line = ss.from_spanning(np.array([[1.0], [1.0], [0.0]]))
    assert ss.pair_criteria(line, line).entry("c5_image_closedness").note == "vacuous"
    # a planted meet and one generic angle of 1e-6 in C^4
    Q = np.linalg.qr(np.random.default_rng(2).normal(size=(4, 4)))[0]
    theta = 1e-6
    H1 = ss.from_spanning(Q[:, :2])
    H2 = ss.from_spanning(np.hstack([Q[:, :1], np.cos(theta) * Q[:, 1:2]
                                     + np.sin(theta) * Q[:, 2:3]]))
    rep = ss.pair_criteria(H1, H2)
    assert rep.extras["k_dim"] == 1
    assert rep.margin("c5_image_closedness") == pytest.approx(np.sin(theta), rel=1e-8)


def test_pair_criteria_45_degree_values():
    H1 = ss.from_spanning(np.array([[1.0], [0.0]]))
    H2 = ss.from_spanning(np.array([[1.0], [1.0]]))
    rep = ss.pair_criteria(H1, H2)
    assert abs(rep.margin("c1_one_minus_max_a") - 0.5) <= 1e-12
    assert rep.extras["k_dim"] == 1


def test_independent_pair_constants_relation(rng):
    for _ in range(10):
        H1, H2 = random_pair(rng, 3, 8)
        if H1.dim == 0 or H2.dim == 0:
            continue
        rep = ss.independent_pair_constants(H1, H2)
        # smallest Gram eigenvalue is 1 - ||P1 P2|| for a pair
        assert abs(rep.margin("gram_epsilon")
                   - (1.0 - rep.extras["product_norm"])) <= 1e-8


def test_independent_pair_detects_overlap():
    e = np.eye(3)
    A = ss.from_spanning(e[:, :2])
    B = ss.from_spanning(e[:, 1:])
    rep = ss.independent_pair_constants(A, B)
    assert not rep.extras["independent_closed"]
    assert abs(rep.extras["product_norm"] - 1.0) <= 1e-10


def test_independent_pair_constants_are_zero_on_a_planted_meet(rng):
    # H1 = span(q0, q1) and H2 = span(q1, cos t q0 + sin t q2) share q1, whose
    # sine is 0: its round-off must not stand in for the two constants
    for _ in range(20):
        d = int(rng.integers(3, 10))
        q = random_subspace(rng, d, d).basis
        t = rng.uniform(0.1, 1.4)
        mix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        H1 = ss.from_spanning(q[:, :2] @ mix)
        H2 = ss.from_spanning(np.column_stack([q[:, 1], np.cos(t) * q[:, 0]
                                               + np.sin(t) * q[:, 2]]) @ mix)
        assert ss.intersect(H1, H2).dim == 1
        rep = ss.independent_pair_constants(H1, H2)
        for name in ("gram_epsilon", "embedding_epsilon"):
            assert rep.margin(name) == 0.0, name
            assert rep.verdict(name) == "borderline", name


def _lines_at(theta):
    H1 = ss.from_spanning(np.array([[1.0], [0.0]]))
    H2 = ss.from_spanning(np.array([[np.cos(theta)], [np.sin(theta)]]))
    return H1, H2


@pytest.mark.parametrize("theta", [10.0 ** -k for k in range(2, 10)])
def test_angle_sweep_resolves_small_angles(theta):
    H1, H2 = _lines_at(theta)
    assert ss.intersect(H1, H2).dim == 0
    assert ss.friedrichs_angle(H1, H2) == pytest.approx(theta, rel=1e-6)
    assert ss.principal_angles(H1, H2) == pytest.approx([theta], rel=1e-6)
    s = np.sin(theta)
    t = 1.0 + s * s
    closed = {  # the margins of one generic 2x2 block, in closed form
        "c1_one_minus_max_a": s * s,
        "c2_product_spectrum_gap": s * s,
        "c3_product_minus_meet_norm": 2.0 * np.sin(theta / 2) ** 2,  # 1 - cos
        "c4_complement_pair": s * s,
        "c5_image_closedness": s,
        "c6_one_minus_product": np.sqrt(2 * s ** 4 / (t + np.sqrt(t * t - 4 * s ** 4))),
    }
    rep = ss.pair_criteria(H1, H2)
    assert rep.extras["k_dim"] == 1
    margin_tol = ss.DEFAULT_TOL.margin_tol
    for name, value in closed.items():
        assert rep.margin(name) == pytest.approx(value, rel=1e-6, abs=0), name
        assert rep.verdict(name) == ss.MarginReport().add(name, value, margin_tol).verdict


def test_angle_below_rank_tol_is_meet():
    H1, H2 = _lines_at(1e-12)
    assert ss.intersect(H1, H2).dim == 1
    assert ss.pair_criteria(H1, H2).extras["k_dim"] == 0
    assert ss.friedrichs_angle(H1, H2) == np.pi / 2


def test_friedrichs_angle_on_planted_meets(rng):
    for _ in range(30):
        d = int(rng.integers(3, 12))
        m = int(rng.integers(1, d))
        r1 = int(rng.integers(0, d - m + 1))
        r2 = int(rng.integers(0, d - m - r1 + 1))
        Q = random_subspace(rng, d, d).basis
        rest = Q[:, m:]
        H1 = ss.from_spanning(np.hstack([Q[:, :m], rest @ rng.normal(size=(d - m, r1))]))
        H2 = ss.from_spanning(np.hstack([Q[:, :m], rest @ rng.normal(size=(d - m, r2))]))
        assert ss.intersect(H1, H2).dim == m
        angles = ss.principal_angles(H1, H2)
        above = angles[np.sin(angles) > ss.DEFAULT_TOL.rank_tol]
        expected = above[0] if len(above) else np.pi / 2
        assert abs(ss.friedrichs_angle(H1, H2) - expected) <= 1e-12
        # c(H1, H2) = c(H1-perp, H2-perp)
        c = np.cos(ss.friedrichs_angle(H1, H2))
        c_perp = np.cos(ss.friedrichs_angle(ss.complement(H1), ss.complement(H2)))
        assert abs(c - c_perp) <= 1e-12
