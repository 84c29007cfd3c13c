import numpy as np
import pytest

import sumspaces as ss
from sumspaces.errors import DimensionMismatch

from conftest import random_subspace


def test_from_spanning_drops_dependent_columns():
    M = np.array([[1.0, 2.0], [0.0, 0.0]])
    S = ss.from_spanning(M)
    assert S.dim == 1
    assert ss.zero_subspace(3).dim == 0
    assert ss.from_spanning(np.zeros((3, 2))).dim == 0


def test_from_spanning_takes_a_vector_as_its_column():
    v = np.array([1.0, 2j, -1.0])
    line = ss.from_spanning(v)
    assert line.basis.shape == (3, 1)
    assert np.linalg.norm(line.projector() - ss.from_spanning(v[:, None]).projector(), 2) <= 1e-15


@pytest.mark.parametrize("op", [ss.contains, ss.subtract, ss.intersect, ss.principal_angles,
                                lambda A, B: ss.sum_span([A, B])])
def test_pair_operations_refuse_different_ambient_spaces(op, rng):
    for A, B in ((random_subspace(rng, 3, 1), random_subspace(rng, 4, 1)),
                 (ss.zero_subspace(4), ss.zero_subspace(3))):
        with pytest.raises(DimensionMismatch, match="ambient dimensions differ"):
            op(A, B)


def test_from_spanning_scale_collapses_noise_columns():
    noise = 1e-14 * np.ones((3, 1))
    assert ss.from_spanning(noise).dim == 1
    assert ss.from_spanning(noise, scale=1.0).dim == 0


def test_projector_idempotent_hermitian(rng):
    S = random_subspace(rng, 5, 2)
    P = S.projector()
    assert np.linalg.norm(P @ P - P, 2) <= 1e-12
    assert np.linalg.norm(P - P.conj().T, 2) <= 1e-12
    assert abs(np.trace(P).real - 2) <= 1e-10


def test_complement_and_dimension_count(rng):
    S = random_subspace(rng, 6, 2)
    C = ss.complement(S)
    assert C.dim == 4
    assert np.linalg.norm(S.basis.conj().T @ C.basis, 2) <= 1e-12
    assert ss.complement(ss.zero_subspace(4)).dim == 4


def test_intersect_and_sum(rng):
    e = np.eye(4)
    A = ss.from_spanning(e[:, :2])
    B = ss.from_spanning(e[:, 1:3])
    M = ss.intersect(A, B)
    assert M.dim == 1
    assert np.allclose(np.abs(M.basis[:, 0]), e[:, 1])
    assert ss.sum_span([A, B]).dim == 3


def test_contains_and_subtract(rng):
    e = np.eye(3)
    A = ss.from_spanning(e[:, :2])
    B = ss.from_spanning(e[:, [0]])
    assert ss.contains(A, B)
    assert not ss.contains(B, A)
    D = ss.subtract(A, B)
    assert D.dim == 1
    assert np.allclose(np.abs(D.basis[:, 0]), e[:, 1])


def test_principal_angles_45_degrees():
    A = ss.from_spanning(np.array([[1.0], [0.0]]))
    B = ss.from_spanning(np.array([[1.0], [1.0]]))
    angles = ss.principal_angles(A, B)
    assert np.allclose(angles, [np.pi / 4], atol=1e-12)


def test_json_round_trip(rng):
    S = random_subspace(rng, 4, 2)
    back = ss.subspace_from_json(ss.subspace_to_json(S))
    assert np.linalg.norm(back.projector() - S.projector(), 2) <= 1e-10
    sys = ss.SubspaceSystem(4, [S, ss.zero_subspace(4)])
    back_sys = ss.system_from_json(ss.system_to_json(sys))
    assert back_sys.members[1].dim == 0


def test_system_validation():
    with pytest.raises(DimensionMismatch):
        ss.SubspaceSystem(3, [])
    with pytest.raises(DimensionMismatch):
        ss.SubspaceSystem(3, [ss.zero_subspace(2)])
