import numpy as np
import pytest

from cavity_eit import (
    DensityMatrix,
    HilbertSpace,
    OperatorMatrix,
    annihilation_operator,
    basis_projector,
    expectation,
    identity,
    transition_operator,
)
from cavity_eit.hilbert import _embed


def test_space_total_dim():
    space = HilbertSpace((5, 5, 3))
    assert space.total_dim == 75
    assert space.n_subsystems == 3


def test_space_rejects_bad_dims():
    with pytest.raises(ValueError):
        HilbertSpace(())
    with pytest.raises(ValueError):
        HilbertSpace((5, 1))


def test_operator_shape_checked():
    space = HilbertSpace((3,))
    with pytest.raises(ValueError):
        OperatorMatrix(space, np.eye(2))


def test_operator_immutable():
    op = identity(HilbertSpace((2,)))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 2.0


def test_projector_single_qubit():
    space = HilbertSpace((2,))
    proj = basis_projector(space, 0, 0)
    assert np.array_equal(proj.matrix, np.diag([1.0, 0.0]).astype(complex))


def test_projector_second_subsystem():
    space = HilbertSpace((2, 2))
    proj = basis_projector(space, 1, 1)
    assert np.array_equal(proj.matrix, np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex))


def test_projector_explicit_kron():
    # |4><4| on the first factor of a 5x3 space: diagonal ones at 12, 13, 14
    space = HilbertSpace((5, 3))
    proj = basis_projector(space, 0, 4)
    expected = np.zeros((15, 15), dtype=complex)
    for idx in (12, 13, 14):
        expected[idx, idx] = 1.0
    assert np.array_equal(proj.matrix, expected)


def test_projector_index_errors():
    space = HilbertSpace((5, 3))
    with pytest.raises(ValueError):
        basis_projector(space, 2, 0)
    with pytest.raises(ValueError):
        basis_projector(space, 1, 3)


def test_transition_qubit():
    space = HilbertSpace((2,))
    sigma = transition_operator(space, 0, upper=1, lower=0)
    assert np.array_equal(sigma.matrix, np.array([[0, 1], [0, 0]], dtype=complex))


def test_transition_adjoint_symmetry():
    space = HilbertSpace((4, 2))
    down = transition_operator(space, 0, upper=3, lower=1)
    up = transition_operator(space, 0, upper=1, lower=3)
    assert np.array_equal(down.dagger().matrix, up.matrix)


def test_transition_explicit_kron():
    # |1><2| on the first factor of a 3x2 space: ones at (2,4) and (3,5)
    space = HilbertSpace((3, 2))
    sigma = transition_operator(space, 0, upper=2, lower=1)
    expected = np.zeros((6, 6), dtype=complex)
    expected[2, 4] = 1.0
    expected[3, 5] = 1.0
    assert np.array_equal(sigma.matrix, expected)


def test_transition_rejects_equal_levels():
    with pytest.raises(ValueError):
        transition_operator(HilbertSpace((3,)), 0, upper=1, lower=1)


def test_annihilation_entries():
    space = HilbertSpace((3,))
    low = annihilation_operator(space, 0)
    assert low.matrix[0, 1] == 1.0
    assert low.matrix[1, 2] == pytest.approx(np.sqrt(2.0))
    assert np.count_nonzero(low.matrix) == 2


def test_number_operator_eigenvalues():
    space = HilbertSpace((4,))
    low = annihilation_operator(space, 0)
    number = low.dagger() @ low
    assert np.allclose(number.matrix, np.diag([0.0, 1.0, 2.0, 3.0]))


def test_truncated_commutator():
    # [a, a+] = 1 except the top Fock state, which picks up -n_max
    n_max = 2
    space = HilbertSpace((n_max + 1,))
    low = annihilation_operator(space, 0)
    comm = low @ low.dagger() - low.dagger() @ low
    assert np.allclose(comm.matrix, np.diag([1.0, 1.0, -float(n_max)]))


def test_dagger_involution():
    rng = np.random.default_rng(4)
    op = OperatorMatrix(HilbertSpace((3,)), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    assert np.array_equal(op.dagger().dagger().matrix, op.matrix)


def test_embedding_commutes_with_multiplication():
    # the mixed-product property of the Kronecker chain every model
    # operator is built from: embed(A) embed(B) = embed(AB) on each subsystem
    rng = np.random.default_rng(11)
    space = HilbertSpace((3, 2))
    for subsystem, dim in ((0, 3), (1, 2)):
        for _ in range(5):
            raw_a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            raw_b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            embedded = _embed(space, subsystem, raw_a) @ _embed(space, subsystem, raw_b)
            product = _embed(space, subsystem, raw_a @ raw_b)
            assert np.allclose(embedded.matrix, product.matrix, atol=1e-12)


def _vacuum(space):
    mat = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    mat[0, 0] = 1.0
    return DensityMatrix(space, mat)


def test_expectation_vacuum_photons():
    space = HilbertSpace((3,))
    low = annihilation_operator(space, 0)
    assert expectation(_vacuum(space), low.dagger() @ low) == 0.0


def test_expectation_maximally_mixed():
    space = HilbertSpace((4,))
    rho = DensityMatrix(space, np.eye(4, dtype=complex) / 4.0)
    assert expectation(rho, identity(space)) == pytest.approx(1.0)


def test_expectation_one_photon():
    space = HilbertSpace((3,))
    mat = np.zeros((3, 3), dtype=complex)
    mat[1, 1] = 1.0
    low = annihilation_operator(space, 0)
    assert expectation(DensityMatrix(space, mat), low.dagger() @ low) == pytest.approx(1.0)


def test_expectation_hermitian_is_real():
    rng = np.random.default_rng(17)
    space = HilbertSpace((4,))
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = raw @ raw.conj().T
    rho = DensityMatrix(space, rho / np.trace(rho))
    herm = raw + raw.conj().T
    value = expectation(rho, OperatorMatrix(space, herm))
    assert abs(value.imag) < 1e-10


def test_expectation_space_mismatch():
    with pytest.raises(ValueError):
        expectation(_vacuum(HilbertSpace((3,))), identity(HilbertSpace((4,))))


def test_density_matrix_rejects_non_hermitian():
    space = HilbertSpace((2,))
    mat = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(space, mat)


def test_density_matrix_rejects_bad_trace():
    space = HilbertSpace((2,))
    with pytest.raises(ValueError):
        DensityMatrix(space, np.eye(2, dtype=complex))


def test_density_matrix_rejects_negative():
    space = HilbertSpace((2,))
    mat = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(space, mat)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite(bad):
    # every comparison with NaN is False, so the other checks would pass it
    space = HilbertSpace((2,))
    mat = np.diag([1.0, 0.0]).astype(complex)
    mat[0, 1] = mat[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(space, mat)


def test_density_matrix_each_checks_a_stack_like_one_matrix_each(monkeypatch):
    # one stacked eigvalsh for the finite matrices; each matrix fails with
    # the message its own construction raises, and a passing one is a state
    space = HilbertSpace((2,))
    good = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
    nonfinite = good.copy()
    nonfinite[1, 1] = np.nan
    stack = np.array([
        good,
        good + np.array([[0.0, 1e-9], [0.0, 0.0]]),
        2.0 * good,
        np.diag([1.2, -0.2]),
        nonfinite,
        np.diag([1.0, 0.0]),
    ])
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    states = DensityMatrix.each(space, stack)
    assert shapes == [(5, 2, 2)]
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert [isinstance(state, DensityMatrix) for state in states] == [
        True, False, False, False, False, True,
    ]
    for mat, state in zip(stack, states):
        try:
            alone = DensityMatrix(space, mat)
        except ValueError as exc:
            assert str(state) == str(exc)
        else:
            assert state.space == space
            assert np.array_equal(state.matrix, alone.matrix)
            assert not state.matrix.flags.writeable
