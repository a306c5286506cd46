import math

import numpy as np
import pytest

from oracles import (NotPositiveDefiniteError, cholesky, hermitian_eigenvalues,
                     max_generalized_eigenvalue)
from royroot.detmat import MAX_DIM, det_scaled


def det_cofactor(rows):
    """Exact integer determinant by cofactor expansion (test oracle)."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    total = 0
    for j in range(k):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def random_hermitian(rng, k, scale=1.0):
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    h = g @ g.conj().T * scale
    return (h + h.conj().T) / 2


class TestDetScaled:
    def test_identity(self):
        d = det_scaled(np.eye(3))
        assert d.sign == 1 and d.log_magnitude == pytest.approx(0.0, abs=1e-14)

    def test_2x2(self):
        d = det_scaled(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert d.value() == pytest.approx(-2.0, rel=1e-14)

    def test_integer_matrices_vs_cofactor(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.integers(-9, 10, size=(5, 5))
            exact = det_cofactor(m.tolist())
            d = det_scaled(m.astype(float))
            if exact == 0:
                assert d.sign == 0
            else:
                assert d.sign == (1 if exact > 0 else -1)
                assert d.log_magnitude == pytest.approx(math.log(abs(exact)), rel=1e-12)

    def test_product_rule(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4))
            da, db, dab = det_scaled(a), det_scaled(b), det_scaled(a @ b)
            assert dab.sign == da.sign * db.sign
            assert dab.log_magnitude == pytest.approx(
                da.log_magnitude + db.log_magnitude, rel=1e-9)

    def test_wide_dynamic_range(self):
        # rows scaled across ~300 orders of magnitude
        base = np.array([[2.0, 1.0], [1.0, 2.0]])
        scale = np.diag([1e-150, 1e150])
        d = det_scaled(scale @ base)
        assert d.sign == 1
        assert d.log_magnitude == pytest.approx(math.log(3.0), abs=1e-9)

    def test_zero_row(self):
        d = det_scaled(np.array([[0.0, 0.0], [1.0, 2.0]]))
        assert d.sign == 0

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            det_scaled(np.ones((2, 3)))
        with pytest.raises(ValueError):
            det_scaled(np.eye(MAX_DIM + 1))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(cholesky(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        for k in (2, 5, 16):
            h = random_hermitian(rng, k)
            L = cholesky(h)
            assert np.allclose(np.triu(L, 1), 0.0)
            res = np.linalg.norm(L @ L.conj().T - h) / np.linalg.norm(h)
            assert res < 1e-10

    def test_not_positive_definite_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(np.diag([1.0, -1.0, 2.0]))
        assert err.value.pivot == 1

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 2.0], [0.5, 1.0]]))


class TestHermitianEigenvalues:
    def test_diagonal(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])),
                                   [1.0, 2.0, 3.0])

    def test_pauli_like(self):
        h = np.array([[2.0, 1j], [-1j, 2.0]])
        np.testing.assert_allclose(hermitian_eigenvalues(h), [1.0, 3.0], atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 12)
        ev = hermitian_eigenvalues(h)
        assert ev.sum() == pytest.approx(np.trace(h).real, rel=1e-10)
        assert np.all(np.diff(ev) >= 0)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 6)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        u = np.eye(6) - 2.0 * np.outer(v, v.conj())  # Householder reflector
        hc = u @ h @ u.conj().T
        hc = (hc + hc.conj().T) / 2
        np.testing.assert_allclose(hermitian_eigenvalues(hc),
                                   hermitian_eigenvalues(h), rtol=1e-9, atol=1e-9)


class TestMaxGeneralizedEigenvalue:
    def test_identity_weight(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 5)
        assert max_generalized_eigenvalue(a, np.eye(5)) == pytest.approx(
            hermitian_eigenvalues(a)[-1], rel=1e-12)

    def test_proportional_pencil(self):
        rng = np.random.default_rng(4)
        b = random_hermitian(rng, 4) + 4.0 * np.eye(4)
        assert max_generalized_eigenvalue(2.0 * b, b) == pytest.approx(2.0, rel=1e-11)

    def test_2x2_pencil_root_oracle(self):
        # det(A - lam B) is a quadratic in lam; compare with its larger root
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2) + 2.0 * np.eye(2)
            c2 = (b[0, 0] * b[1, 1] - abs(b[0, 1]) ** 2).real
            c1 = (a[0, 0] * b[1, 1] + a[1, 1] * b[0, 0]
                  - 2.0 * (a[0, 1] * np.conj(b[0, 1])).real).real
            c0 = (a[0, 0] * a[1, 1] - abs(a[0, 1]) ** 2).real
            root = (c1 + math.sqrt(c1 * c1 - 4.0 * c2 * c0)) / (2.0 * c2)
            assert max_generalized_eigenvalue(a, b) == pytest.approx(root, rel=1e-10)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(10)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4) + 3.0 * np.eye(4)
        lam = max_generalized_eigenvalue(a, b)
        for _ in range(5):
            mtx = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            ac = mtx @ a @ mtx.conj().T
            bc = mtx @ b @ mtx.conj().T
            ac = (ac + ac.conj().T) / 2
            bc = (bc + bc.conj().T) / 2
            assert max_generalized_eigenvalue(ac, bc) == pytest.approx(lam, rel=1e-8)

    def test_propagates_cholesky_failure(self):
        with pytest.raises(NotPositiveDefiniteError):
            max_generalized_eigenvalue(np.eye(2), np.diag([1.0, -2.0]))
