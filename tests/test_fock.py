import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_genlaguerre

from ionrabi import (
    HilbertSpace,
    Operator,
    annihilation_op,
    barrier_eta,
    creation_op,
    f1_diagonal,
    f1_scalar,
    number_op,
    qubit_ops,
)
from ionrabi import fock
from ionrabi.errors import NoSignChange
from ionrabi.fock import displacement_boson, hermiticity_defect

from f1_oracle import f1_series

# 25-digit reference values computed with mpmath (dps=40) from the closed
# form exp(-eta^2/2) L_n^(1)(eta^2) / (n+1)
F1_REFERENCE = {
    (17, 0.4518): -2.7856611486203820565e-5,
    (7, 0.67898): 9.0242010351297726872e-6,
    (10, 0.57838): 6.3071663522980382726e-6,
    (48, 0.5): -0.0014661618495014922543,
    (200, 1.0): 0.0067920805773359714214,
}


class TestHilbertSpace:
    def test_dimensions(self):
        sp = HilbertSpace(5)
        assert sp.dim_boson == 6
        assert sp.dim_total == 12

    def test_index_ordering(self):
        sp = HilbertSpace(5)
        assert sp.index(0, 3) == 3
        assert sp.index(1, 0) == 6
        assert sp.index(1, 5) == 11

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_invalid_n_max(self, bad):
        with pytest.raises(ValueError):
            HilbertSpace(bad)

    def test_index_bounds(self):
        sp = HilbertSpace(5)
        with pytest.raises(ValueError):
            sp.index(0, 6)
        with pytest.raises(ValueError):
            sp.index(2, 0)


class TestLadderOperators:
    def test_matrix_elements(self, space):
        a = annihilation_op(space).mat
        assert a[space.index(0, 0), space.index(0, 1)] == pytest.approx(1.0)
        assert a[space.index(0, 1), space.index(0, 2)] == pytest.approx(math.sqrt(2))
        assert a[space.index(1, 1), space.index(1, 2)] == pytest.approx(math.sqrt(2))

    def test_vacuum_annihilation(self, space):
        a = annihilation_op(space).mat
        vac = np.zeros(space.dim_total)
        vac[space.index(0, 0)] = 1.0
        assert np.allclose(a @ vac, 0.0)

    def test_truncation_row_zero(self, space):
        a = annihilation_op(space).mat
        assert np.all(a[space.index(0, space.n_max), :] == 0)
        assert np.all(a[space.index(1, space.n_max), :] == 0)

    def test_commutator_below_edge(self, space):
        a = annihilation_op(space).mat
        ad = creation_op(space).mat
        comm = a @ ad - ad @ a
        keep = list(range(space.n_max)) + list(range(space.dim_boson, space.dim_total - 1))
        sub = comm[np.ix_(keep, keep)]
        assert np.allclose(sub, np.eye(len(keep)), atol=1e-12)

    def test_number_operator_is_ad_a(self, space):
        # a^dag a survives truncation exactly (only a a^dag loses the edge)
        nb = number_op(space).mat
        ad = creation_op(space).mat
        a = annihilation_op(space).mat
        assert np.allclose(nb, ad @ a, atol=1e-12)


class TestQubitOps:
    def test_raising(self, space):
        sz, sp_, sm, sx = qubit_ops(space)
        down3 = np.zeros(space.dim_total)
        down3[space.index(0, 3)] = 1.0
        up3 = np.zeros(space.dim_total)
        up3[space.index(1, 3)] = 1.0
        assert np.allclose(sp_.mat @ down3, up3)
        assert np.allclose(sm.mat @ up3, down3)

    def test_sigma_z_squared_is_identity(self, space):
        sz = qubit_ops(space)[0]
        assert np.allclose((sz.mat @ sz.mat), np.eye(space.dim_total))

    def test_sigma_x_is_sum(self, space):
        _, sp_, sm, sx = qubit_ops(space)
        assert np.allclose(sx.mat, sp_.mat + sm.mat)

    def test_sigma_z_eigenvalues(self, space):
        sz = qubit_ops(space)[0]
        up = np.zeros(space.dim_total)
        up[space.index(1, 2)] = 1.0
        assert np.allclose(sz.mat @ up, up)
        down = np.zeros(space.dim_total)
        down[space.index(0, 2)] = 1.0
        assert np.allclose(sz.mat @ down, -down)

    def test_equal_to_kron_products(self, space):
        # qubit (x) boson, qubit 0 = down: each is a 2 x 2 Pauli matrix (x) I
        eye = np.eye(space.dim_boson)
        plus = np.array([[0.0, 0.0], [1.0, 0.0]])
        paulis = (np.diag([-1.0, 1.0]), plus, plus.T, plus + plus.T)
        for op, pauli in zip(qubit_ops(space), paulis):
            assert op.mat.dtype == complex
            assert np.array_equal(op.mat, np.kron(pauli, eye))


class TestOperatorWrapper:
    def test_rejects_wrong_shape(self, space):
        with pytest.raises(ValueError, match="does not match dim_total"):
            Operator(space, np.eye(space.dim_total + 1))

    def test_rejects_nonfinite(self, space):
        mat = np.zeros((space.dim_total, space.dim_total), dtype=complex)
        mat[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Operator(space, mat)


class TestF1:
    def test_vacuum_value(self):
        assert f1_scalar(0, 0.5) == pytest.approx(math.exp(-0.125), abs=1e-15)
        assert f1_series(0, 0.5) == pytest.approx(math.exp(-0.125), abs=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 5, 50, 200])
    def test_zero_eta_is_one(self, n):
        assert f1_scalar(n, 0.0) == 1.0
        assert f1_series(n, 0.0) == 1.0

    @pytest.mark.parametrize("n,eta", [(17, 0.4518), (7, 0.67898), (10, 0.57838)])
    def test_blockade_values_small(self, n, eta):
        assert abs(f1_scalar(n, eta)) < 1e-3

    @pytest.mark.parametrize("key", sorted(F1_REFERENCE))
    def test_against_high_precision_reference(self, key):
        n, eta = key
        ref = F1_REFERENCE[key]
        assert f1_scalar(n, eta) == pytest.approx(ref, rel=5e-15)
        assert f1_series(n, eta) == pytest.approx(ref, rel=5e-15)

    def test_sign_changes_along_n_at_half(self):
        # f1(n, 0.5) crosses zero between 13/14 and between 48/49; n=14 and
        # n=48 are the near-zero integers
        vals = f1_diagonal(60, 0.5)
        assert vals[13] > 0 > vals[14]
        assert vals[48] < 0 < vals[49]
        assert abs(vals[14]) < abs(vals[13]) and abs(vals[14]) < abs(vals[15])
        assert abs(vals[48]) < abs(vals[47]) and abs(vals[48]) < abs(vals[49])

    @pytest.mark.parametrize("n", [1, 4, 100])
    def test_lamb_dicke_limit(self, n):
        eta = 0.01 / math.sqrt(n)
        assert abs(f1_scalar(n, eta) - 1.0) < 1e-3

    def test_series_matches_closed_form_subset(self):
        for eta in (0.1, 0.5, 1.0):
            for n in range(0, 61):
                a, b = f1_series(n, eta), f1_scalar(n, eta)
                scale = max(abs(a), abs(b))
                assert abs(a - b) <= max(1e-12 * scale, 1e-16)

    def test_matches_scipy_laguerre(self):
        for eta in (0.3, 0.7):
            for n in (0, 3, 20, 90):
                ref = math.exp(-eta**2 / 2) * eval_genlaguerre(n, 1, eta**2) / (n + 1)
                assert f1_scalar(n, eta) == pytest.approx(ref, rel=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            f1_scalar(3, -0.1)
        with pytest.raises(ValueError):
            f1_series(-1, 0.5)

    def test_diagonal_consistent_with_scalar(self):
        vals = f1_diagonal(40, 0.4518)
        for n in (0, 7, 17, 40):
            assert vals[n] == f1_scalar(n, 0.4518)

    def test_diagonal_over_eta_array_matches_per_eta(self):
        etas = np.array([0.0, 0.1, 0.4518, barrier_eta(7), 1.0])
        table = f1_diagonal(60, etas)
        assert table.shape == (61, etas.size)
        for j, eta in enumerate(etas):
            assert np.array_equal(table[:, j], f1_diagonal(60, float(eta)))
        with pytest.raises(ValueError):
            f1_diagonal(5, np.array([0.2, -0.1]))
        with pytest.raises(ValueError):
            f1_diagonal(5, np.ones((2, 2)))


class TestF1Operator:
    """f1 as the diagonal build_hamiltonian dresses the sidebands with."""

    def test_zero_eta_identity(self):
        # build_hamiltonian's linear kinds rely on f1 being exactly 1 at eta = 0
        assert np.all(f1_diagonal(200, 0.0) == 1.0)

    def test_paper_zero_at_n10(self):
        vals = f1_diagonal(20, 0.57838)
        assert abs(vals[10]) < 1e-3
        assert np.all(np.abs(np.delete(vals, 10)) > 1e-2)

    def test_bounded_by_one(self):
        for eta in (0.01, 0.1, 0.4518, 0.5, 0.57838, 0.67898, 1.0):
            assert np.all(np.abs(f1_diagonal(200, eta)) <= 1.0 + 1e-15)

    def test_commutes_with_number(self, space):
        f1 = np.diag(np.tile(f1_diagonal(space.n_max, 0.5), 2))
        nb = number_op(space).mat
        assert np.all(f1 @ nb - nb @ f1 == 0.0)

    def test_hermitian(self, space):
        vals = f1_diagonal(space.n_max, 0.7)
        assert vals.dtype == np.float64
        assert hermiticity_defect(np.diag(vals)) == 0.0


class TestBarrierEta:
    @pytest.mark.parametrize("n,expected,tol", [
        (17, 0.4518, 5e-4),
        (7, 0.67898, 5e-5),
        (10, 0.57838, 5e-5),
    ])
    def test_paper_values(self, n, expected, tol):
        assert abs(barrier_eta(n) - expected) < tol

    @pytest.mark.parametrize("n,root", [
        (3, 0.9673790505919011),
        (7, 0.6789876433374873),
        (10, 0.578384540184774),
        (17, 0.45178436070687833),
        (60, 0.24530992206146368),
    ])
    def test_pinned_roots(self, n, root):
        assert barrier_eta(n) == root

    @pytest.mark.parametrize("n", [3, 17, 60])
    def test_few_f1_evaluations(self, n, monkeypatch):
        # one scan of the grid and a few safeguarded Newton steps, where
        # bisecting down to adjacent doubles took about 46 evaluations
        calls = []
        real = fock.f1_diagonal
        monkeypatch.setattr(fock, "f1_diagonal", lambda *args: calls.append(args) or real(*args))
        barrier_eta(n)
        assert 2 <= len(calls) <= 10

    def test_first_zero_bound(self, monkeypatch):
        # the first zero of L_n^(1) lies at x <= 4/(n + 1), so f1(n, eta) has
        # reached 0 by eta = 2/sqrt(n + 1), an equality at n = 1 (0 up to rounding) ...
        n = np.arange(1, 201)
        f1 = f1_diagonal(200, 2.0 / np.sqrt(n + 1))[n, n - 1]
        assert abs(f1[0]) < 1e-15
        assert np.all(f1[1:] <= 0)
        # ... and barrier_eta's first scan ends one grid step past that bound
        grids = []
        real = fock.f1_diagonal
        monkeypatch.setattr(fock, "f1_diagonal",
                            lambda n, eta: grids.append(np.atleast_1d(eta)) or real(n, eta))
        for k in (1, 17, 60):
            grids.clear()
            barrier_eta(k)
            assert 2 / math.sqrt(k + 1) < grids[0][-1] < 2 / math.sqrt(k + 1) + 2e-3

    @pytest.mark.parametrize("n", [7, 17])
    def test_root_quality_and_sign_flip(self, n):
        root = barrier_eta(n)
        assert abs(f1_scalar(n, root)) < 1e-12
        assert f1_scalar(n, root - 1e-6) * f1_scalar(n, root + 1e-6) < 0

    def test_no_sign_change_reported(self):
        # f1(1, eta) = exp(-eta^2/2)(2 - eta^2)/2 first vanishes at sqrt(2) > 1
        with pytest.raises(NoSignChange):
            barrier_eta(1, (1e-3, 1.0))
        # f1(1, eta) < 0 beyond sqrt(2), and exp(-eta^2/2) underflows to 0
        # near eta = 38.6: that 0 is no sign change
        with pytest.raises(NoSignChange):
            barrier_eta(1, (2.0, 50.0))

    def test_last_zero_bound(self):
        # the zeros of L_n^(1) are the eigenvalues of its Jacobi matrix
        # (diagonal 2k + 2, off-diagonal sqrt(k (k + 1))): all lie below
        # x = 4n + 4, where barrier_eta's scan ends
        for n in range(1, 201):
            k = np.arange(1, n)
            jacobi = np.diag(2.0 * np.arange(n) + 2) + np.diag(np.sqrt(k * (k + 1.0)), 1)
            assert np.linalg.eigvalsh(jacobi, UPLO="U")[-1] < 4 * n + 4

    @pytest.mark.parametrize("n,bracket", [(1, (50.0, math.inf)), (1, (2.0, 1e300)),
                                           (150, (30.0, 1000.0))])
    def test_scan_ends_past_last_zero(self, n, bracket, monkeypatch):
        # no zero lies past eta = 2 sqrt(n + 1): the scan ends one step beyond
        # in at most two f1_diagonal calls, where it ran on to hi, or forever
        calls = []
        real = fock.f1_diagonal

        def counted(*args):
            calls.append(args)
            assert len(calls) <= 2, "the scan ran past 2 sqrt(n + 1)"
            return real(*args)

        monkeypatch.setattr(fock, "f1_diagonal", counted)
        with pytest.raises(NoSignChange):
            barrier_eta(n, bracket)

    @pytest.mark.parametrize("n,root", [
        (1, math.sqrt(2.0)),                       # L_1^(1)(x) = 2 - x
        (2, math.sqrt(3.0 - math.sqrt(3.0))),      # L_2^(1)(x) = (x^2 - 6x + 6)/2
    ])
    def test_default_bracket_holds_low_targets(self, n, root):
        assert barrier_eta(n) == pytest.approx(root, abs=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            barrier_eta(0)
        with pytest.raises(ValueError):
            barrier_eta(5, (0.5, 0.1))


class TestDisplacement:
    def test_zero_is_identity(self, space):
        D = np.kron(np.eye(2), displacement_boson(space.n_max, 0.0))
        assert np.array_equal(D, np.eye(space.dim_total))

    @pytest.mark.parametrize("beta", [0.3j, 0.5 + 0.2j])
    def test_vacuum_overlap(self, beta):
        D = displacement_boson(20, beta)
        assert D[0, 0] == pytest.approx(math.exp(-abs(beta) ** 2 / 2), abs=1e-14)

    def test_against_matrix_exponential(self):
        n_max = 40
        a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1).astype(complex)
        beta = 0.3j
        brute = expm(beta * a.conj().T - np.conj(beta) * a)
        closed = displacement_boson(n_max, beta)
        assert np.abs(closed[:30, :30] - brute[:30, :30]).max() < 1e-8

    @pytest.mark.parametrize("beta,cols", [(0.3j, 44), (1.0, 20), (0.5 + 0.5j, 30)])
    def test_unitarity_where_truncation_adequate(self, beta, cols):
        # displaced Fock spread is |beta|*sqrt(2n+1); columns with ~8 sigma of
        # headroom below n_max satisfy the 1e-8 unitarity bound
        n_max = 60
        D = displacement_boson(n_max, beta)
        gram = D.conj().T @ D - np.eye(n_max + 1)
        assert np.abs(gram[:, :cols + 1]).max() < 1e-8

    def test_dagger_symmetry(self):
        beta = 0.4 + 0.2j
        D = displacement_boson(30, beta)
        assert np.abs(displacement_boson(30, -beta) - D.conj().T).max() < 1e-14

    def test_displaces_vacuum_to_coherent(self):
        from ionrabi import coherent_state, fock_state
        sp = HilbertSpace(40)
        beta = 0.8j
        D = np.kron(np.eye(2), displacement_boson(sp.n_max, beta))
        psi = D @ fock_state(sp, 0, "down").data
        target = coherent_state(sp, beta, "down").data
        assert np.abs(psi - target).max() < 1e-10
