import numpy as np
import pytest

from medqnn import gaussian
from medqnn.rng import Rng

SQRT2 = np.sqrt(2.0)


def random_gate_stack(state, rng, depth):
    """Apply `depth` random gates, returning the state and the accumulated symplectic."""
    n = state.num_modes
    total = np.eye(2 * n)
    for _ in range(depth):
        kind = rng.integer(4)
        if kind == 0:
            state = gaussian.apply_displacement(state, rng.integer(n), rng.uniform(-2, 2), rng.uniform(-2, 2))
        elif kind == 1:
            mode, phi = rng.integer(n), rng.uniform(-2, 2)
            state = gaussian.apply_rotation(state, mode, phi)
            total = gaussian.rotation_symplectic(n, mode, phi) @ total
        elif kind == 2:
            mode, r = rng.integer(n), rng.uniform(-2, 2)
            state = gaussian.apply_squeeze(state, mode, r)
            total = gaussian.squeeze_symplectic(n, mode, r) @ total
        else:
            a = rng.integer(n)
            b = (a + 1 + rng.integer(n - 1)) % n
            theta, phi = rng.uniform(-2, 2), rng.uniform(-2, 2)
            state = gaussian.apply_beamsplitter(state, a, b, theta, phi)
            total = gaussian.beamsplitter_symplectic(n, a, b, theta, phi) @ total
    return state, total


class TestVacuum:
    def test_single_mode(self):
        state = gaussian.vacuum_state(1)
        np.testing.assert_array_equal(state.mean, np.zeros(2))
        np.testing.assert_array_equal(state.cov, np.eye(2))

    def test_four_modes(self):
        state = gaussian.vacuum_state(4)
        assert state.mean.shape == (8,)
        np.testing.assert_array_equal(state.cov, np.eye(8))

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            gaussian.vacuum_state(0)


class TestDisplacement:
    def test_real_displacement_shifts_x_by_sqrt2(self):
        state = gaussian.apply_displacement(gaussian.vacuum_state(1), 0, 1.0, 0.0)
        np.testing.assert_allclose(state.mean, [SQRT2, 0.0], atol=1e-15)
        np.testing.assert_array_equal(state.cov, np.eye(2))

    def test_zero_magnitude_is_identity(self):
        vac = gaussian.vacuum_state(2)
        state = gaussian.apply_displacement(vac, 1, 0.0, 1.3)
        np.testing.assert_array_equal(state.mean, vac.mean)

    def test_imaginary_displacement_shifts_p(self):
        # alpha = i, i.e. r=1 phi=pi/2: x unchanged, p shifted by sqrt(2)
        state = gaussian.apply_displacement(gaussian.vacuum_state(1), 0, 1.0, np.pi / 2)
        np.testing.assert_allclose(state.mean, [0.0, SQRT2], atol=1e-15)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            gaussian.apply_displacement(gaussian.vacuum_state(2), 2, 1.0, 0.0)


class TestRotation:
    def test_zero_angle_is_identity(self):
        state = gaussian.apply_displacement(gaussian.vacuum_state(1), 0, 0.7, 0.4)
        rotated = gaussian.apply_rotation(state, 0, 0.0)
        np.testing.assert_allclose(rotated.mean, state.mean, atol=1e-15)
        np.testing.assert_allclose(rotated.cov, state.cov, atol=1e-15)

    def test_quarter_turn_moves_x_to_p(self):
        state = gaussian.apply_displacement(gaussian.vacuum_state(1), 0, 1.0, 0.0)
        rotated = gaussian.apply_rotation(state, 0, np.pi / 2)
        np.testing.assert_allclose(rotated.mean, [0.0, SQRT2], atol=1e-12)

    def test_vacuum_is_rotation_invariant(self):
        rotated = gaussian.apply_rotation(gaussian.vacuum_state(3), 1, 1.234)
        np.testing.assert_allclose(rotated.cov, np.eye(6), atol=1e-14)

    def test_rotations_compose_additively(self):
        rng = Rng(5)
        state, _ = random_gate_stack(gaussian.vacuum_state(2), rng, 6)
        a, b = 0.8, -1.7
        once = gaussian.apply_rotation(state, 1, a + b)
        twice = gaussian.apply_rotation(gaussian.apply_rotation(state, 1, b), 1, a)
        np.testing.assert_allclose(once.mean, twice.mean, atol=1e-12)
        np.testing.assert_allclose(once.cov, twice.cov, atol=1e-12)


class TestSqueeze:
    def test_zero_is_identity(self):
        state = gaussian.apply_squeeze(gaussian.vacuum_state(1), 0, 0.0)
        np.testing.assert_array_equal(state.cov, np.eye(2))

    def test_vacuum_variances_rescale(self):
        state = gaussian.apply_squeeze(gaussian.vacuum_state(1), 0, np.log(2.0))
        np.testing.assert_allclose(np.diag(state.cov), [0.25, 4.0], atol=1e-14)

    def test_displaced_mean_contracts(self):
        state = gaussian.apply_displacement(gaussian.vacuum_state(1), 0, 1.0, 0.0)
        state = gaussian.apply_squeeze(state, 0, np.log(2.0))
        np.testing.assert_allclose(state.mean, [SQRT2 / 2.0, 0.0], atol=1e-14)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            gaussian.apply_squeeze(gaussian.vacuum_state(1), 0, 20.5)


class TestBeamsplitter:
    def test_zero_angle_is_identity(self):
        rng = Rng(6)
        state, _ = random_gate_stack(gaussian.vacuum_state(2), rng, 5)
        mixed = gaussian.apply_beamsplitter(state, 0, 1, 0.0, 0.9)
        np.testing.assert_allclose(mixed.mean, state.mean, atol=1e-12)
        np.testing.assert_allclose(mixed.cov, state.cov, atol=1e-12)

    def test_half_turn_transfers_displacement(self):
        state = gaussian.apply_displacement(gaussian.vacuum_state(2), 0, 1.0, 0.0)
        mixed = gaussian.apply_beamsplitter(state, 0, 1, np.pi / 2, 0.0)
        # layout is (x0, x1, p0, p1): mode 0 empties, mode 1 receives +sqrt(2)
        np.testing.assert_allclose(mixed.mean, [0.0, SQRT2, 0.0, 0.0], atol=1e-12)

    def test_symplectic_for_random_angles(self):
        rng = Rng(7)
        omega = gaussian.symplectic_form(3)
        for _ in range(50):
            s = gaussian.beamsplitter_symplectic(3, 0, 2, rng.uniform(-3, 3), rng.uniform(-3, 3))
            np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-12)

    def test_equal_modes_rejected(self):
        with pytest.raises(ValueError):
            gaussian.apply_beamsplitter(gaussian.vacuum_state(2), 1, 1, 0.3, 0.0)


class TestStageConstructors:
    """A sequence of distinct modes builds the product of the scalar gates."""

    def angles(self, rng, *shape):
        return np.array([rng.uniform(-2, 2) for _ in range(int(np.prod(shape)))]).reshape(shape)

    def test_each_equals_the_product_of_its_scalar_calls(self):
        rng = Rng(9)
        modes, pairs = [2, 0, 3], ([3, 0], [1, 2])
        phi, r, amp = self.angles(rng, 3), self.angles(rng, 3), self.angles(rng, 3)
        theta, bs_phi = self.angles(rng, 2), self.angles(rng, 2)
        stages = [
            (gaussian.rotation_symplectic(4, modes, phi),
             [gaussian.rotation_symplectic(4, m, a) for m, a in zip(modes, phi)]),
            (gaussian.squeeze_symplectic(4, modes, r),
             [gaussian.squeeze_symplectic(4, m, a) for m, a in zip(modes, r)]),
            (gaussian.beamsplitter_symplectic(4, *pairs, theta, bs_phi),
             [gaussian.beamsplitter_symplectic(4, a, b, t, f)
              for a, b, t, f in zip(*pairs, theta, bs_phi)]),
        ]
        for stage, gates in stages:
            product = np.eye(8)
            for gate in gates:
                product = gate @ product
            np.testing.assert_array_equal(stage, product)
        shift = sum(gaussian.displacement_vector(4, m, a, 0.7) for m, a in zip(modes, amp))
        np.testing.assert_array_equal(gaussian.displacement_vector(4, modes, amp, 0.7), shift)

    def test_leading_axes_give_a_stack(self):
        rng = Rng(10)
        phi, theta, bs_phi = self.angles(rng, 2, 3, 4), self.angles(rng, 5, 2), self.angles(rng, 5, 2)
        stack = gaussian.rotation_symplectic(4, range(4), phi)
        assert stack.shape == (2, 3, 8, 8)
        np.testing.assert_array_equal(stack[1, 2], gaussian.rotation_symplectic(4, range(4), phi[1, 2]))
        stack = gaussian.beamsplitter_symplectic(4, (0, 2), (1, 3), theta, bs_phi)
        assert stack.shape == (5, 8, 8)
        np.testing.assert_array_equal(
            stack[3], gaussian.beamsplitter_symplectic(4, (0, 2), (1, 3), theta[3], bs_phi[3])
        )
        shifts = gaussian.displacement_vector(4, range(4), phi[0], 0.0)
        assert shifts.shape == (3, 8)

    @pytest.mark.parametrize("r", [
        [0.1, 20.5, -0.3],
        [0.1, 0.2, -20.5],
        [[0.1, 0.2, 0.3], [0.1, -21.0, 0.2]],
    ])
    def test_squeeze_guard_covers_every_entry(self, r):
        with pytest.raises(ValueError, match="overflow guard"):
            gaussian.squeeze_symplectic(4, [0, 1, 2], np.array(r))

    def test_guard_limit_itself_is_allowed(self):
        s = gaussian.squeeze_symplectic(4, [0, 1], np.array([gaussian.SQUEEZE_LIMIT, -1.0]))
        assert s[0, 0] == np.exp(-gaussian.SQUEEZE_LIMIT)

    @pytest.mark.parametrize("modes", [[1, 1], [0, 4], [-1, 2]])
    def test_repeated_or_out_of_range_modes_rejected(self, modes):
        with pytest.raises(ValueError, match="distinct modes"):
            gaussian.rotation_symplectic(4, modes, np.zeros(2))
        with pytest.raises(ValueError, match="distinct modes"):
            gaussian.beamsplitter_symplectic(4, modes, [2, 3], np.zeros(2), np.zeros(2))


class TestExpectX:
    def test_vacuum(self):
        assert gaussian.expect_x(gaussian.vacuum_state(2), 0) == 0.0

    def test_after_displacement(self):
        state = gaussian.apply_displacement(gaussian.vacuum_state(1), 0, 1.0, 0.0)
        assert gaussian.expect_x(state, 0) == pytest.approx(SQRT2, abs=1e-15)

    def test_after_displacement_and_squeeze(self):
        state = gaussian.apply_displacement(gaussian.vacuum_state(1), 0, 1.0, 0.0)
        state = gaussian.apply_squeeze(state, 0, np.log(2.0))
        assert gaussian.expect_x(state, 0) == pytest.approx(SQRT2 / 2.0, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gaussian.expect_x(gaussian.vacuum_state(1), 1)


class TestInvariants:
    def test_random_stacks_stay_symplectic_and_pure(self):
        rng = Rng(99)
        omega = gaussian.symplectic_form(4)
        for _ in range(60):
            state, total = random_gate_stack(gaussian.vacuum_state(4), rng, 12)
            assert np.abs(total @ omega @ total.T - omega).max() < 1e-10
            np.testing.assert_allclose(state.cov, state.cov.T, atol=1e-12)
            assert gaussian.symplectic_eigenvalues(state.cov).min() > 1.0 - 1e-9

    def test_passive_gates_preserve_cov_trace(self):
        rng = Rng(3)
        state, _ = random_gate_stack(gaussian.vacuum_state(4), rng, 8)
        before = np.trace(state.cov)
        state = gaussian.apply_rotation(state, 2, 0.77)
        state = gaussian.apply_beamsplitter(state, 0, 3, 1.1, 0.0)
        assert np.trace(state.cov) == pytest.approx(before, rel=1e-12)
        squeezed = gaussian.apply_squeeze(state, 1, 0.4)
        assert abs(np.trace(squeezed.cov) - before) > 1e-3

    def test_expect_x_linear_in_encoding(self):
        # doubling the encoding displacement doubles the change in <x>
        # through any fixed downstream Gaussian circuit
        rng = Rng(21)

        def output(amplitude):
            state = gaussian.apply_displacement(gaussian.vacuum_state(2), 0, amplitude, 0.0)
            state = gaussian.apply_rotation(state, 0, 0.6)
            state = gaussian.apply_squeeze(state, 1, -0.4)
            state = gaussian.apply_beamsplitter(state, 0, 1, 0.9, 0.2)
            state = gaussian.apply_displacement(state, 1, 0.31, 0.0)
            return np.array([gaussian.expect_x(state, m) for m in range(2)])

        base = output(0.0)
        delta1 = output(0.5) - base
        delta2 = output(1.0) - base
        np.testing.assert_allclose(delta2, 2.0 * delta1, atol=1e-12)
