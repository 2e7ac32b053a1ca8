import numpy as np
import pytest

from medqnn import statevector as sv
from medqnn.rng import Rng


def random_circuit_ops(rng: Rng, num_qubits: int, depth: int):
    ops = []
    for _ in range(depth):
        kind = rng.integer(3)
        if kind == 0:
            ops.append(("ry", rng.integer(num_qubits), rng.uniform(-np.pi, np.pi)))
        elif kind == 1:
            ops.append(("rz", rng.integer(num_qubits), rng.uniform(-np.pi, np.pi)))
        else:
            control = rng.integer(num_qubits)
            target = (control + 1 + rng.integer(num_qubits - 1)) % num_qubits
            ops.append(("cnot", control, target))
    return ops


def apply_ops(state, ops):
    for gate, a, b in ops:
        if gate == "ry":
            state = sv.apply_ry(state, a, b)
        elif gate == "rz":
            state = sv.apply_rz(state, a, b)
        else:
            state = sv.apply_cnot(state, a, b)
    return state


def random_state(rng: Rng, num_qubits: int) -> sv.QubitState:
    amps = np.array(
        [rng.normal() + 1j * rng.normal() for _ in range(2**num_qubits)]
    )
    amps /= np.linalg.norm(amps)
    return sv.QubitState(num_qubits, amps)


class TestZeroState:
    def test_single_qubit(self):
        state = sv.zero_state(1)
        np.testing.assert_array_equal(state.amplitudes, [1.0, 0.0])

    def test_four_qubits(self):
        state = sv.zero_state(4)
        assert state.amplitudes.shape == (16,)
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_bounds(self):
        with pytest.raises(ValueError):
            sv.zero_state(0)
        with pytest.raises(ValueError):
            sv.zero_state(21)


class TestRy:
    def test_pi_flips(self):
        state = sv.apply_ry(sv.zero_state(1), 0, np.pi)
        np.testing.assert_allclose(np.abs(state.amplitudes), [0.0, 1.0], atol=1e-15)
        assert sv.expect_z(state, 0) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_is_identity(self):
        rng = Rng(1)
        state = random_state(rng, 3)
        out = sv.apply_ry(state, 1, 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_half_pi_balances(self):
        state = sv.apply_ry(sv.zero_state(1), 0, np.pi / 2)
        np.testing.assert_allclose(
            state.amplitudes, [np.cos(np.pi / 4), np.sin(np.pi / 4)], atol=1e-15
        )
        assert sv.expect_z(state, 0) == pytest.approx(0.0, abs=1e-15)


class TestRz:
    def test_basis_state_invariant_up_to_phase(self):
        state = sv.apply_rz(sv.zero_state(2), 0, 1.234)
        assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-15)
        assert sv.expect_z(state, 0) == pytest.approx(1.0, abs=1e-15)

    def test_superposition_phases(self):
        plus = sv.QubitState(1, np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
        state = sv.apply_rz(plus, 0, np.pi)
        expected = np.array([np.exp(-0.5j * np.pi), np.exp(0.5j * np.pi)]) / np.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_z_expectation_invariant(self):
        rng = Rng(2)
        for _ in range(20):
            state = random_state(rng, 4)
            qubit = rng.integer(4)
            before = sv.expect_z(state, qubit)
            after = sv.expect_z(sv.apply_rz(state, qubit, rng.uniform(-4, 4)), qubit)
            assert after == pytest.approx(before, abs=1e-12)


class TestCnot:
    def test_flips_target_when_control_set(self):
        # |10> with qubit 1 as control: amplitude index 2 -> index 3 (|11>)
        state = sv.QubitState(2, np.array([0, 0, 1, 0], dtype=complex))
        out = sv.apply_cnot(state, control=1, target=0)
        np.testing.assert_array_equal(out.amplitudes, [0, 0, 0, 1])

    def test_identity_on_zero(self):
        out = sv.apply_cnot(sv.zero_state(2), 0, 1)
        np.testing.assert_array_equal(out.amplitudes, sv.zero_state(2).amplitudes)

    def test_involution(self):
        rng = Rng(3)
        for _ in range(10):
            state = random_state(rng, 4)
            twice = sv.apply_cnot(sv.apply_cnot(state, 2, 0), 2, 0)
            np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            sv.apply_cnot(sv.zero_state(2), 1, 1)


class TestExpectZ:
    def test_zero_state(self):
        assert sv.expect_z(sv.zero_state(3), 2) == 1.0

    def test_range(self):
        rng = Rng(4)
        for _ in range(20):
            state = random_state(rng, 3)
            z = sv.expect_z(state, rng.integer(3))
            assert -1.0 <= z <= 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sv.expect_z(sv.zero_state(2), 2)


class TestCircuitInvariants:
    def test_norm_preserved(self):
        rng = Rng(5)
        for _ in range(30):
            state = apply_ops(sv.zero_state(4), random_circuit_ops(rng, 4, 15))
            norm = np.sum(np.abs(state.amplitudes) ** 2)
            assert abs(norm - 1.0) < 1e-12

    def test_inverse_circuit_recovers_input(self):
        rng = Rng(6)
        for _ in range(10):
            ops = random_circuit_ops(rng, 4, 12)
            state = random_state(rng, 4)
            forward = apply_ops(state, ops)
            inverse = [
                (gate, a, -b if gate in ("ry", "rz") else b) for gate, a, b in reversed(ops)
            ]
            back = apply_ops(forward, inverse)
            np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)


def shift_one_source(circuit, params, inputs, field, index):
    """Oracle: the shift rule for one parameter or input slot, one gate at a time."""
    grad = 0.0
    for pos, op in enumerate(circuit.ops):
        if getattr(op, field) != index:
            continue
        plus = sv.circuit_expectations(circuit, params, inputs, {pos: np.pi / 2.0})
        minus = sv.circuit_expectations(circuit, params, inputs, {pos: -np.pi / 2.0})
        grad = grad + op.scale * 0.5 * (plus - minus)
    return grad


class TestParamShift:
    def single_ry_circuit(self):
        return sv.Circuit(num_qubits=1, ops=(sv.Op("ry", (0,), param=0),))

    def test_zero_angle_gradient(self):
        circuit = self.single_ry_circuit()
        grad = sv.param_shift_grad_all(circuit, np.array([0.0]), np.zeros(0))
        assert grad.shape == (1, 1)
        assert grad[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_half_pi_gradient(self):
        # <Z> = cos(theta), so the derivative at pi/2 is -1
        circuit = self.single_ry_circuit()
        grad = sv.param_shift_grad_all(circuit, np.array([np.pi / 2]), np.zeros(0))
        assert grad[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_finite_difference_on_random_circuits(self):
        rng = Rng(7)
        eps = 1e-5
        for _ in range(20):
            ops = []
            param_count = 0
            for _ in range(10):
                kind = rng.integer(3)
                if kind == 0:
                    ops.append(sv.Op("ry", (rng.integer(4),), param=param_count))
                    param_count += 1
                elif kind == 1:
                    ops.append(sv.Op("rz", (rng.integer(4),), param=param_count))
                    param_count += 1
                else:
                    c = rng.integer(4)
                    t = (c + 1 + rng.integer(3)) % 4
                    ops.append(sv.Op("cnot", (c, t)))
            if param_count == 0:
                continue
            circuit = sv.Circuit(num_qubits=4, ops=tuple(ops))
            params = np.array([rng.uniform(-np.pi, np.pi) for _ in range(param_count)])
            index = rng.integer(param_count)
            exact = sv.param_shift_grad_all(circuit, params, np.zeros(0))[index]
            up, down = params.copy(), params.copy()
            up[index] += eps
            down[index] -= eps
            fd = (
                sv.circuit_expectations(circuit, up, np.zeros(0))
                - sv.circuit_expectations(circuit, down, np.zeros(0))
            ) / (2 * eps)
            np.testing.assert_allclose(exact, fd, atol=1e-6)

    def test_stacked_all_params_matches_single_param_path(self):
        rng = Rng(8)
        ops = [sv.Op("ry", (q,), input_slot=q, scale=np.pi) for q in range(3)]
        for j in range(6):
            gate = "ry" if j % 2 else "rz"
            ops.append(sv.Op(gate, (j % 3,), param=j))
        ops.append(sv.Op("cnot", (0, 1)))
        circuit = sv.Circuit(num_qubits=3, ops=tuple(ops))
        params = np.array([rng.uniform(-np.pi, np.pi) for _ in range(6)])
        inputs = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(4)])
        stacked = sv.param_shift_grad_all(circuit, params, inputs)
        assert stacked.shape == (6, 4, 3)
        for j in range(6):
            single = shift_one_source(circuit, params, inputs, "param", j)
            np.testing.assert_allclose(stacked[j], single, atol=1e-13)
        stacked_inputs = sv.param_shift_grad_all(circuit, params, inputs, wrt="input_slot")
        assert stacked_inputs.shape == (3, 4, 3)
        for slot in range(3):
            single = shift_one_source(circuit, params, inputs, "input_slot", slot)
            np.testing.assert_allclose(stacked_inputs[slot], single, atol=1e-13)

    def test_input_slot_gradient_matches_finite_difference(self):
        rng = Rng(9)
        eps = 1e-6
        circuit = sv.Circuit(
            num_qubits=2,
            ops=(
                sv.Op("ry", (0,), input_slot=0, scale=np.pi),
                sv.Op("rz", (1,), input_slot=1, scale=2.0),
                sv.Op("ry", (1,), input_slot=1, scale=np.pi),
                sv.Op("ry", (0,), param=0),
                sv.Op("cnot", (0, 1)),
                sv.Op("ry", (1,), param=1),
            ),
        )
        for _ in range(10):
            params = np.array([rng.uniform(-np.pi, np.pi) for _ in range(2)])
            inputs = np.array([rng.uniform(-1, 1) for _ in range(2)])
            exact = sv.param_shift_grad_all(circuit, params, inputs, wrt="input_slot")
            for slot in range(2):
                up, down = inputs.copy(), inputs.copy()
                up[slot] += eps
                down[slot] -= eps
                fd = (
                    sv.circuit_expectations(circuit, params, up)
                    - sv.circuit_expectations(circuit, params, down)
                ) / (2 * eps)
                np.testing.assert_allclose(exact[slot], fd, atol=1e-8)

    def test_parameter_on_no_rotation_rejected(self):
        circuit = sv.Circuit(num_qubits=2, ops=(sv.Op("cnot", (0, 1)),))
        with pytest.raises(ValueError):
            sv.param_shift_grad_all(circuit, np.zeros(1), np.zeros(0))
        with pytest.raises(ValueError):
            sv.param_shift_grad_all(circuit, np.zeros(1), np.zeros(1), wrt="input_slot")
        with pytest.raises(ValueError):
            sv.param_shift_grad_all(self.single_ry_circuit(), np.zeros(1), np.zeros(0), wrt="qubit")

    def test_batched_inputs_match_loop(self):
        circuit = sv.Circuit(
            num_qubits=2,
            ops=(
                sv.Op("ry", (0,), input_slot=0, scale=np.pi),
                sv.Op("ry", (1,), input_slot=1, scale=np.pi),
                sv.Op("rz", (0,), param=0),
                sv.Op("cnot", (0, 1)),
            ),
        )
        params = np.array([0.37])
        inputs = np.array([[0.1, -0.4], [0.9, 0.2], [-0.6, 0.6]])
        batched = sv.circuit_expectations(circuit, params, inputs)
        for row in range(3):
            single = sv.circuit_expectations(circuit, params, inputs[row])
            np.testing.assert_allclose(batched[row], single, atol=1e-14)



def encoded_random_circuit(rng, num_qubits, block_ops):
    """RY(pi * input) on every qubit, then a random block of rotations and
    CNOTs whose parameters repeat and carry scales, as the shift rule allows."""
    ops = [sv.Op("ry", (q,), input_slot=q, scale=np.pi) for q in range(num_qubits)]
    ops.append(sv.Op("ry", (0,), param=5))  # every parameter slot is used at least once
    for _ in range(block_ops):
        if rng.integer(4) == 0:
            c = rng.integer(num_qubits)
            ops.append(sv.Op("cnot", (c, (c + 1 + rng.integer(num_qubits - 1)) % num_qubits)))
        else:
            gate = "ry" if rng.integer(2) else "rz"
            ops.append(sv.Op(gate, (rng.integer(num_qubits),), param=rng.integer(6),
                             scale=rng.uniform(0.5, 2.0)))
    return sv.Circuit(num_qubits=num_qubits, ops=tuple(ops))


class TestCompiledBlock:
    def random_case(self, rng, rows):
        circuit = encoded_random_circuit(rng, 3, 14)
        params = np.array([rng.uniform(-np.pi, np.pi) for _ in range(circuit.num_params())])
        inputs = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(rows)])
        return circuit, params, inputs

    def test_product_state_is_the_encoding(self):
        rng = Rng(10)
        encoding = sv.Circuit(
            num_qubits=3, ops=tuple(sv.Op("ry", (q,), input_slot=q) for q in range(3))
        )
        angles = np.array([[rng.uniform(-4, 4) for _ in range(3)] for _ in range(6)])
        np.testing.assert_allclose(
            sv.ry_product_state(angles), sv.run_circuit(encoding, np.zeros(0), angles), atol=1e-15
        )
        exact = sv.ry_product_state_jacobian(angles)
        eps = 1e-6
        for q in range(3):
            step = np.zeros(3)
            step[q] = eps
            fd = (sv.ry_product_state(angles + step) - sv.ry_product_state(angles - step)) / (2 * eps)
            np.testing.assert_allclose(exact[:, q], fd, atol=1e-9)

    def test_matches_gate_by_gate_circuit(self):
        rng = Rng(11)
        for _ in range(10):
            circuit, params, inputs = self.random_case(rng, 5)
            states = sv.ry_product_state(np.pi * inputs)
            block = sv.compile_block(circuit, params)
            np.testing.assert_allclose(
                states @ block.transfer, sv.run_circuit(circuit, params, inputs), atol=1e-13
            )
            np.testing.assert_allclose(
                sv.block_expectations(block, states),
                sv.circuit_expectations(circuit, params, inputs),
                atol=1e-13,
            )

    def test_adjoint_grad_matches_shift_rule(self):
        rng = Rng(12)
        for rows in (1, 7):
            for _ in range(5):
                circuit, params, inputs = self.random_case(rng, rows)
                weights_per_row = np.array(
                    [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(rows)]
                )
                states = sv.ry_product_state(np.pi * inputs)
                weights = np.einsum("mq,mi,mj->qij", weights_per_row, states, states)
                exact = sv.block_adjoint_grad(sv.compile_block(circuit, params), weights)
                shifted = sv.param_shift_grad_all(circuit, params, inputs)
                oracle = np.einsum("jmq,mq->j", shifted, weights_per_row)
                np.testing.assert_allclose(exact, oracle, atol=1e-12)

    def test_moment_mixing_gates_with_a_repeated_parameter(self):
        ops = [sv.Op("ry", (q,), input_slot=q, scale=np.pi) for q in range(3)]
        ops += [
            sv.Op("ry", (0,), param=0, scale=1.3),  # moment 0: RY and RZ, parameter 0 twice
            sv.Op("rz", (1,), param=0, scale=-0.7),
            sv.Op("ry", (2,), param=1),
            sv.Op("cnot", (0, 1)),  # one CNOT run
            sv.Op("cnot", (1, 2)),
            sv.Op("rz", (2,), param=2),  # moment 1
            sv.Op("ry", (0,), param=2, scale=0.5),
            sv.Op("rz", (1,), param=1),
            sv.Op("rz", (2,), param=0),  # qubit 2 again: moment 2
        ]
        circuit = sv.Circuit(num_qubits=3, ops=tuple(ops))
        plan = circuit.block_plan
        assert plan.num_moments == 3 and len(plan.steps) == 4
        assert plan.moment.tolist() == [0, 0, 0, 1, 1, 1, 2]
        rng = Rng(13)
        params = np.array([rng.uniform(-np.pi, np.pi) for _ in range(3)])
        inputs = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(4)])
        weights_per_row = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(4)])
        states = sv.ry_product_state(np.pi * inputs)
        block = sv.compile_block(circuit, params)
        np.testing.assert_allclose(
            states @ block.transfer, sv.run_circuit(circuit, params, inputs), atol=1e-13
        )
        weights = np.einsum("mq,mi,mj->qij", weights_per_row, states, states)
        exact = sv.block_adjoint_grad(block, weights)
        shifted = sv.param_shift_grad_all(circuit, params, inputs)
        np.testing.assert_allclose(
            exact, np.einsum("jmq,mq->j", shifted, weights_per_row), rtol=0, atol=1e-12
        )

    def test_plan_is_built_once_per_circuit(self):
        circuit = encoded_random_circuit(Rng(14), 3, 10)
        assert circuit.block_plan is circuit.block_plan
        assert sv.z_eigenvalues(3) is sv.z_eigenvalues(3)
        assert not sv.z_eigenvalues(3).flags.writeable

    @pytest.mark.parametrize("qubits", [(1, 1), (0, 3), (3, 0), (-1, 0)])
    def test_bad_cnot_rejected(self, qubits):
        circuit = sv.Circuit(
            num_qubits=3,
            ops=(sv.Op("ry", (0,), input_slot=0), sv.Op("ry", (1,), param=0), sv.Op("cnot", qubits)),
        )
        with pytest.raises(ValueError):
            sv.compile_block(circuit, np.zeros(1))
        with pytest.raises(ValueError):
            sv.run_circuit(circuit, np.zeros(1), np.zeros((2, 1)))

    def test_block_must_follow_the_encoding(self):
        circuit = sv.Circuit(
            num_qubits=2,
            ops=(sv.Op("ry", (0,), param=0), sv.Op("ry", (1,), input_slot=0)),
        )
        with pytest.raises(ValueError):
            sv.compile_block(circuit, np.zeros(1))
