"""Exact statevector simulation of small qubit circuits.

Amplitudes are indexed little-endian: bit b of a basis index addresses
qubit b, so |q3 q2 q1 q0> with q0 flipped lives at index 1. Global phase is
never normalized away; only |amplitude|^2 derived quantities are contractual.

Each gate has one definition that both paths below build on: ``rotation``
(RY and RZ), ``cnot_permutation`` and ``z_eigenvalues`` (every <Z_q>).

The reference path runs a circuit gate by gate on amplitude arrays of shape
(..., 2^n), one row per input sample. ``Circuit`` is a flat gate list whose
rotation angles are bound either to a trainable parameter slot or to an
input-vector slot; that split is what lets ``param_shift_grad_all`` shift
exactly one source.

A circuit whose input-bound rotations all come first splits into an
encoding and a variational block, the ops after it. The block does not
depend on the inputs, so ``compile_block`` multiplies it out once, giving
one 2^n x 2^n matrix for any batch, and ``block_adjoint_grad``
differentiates it for a whole batch in one sweep (Jones & Gacon,
arXiv:2009.02823). Both work moment by moment: a moment is a maximal run
of rotations on distinct qubits (one Kronecker product of 2 x 2s) or a
run of CNOTs (one basis permutation). Each circuit plans its moments once,
``Circuit.block_plan``. An RY-only encoding of |0...0> is a real product
state, ``ry_product_state``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 20

GENERATORS = {"ry": [[0.0, -1.0], [1.0, 0.0]], "rz": [[-1j, 0.0], [0.0, 1j]]}  # R(pi): -i Y, -i Z


def _check_qubit(num_qubits: int, qubit: int) -> None:
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")


# --- the gates --------------------------------------------------------------

def rotation(generators, angles) -> np.ndarray:
    """R(theta) = cos(theta/2) I + sin(theta/2) R(pi) for each angle, shape (..., 2, 2).

    ``generators`` is a gate's R(pi), ``GENERATORS[gate]``, or one R(pi)
    per angle, shape (..., 2, 2).
    """
    half = np.asarray(angles, dtype=float)[..., None, None] / 2.0
    return np.cos(half) * np.eye(2) + np.sin(half) * generators


def cnot_permutation(num_qubits: int, control: int, target: int) -> np.ndarray:
    """CNOT as a basis permutation: ``amps[..., perm]`` applies it.

    ValueError unless control and target are distinct qubits in [0, n).
    """
    _check_qubit(num_qubits, control)
    _check_qubit(num_qubits, target)
    if control == target:
        raise ValueError("control and target must differ")
    basis = np.arange(2**num_qubits)
    return basis ^ (((basis >> control) & 1) << target)


@functools.lru_cache(maxsize=None)
def z_eigenvalues(num_qubits: int) -> np.ndarray:
    """(2^n, n) table of Z_q on basis states: +1 where bit q is 0, else -1.

    ``(|amps|**2) @ z_eigenvalues(n)`` is every <Z_q> at once. The table
    is built once per qubit count and is read-only.
    """
    bits = (np.arange(2**num_qubits)[:, None] >> np.arange(num_qubits)) & 1
    table = 1.0 - 2.0 * bits
    table.flags.writeable = False
    return table


def _z_means(amps: np.ndarray, num_qubits: int) -> np.ndarray:
    """<Z_q> per qubit, shape (..., n), of amplitudes (..., 2^n)."""
    return (amps.real**2 + amps.imag**2) @ z_eigenvalues(num_qubits)


# --- gate by gate -----------------------------------------------------------

@dataclass(frozen=True)
class QubitState:
    num_qubits: int
    amplitudes: np.ndarray  # complex, shape (2**num_qubits,)

    def to_json_list(self) -> list[list[float]]:
        return [[float(a.real), float(a.imag)] for a in self.amplitudes]


def zero_state(num_qubits: int) -> QubitState:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = 1.0
    return QubitState(num_qubits, amps)


def apply_1q_array(amps: np.ndarray, mat: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """``mat`` on ``qubit`` of amplitudes (..., 2^n): one 2 x 2, or one per row, (..., 2, 2)."""
    # Index = (lead, higher bits, bit of ``qubit``, lower bits).
    pairs = amps.reshape(amps.shape[:-1] + (-1, 2, 2**qubit))
    return (np.asarray(mat)[..., None, :, :] @ pairs).reshape(amps.shape)


def apply_ry(state: QubitState, qubit: int, phi: float) -> QubitState:
    _check_qubit(state.num_qubits, qubit)
    mat = rotation(GENERATORS["ry"], phi)
    return QubitState(state.num_qubits, apply_1q_array(state.amplitudes, mat, qubit, state.num_qubits))


def apply_rz(state: QubitState, qubit: int, phi: float) -> QubitState:
    _check_qubit(state.num_qubits, qubit)
    mat = rotation(GENERATORS["rz"], phi)
    return QubitState(state.num_qubits, apply_1q_array(state.amplitudes, mat, qubit, state.num_qubits))


def apply_cnot(state: QubitState, control: int, target: int) -> QubitState:
    perm = cnot_permutation(state.num_qubits, control, target)
    return QubitState(state.num_qubits, state.amplitudes[perm])


def expect_z(state: QubitState, qubit: int) -> float:
    _check_qubit(state.num_qubits, qubit)
    return float(_z_means(state.amplitudes, state.num_qubits)[qubit])


# --- parameterized circuits -------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One gate. Rotations take their angle from ``scale * source_value``
    where the source is params[param] or inputs[input_slot] (exactly one);
    cnot ops carry no angle.
    """

    gate: str  # "ry" | "rz" | "cnot"
    qubits: tuple[int, ...]
    param: int | None = None
    input_slot: int | None = None
    scale: float = 1.0


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    ops: tuple[Op, ...] = field(default_factory=tuple)

    def num_params(self) -> int:
        return 1 + max((op.param for op in self.ops if op.param is not None), default=-1)

    @functools.cached_property
    def block_plan(self) -> "BlockPlan":
        """How ``compile_block`` runs the ops after the encoding, built once."""
        return _plan_block(self)


def run_circuit(
    circuit: Circuit,
    params: np.ndarray,
    inputs: np.ndarray,
    angle_override: dict[int, float | np.ndarray] | None = None,
) -> np.ndarray:
    """Final amplitudes, shape (..., 2^n) for inputs of shape (..., k).

    ``angle_override`` maps op positions to additive angle shifts (used by
    the parameter-shift rule); a shift may be an array broadcastable over
    the lead dimensions, which lets many shifted circuit variants run as
    one stacked evaluation.
    """
    inputs = np.asarray(inputs, dtype=float)
    n = circuit.num_qubits
    shifts = angle_override or {}
    amps = np.zeros(inputs.shape[:-1] + (2**n,), dtype=complex)
    amps[..., 0] = 1.0
    for pos, op in enumerate(circuit.ops):
        if op.gate == "cnot":
            amps = amps[..., cnot_permutation(n, *op.qubits)]
            continue
        source = params[op.param] if op.param is not None else inputs[..., op.input_slot]
        angle = op.scale * source + shifts.get(pos, 0.0)
        amps = apply_1q_array(amps, rotation(GENERATORS[op.gate], angle), op.qubits[0], n)
    return amps


def circuit_expectations(
    circuit: Circuit,
    params: np.ndarray,
    inputs: np.ndarray,
    angle_override: dict[int, float | np.ndarray] | None = None,
) -> np.ndarray:
    """<Z_q> per qubit, shape (..., num_qubits); see ``run_circuit``."""
    return _z_means(run_circuit(circuit, params, inputs, angle_override), circuit.num_qubits)


def param_shift_grad_all(
    circuit: Circuit, params: np.ndarray, inputs: np.ndarray, wrt: str = "param"
) -> np.ndarray:
    """d<Z_q>/d source[j] for every source j, exact for RY/RZ.

    ``wrt`` names the ``Op`` field to differentiate: "param" gives
    d/d params[j] with shape (num_params, ..., n), "input_slot" gives
    d/d inputs[..., j] with shape (k, ..., n). Each rotation bound to
    source j contributes scale * [f(angle + pi/2) - f(angle - pi/2)] / 2.
    All 2 * (number of such rotations) shifted circuits run as a single
    stacked evaluation over one extra lead axis, which is what keeps
    training batches fast.
    """
    if wrt not in ("param", "input_slot"):
        raise ValueError(f"wrt must be 'param' or 'input_slot', got {wrt!r}")
    occurrences = [
        (pos, getattr(op, wrt), op.scale)
        for pos, op in enumerate(circuit.ops)
        if getattr(op, wrt) is not None and op.gate in ("ry", "rz")
    ]
    if not occurrences:
        raise ValueError(f"no ry/rz gate is bound to a {wrt}; the shift rule needs one")
    inputs = np.asarray(inputs, dtype=float)
    lead = inputs.shape[:-1]
    count = circuit.num_params() if wrt == "param" else inputs.shape[-1]
    grads = np.zeros((count,) + lead + (circuit.num_qubits,))
    variants = 2 * len(occurrences)
    stacked = np.broadcast_to(inputs, (variants,) + inputs.shape)
    # row occ shifts variant 2 occ by +pi/2 and variant 2 occ + 1 by -pi/2
    shifts = np.pi / 2.0 * np.kron(np.eye(len(occurrences)), [1.0, -1.0])
    column = (variants,) + (1,) * len(lead)
    override = {pos: shifts[occ].reshape(column) for occ, (pos, _, _) in enumerate(occurrences)}
    expectations = circuit_expectations(circuit, params, stacked, override)  # (variants, *lead, n)
    for occ, (_, index, scale) in enumerate(occurrences):
        grads[index] += scale * 0.5 * (expectations[2 * occ] - expectations[2 * occ + 1])
    return grads


# --- compiled variational blocks ---------------------------------------------

def ry_product_state(angles: np.ndarray) -> np.ndarray:
    """RY(angles[..., q]) on every qubit q of |0...0>, shape (..., 2^n).

    The state is a product of (cos a_q/2, sin a_q/2) factors, so it is real.
    """
    half = np.asarray(angles, dtype=float)[..., None, :] / 2.0
    bits = z_eigenvalues(half.shape[-1]) < 0  # where each amplitude has bit q set
    return np.where(bits, np.sin(half), np.cos(half)).prod(axis=-1)


def ry_product_state_jacobian(angles: np.ndarray) -> np.ndarray:
    """d ``ry_product_state`` / d angles[..., q], shape (..., n, 2^n).

    d/da (cos a/2, sin a/2) = (cos (a + pi)/2, sin (a + pi)/2) / 2, so row q
    is half the product state with angle q moved by pi.
    """
    angles = np.asarray(angles, dtype=float)
    return 0.5 * ry_product_state(angles[..., None, :] + np.pi * np.eye(angles.shape[-1]))


@dataclass(frozen=True)
class BlockPlan:
    """A circuit's variational block grouped into moments.

    A moment is a maximal run of rotations on distinct qubits, or a run of
    CNOTs. ``steps`` runs the block in order: an int k applies rotation
    moment k, an index array ``perm`` maps amplitudes ``psi -> psi[perm]``
    for a CNOT run. The remaining arrays list the block's rotations in
    order: their moment, qubit, parameter and scale; their gate's R(pi),
    which ``rotation`` takes; and ``block_entries``, where entry (a, b) of
    the rotation's qubit block lies in its moment's stacked 2^n x 2^n
    matrices, once per state of the other qubits.
    """

    steps: tuple[int | np.ndarray, ...]
    num_moments: int
    num_params: int
    moment: np.ndarray
    qubit: np.ndarray
    param: np.ndarray
    scale: np.ndarray
    generators: np.ndarray  # (rotations, 2, 2)
    block_entries: np.ndarray  # (rotations, 2, 2, 2^(n-1)) flat positions


def _plan_block(circuit: Circuit) -> BlockPlan:
    start = 1 + max((i for i, op in enumerate(circuit.ops) if op.input_slot is not None), default=-1)
    if any(op.input_slot is None for op in circuit.ops[:start]):
        raise ValueError("the input-bound ops must all come before the block's ops")
    basis = np.arange(2**circuit.num_qubits)
    steps: list[int | np.ndarray] = []
    rotations: list[tuple[int, Op]] = []  # (moment, op)
    num_moments = 0
    busy: set[int] | None = None  # qubits of the open rotation moment
    for op in circuit.ops[start:]:
        if op.gate == "cnot":
            flip = cnot_permutation(circuit.num_qubits, *op.qubits)
            if busy is None and steps:
                steps[-1] = steps[-1][flip]  # extend the open CNOT run
            else:
                steps.append(flip)
            busy = None
            continue
        if op.param is None:
            raise ValueError("every op after the encoding must be a cnot or bound to a parameter")
        if busy is None or op.qubits[0] in busy:
            steps.append(num_moments)
            num_moments += 1
            busy = set()
        busy.add(op.qubits[0])
        rotations.append((num_moments - 1, op))
    generators = np.array([GENERATORS[op.gate] for _, op in rotations], dtype=complex)
    moment = np.array([moment for moment, _ in rotations], dtype=int)
    qubit = np.array([op.qubits[0] for _, op in rotations], dtype=int)
    clear = np.array([basis[(basis >> q) & 1 == 0] for q in range(circuit.num_qubits)])
    rest = clear[qubit][:, None, None, :]  # basis states with the rotation's qubit at 0
    bit = (1 << qubit)[:, None, None, None]
    a, b = np.arange(2)[:, None, None], np.arange(2)[None, :, None]
    size = len(basis)
    return BlockPlan(
        steps=tuple(steps),
        num_moments=num_moments,
        num_params=circuit.num_params(),
        moment=moment,
        qubit=qubit,
        param=np.array([op.param for _, op in rotations], dtype=int),
        scale=np.array([op.scale for _, op in rotations], dtype=float),
        generators=generators.reshape(-1, 2, 2),
        block_entries=(moment[:, None, None, None] * size + rest + a * bit) * size + rest + b * bit,
    )


@dataclass(frozen=True)
class CompiledBlock:
    """A circuit's variational block, bound to parameter values.

    ``prefixes[k]`` is the product of the block's ops through the end of
    rotation moment k, transposed: a row stack of states leaves those ops
    as ``states @ prefixes[k]``. ``transfer`` is the whole block, U^T.
    """

    circuit: Circuit
    plan: BlockPlan
    prefixes: np.ndarray  # (moments, 2^n, 2^n)
    transfer: np.ndarray


def compile_block(circuit: Circuit, params: np.ndarray) -> CompiledBlock:
    """Build each moment as one 2^n x 2^n matrix and multiply them out once.

    Every rotation's 2 x 2 comes from one ``rotation`` call; a
    rotation moment is the Kronecker product of its qubits' 2 x 2s
    (identity on the qubits it leaves alone), and a CNOT run is a column
    permutation.
    """
    plan = circuit.block_plan
    n = circuit.num_qubits
    angles = plan.scale * np.asarray(params, dtype=float)[plan.param]
    factors = np.broadcast_to(np.eye(2, dtype=complex), (plan.num_moments, n, 2, 2)).copy()
    factors[plan.moment, plan.qubit] = rotation(plan.generators, angles)
    moments = factors[:, n - 1]
    for qubit in range(n - 2, -1, -1):  # qubit 0 is the least significant bit
        size = 2 * moments.shape[-1]
        moments = (moments[:, :, None, :, None] * factors[:, qubit, None, :, None, :]).reshape(
            -1, size, size
        )
    rows = np.eye(2**n, dtype=complex)
    prefixes = []
    for step in plan.steps:
        if isinstance(step, int):
            rows = rows @ moments[step].T
            prefixes.append(rows)
        else:
            rows = rows[:, step]
    return CompiledBlock(circuit, plan, np.reshape(prefixes, (-1, 2**n, 2**n)), rows)


def block_expectations(block: CompiledBlock, states: np.ndarray) -> np.ndarray:
    """<Z_q> per qubit after the block, shape (..., n), for states (..., 2^n)."""
    return _z_means(states @ block.transfer, block.circuit.num_qubits)


def block_adjoint_grad(block: CompiledBlock, weights: np.ndarray) -> np.ndarray:
    """d/d params[j] of L = sum_q tr(Z_q U W_q U^dagger), for every j, in one sweep.

    ``weights`` holds one real symmetric 2^n x 2^n matrix W_q per qubit q.
    For W_q = sum_m c[m, q] psi_m psi_m^T over real input states psi_m, L
    is sum_{m,q} c[m, q] <Z_q>_m, and its gradient costs the same for any
    batch size.

    With P the product of the ops through a rotation R(theta) and
    dR/dtheta = R(pi) R(theta) / 2, the rotation adds
    Re tr(R(pi) P T P^dagger), where T = sum_q W_q U^dagger Z_q U is
    built once from the adjoint observables (Jones & Gacon,
    arXiv:2009.02823). R(pi) commutes with the other rotations of its
    moment, so P may run through the end of the moment: one P T P^dagger
    per moment serves all its rotations, each reading its qubit's 2 x 2
    block (the partial trace over the other qubits).
    """
    plan = block.plan
    transfer = block.transfer
    z = z_eigenvalues(block.circuit.num_qubits)
    observables = (transfer.conj()[None] * z.T[:, None, :]) @ transfer.T
    product = (weights @ observables).sum(axis=0)  # T
    moved = np.swapaxes(block.prefixes, 1, 2) @ product @ block.prefixes.conj()
    blocks = moved.reshape(-1)[plan.block_entries].sum(axis=-1)  # (rotations, 2, 2)
    parts = plan.scale * np.einsum("rab,rba->r", plan.generators, blocks).real
    grads = np.zeros(plan.num_params)
    np.add.at(grads, plan.param, parts)
    return grads
