"""Gaussian (continuous-variable) state simulator.

An n-mode Gaussian state is fully described by the first and second
moments of its quadrature operators, so the simulator tracks a length-2n
mean vector and a 2n x 2n covariance matrix instead of any Hilbert-space
object. Quadratures are laid out in block order (x1..xn, p1..pn) and the
vacuum covariance is the identity, which puts the uncertainty bound at
"symplectic eigenvalues >= 1" and makes a displacement of amplitude
``r * exp(i*phi)`` shift the mean by ``sqrt(2) * r * (cos phi, sin phi)``.

Gates act affinely on the moments: mean -> S mean + d, cov -> S cov S^T,
with S symplectic (S Omega S^T = Omega). All operations return new states.
Each gate constructor also takes a sequence of distinct modes (or mode
pairs) with one parameter per gate and returns the product of those
gates, so a layer's stage of commuting gates is built in one call. Extra
leading axes on the parameters give a stack of such matrices. The
constructors reject a mode outside [0, n) or a repeated one with
ValueError, which is the only mode check the ``apply_*`` updates need.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

SQUEEZE_LIMIT = 20.0  # exp(20) already exceeds any meaningful dynamic range


@dataclass(frozen=True)
class GaussianState:
    """First and second quadrature moments of an n-mode Gaussian state."""

    num_modes: int
    mean: np.ndarray  # shape (2n,), order (x1..xn, p1..pn)
    cov: np.ndarray   # shape (2n, 2n), symmetric

    def to_json_dict(self) -> dict:
        return {
            "mean": [float(v) for v in self.mean],
            "cov": [float(v) for v in self.cov.reshape(-1)],
        }


def symplectic_form(num_modes: int) -> np.ndarray:
    """Omega = [[0, I], [-I, 0]] in the (x.., p..) block layout."""
    eye = np.eye(num_modes)
    zero = np.zeros((num_modes, num_modes))
    return np.block([[zero, eye], [-eye, zero]])


def vacuum_state(num_modes: int) -> GaussianState:
    if num_modes < 1:
        raise ValueError(f"num_modes must be >= 1, got {num_modes}")
    return GaussianState(
        num_modes=num_modes,
        mean=np.zeros(2 * num_modes),
        cov=np.eye(2 * num_modes),
    )


@functools.lru_cache(maxsize=None)
def _layout(num_modes: int, groups: tuple[tuple[int, ...], ...]):
    """Each gate's quadratures, their blocks' flat positions and the identity.

    ``groups`` holds one tuple per mode slot of a gate (one slot for
    single-mode gates, mode_a and mode_b for beamsplitters), with one entry
    per gate. A gate's quadratures are its modes' x, then their p. The
    positions, shape (b * b, gates), run over the b x b block row-major.
    The gates must act on distinct modes: then they commute, and writing
    their blocks into one matrix is their product.
    """
    flat = [mode for group in groups for mode in group]
    if len(set(flat)) != len(flat) or not all(0 <= mode < num_modes for mode in flat):
        raise ValueError(f"gates need distinct modes in [0, {num_modes}), got {groups}")
    size = 2 * num_modes
    modes = np.array(groups)  # (slots, gates)
    quadratures = np.concatenate([modes, num_modes + modes])  # (b, gates)
    index = (quadratures[:, None] * size + quadratures[None, :]).reshape(-1, modes.shape[1])
    identity = np.eye(size).reshape(-1)
    for array in (quadratures, index, identity):
        array.flags.writeable = False
    return quadratures, index, identity


def _quadratures(num_modes: int, *groups):
    return _layout(num_modes, tuple(tuple(np.asarray(group).reshape(-1).tolist()) for group in groups))


def _embed(num_modes: int, groups: tuple, entries: list) -> np.ndarray:
    """Identity with each gate's b x b block written over its quadratures.

    ``entries`` holds the block's b * b values row-major, each a scalar or
    an array of shape (..., gates); the result has shape (..., 2n, 2n).
    """
    _, index, identity = _quadratures(num_modes, *groups)
    values = np.array(entries)
    lead = values.shape[1:-1]
    stack = np.empty(lead + identity.shape)
    rows = stack.reshape(-1, identity.size)  # one flattened matrix per row, a view
    rows[:] = identity
    # (entries, gates, matrices) against the transposed rows
    rows.T[index] = values.reshape(len(index), -1, index.shape[1]).swapaxes(1, 2)
    return stack.reshape(lead + (2 * num_modes, 2 * num_modes))


def displacement_vector(num_modes: int, mode, r_d, phi_d) -> np.ndarray:
    """Mean shift of D(r_d e^{i phi_d}) on ``mode``.

    Like every gate constructor below, it also takes a sequence of
    distinct modes with parameters of shape (..., modes) and returns the
    combined action of those gates, shape (..., 2n).
    """
    quadratures, _, _ = _quadratures(num_modes, mode)
    amplitude = np.sqrt(2.0) * np.asarray(r_d, dtype=float)
    d = np.zeros(amplitude.shape[:-1] + (2 * num_modes,))
    d[..., quadratures[0]] = amplitude * np.cos(phi_d)
    d[..., quadratures[1]] = amplitude * np.sin(phi_d)
    return d


def rotation_symplectic(num_modes: int, mode, phi) -> np.ndarray:
    c, sn = np.cos(phi), np.sin(phi)
    return _embed(num_modes, (mode,), [c, -sn, sn, c])


def squeeze_symplectic(num_modes: int, mode, r) -> np.ndarray:
    """diag(e^-r, e^r) on (x, p); ValueError when any |r| exceeds ``SQUEEZE_LIMIT``."""
    worst = np.abs(r).max()
    if worst > SQUEEZE_LIMIT:
        raise ValueError(f"squeeze magnitude |{worst}| exceeds overflow guard {SQUEEZE_LIMIT}")
    zero = np.zeros(np.shape(r))
    return _embed(num_modes, (mode,), [np.exp(-r), zero, zero, np.exp(r)])


def beamsplitter_symplectic(num_modes: int, mode_a, mode_b, theta, phi) -> np.ndarray:
    """Two-mode mixing derived from the mode transformation
    a1 -> cos(theta) a1 - e^{i phi} sin(theta) a2,
    a2 -> e^{-i phi} sin(theta) a1 + cos(theta) a2
    via a = (x + i p) / sqrt(2); theta and phi share one shape.
    """
    ct, st = np.cos(theta), np.sin(theta)
    stcp, stsp = st * np.cos(phi), st * np.sin(phi)
    zero = np.zeros(np.shape(ct))
    # block rows and columns (x_a, x_b, p_a, p_b)
    return _embed(num_modes, (mode_a, mode_b), [
        ct, -stcp, zero, stsp,   # x_a' = ct x_a - st (cp x_b - sp p_b)
        stcp, ct, stsp, zero,    # x_b' = st (cp x_a + sp p_a) + ct x_b
        zero, -stsp, ct, -stcp,  # p_a' = ct p_a - st (sp x_b + cp p_b)
        -stsp, zero, stcp, ct,   # p_b' = st (-sp x_a + cp p_a) + ct p_b
    ])


def _apply_symplectic(state: GaussianState, s: np.ndarray) -> GaussianState:
    mean = s @ state.mean
    cov = s @ state.cov @ s.T
    cov = 0.5 * (cov + cov.T)  # re-symmetrize to stop drift over long runs
    return GaussianState(num_modes=state.num_modes, mean=mean, cov=cov)


def apply_displacement(state: GaussianState, mode: int, r_d: float, phi_d: float) -> GaussianState:
    d = displacement_vector(state.num_modes, mode, r_d, phi_d)
    return GaussianState(state.num_modes, state.mean + d, state.cov.copy())


def apply_rotation(state: GaussianState, mode: int, phi: float) -> GaussianState:
    return _apply_symplectic(state, rotation_symplectic(state.num_modes, mode, phi))


def apply_squeeze(state: GaussianState, mode: int, r: float) -> GaussianState:
    return _apply_symplectic(state, squeeze_symplectic(state.num_modes, mode, r))


def apply_beamsplitter(
    state: GaussianState, mode_a: int, mode_b: int, theta: float, phi: float
) -> GaussianState:
    return _apply_symplectic(
        state, beamsplitter_symplectic(state.num_modes, mode_a, mode_b, theta, phi)
    )


def expect_x(state: GaussianState, mode: int) -> float:
    if not 0 <= mode < state.num_modes:
        raise ValueError(f"mode {mode} out of range for {state.num_modes} modes")
    return float(state.mean[mode])


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix (each value once, ascending).

    The eigenvalues of Omega @ cov come in +/- i*nu pairs; physical states
    have every nu >= 1 under the vacuum-covariance-is-identity convention.
    """
    n = cov.shape[0] // 2
    nu = np.abs(np.linalg.eigvals(symplectic_form(n) @ cov))
    return np.sort(nu)[::2]
