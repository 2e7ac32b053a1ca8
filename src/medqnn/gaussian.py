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
"""

from __future__ import annotations

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


def _check_mode(state: GaussianState, mode: int) -> None:
    if not 0 <= mode < state.num_modes:
        raise ValueError(f"mode {mode} out of range for {state.num_modes} modes")


def displacement_vector(num_modes: int, mode: int, r_d: float, phi_d: float) -> np.ndarray:
    d = np.zeros(2 * num_modes)
    d[mode] = np.sqrt(2.0) * r_d * np.cos(phi_d)
    d[num_modes + mode] = np.sqrt(2.0) * r_d * np.sin(phi_d)
    return d


def rotation_symplectic(num_modes: int, mode: int, phi: float) -> np.ndarray:
    s = np.eye(2 * num_modes)
    c, sn = np.cos(phi), np.sin(phi)
    x, p = mode, num_modes + mode
    s[x, x], s[x, p] = c, -sn
    s[p, x], s[p, p] = sn, c
    return s


def squeeze_symplectic(num_modes: int, mode: int, r: float) -> np.ndarray:
    if abs(r) > SQUEEZE_LIMIT:
        raise ValueError(f"squeeze magnitude |{r}| exceeds overflow guard {SQUEEZE_LIMIT}")
    s = np.eye(2 * num_modes)
    s[mode, mode] = np.exp(-r)
    s[num_modes + mode, num_modes + mode] = np.exp(r)
    return s


def beamsplitter_symplectic(
    num_modes: int, mode_a: int, mode_b: int, theta: float, phi: float
) -> np.ndarray:
    """Two-mode mixing derived from the mode transformation
    a1 -> cos(theta) a1 - e^{i phi} sin(theta) a2,
    a2 -> e^{-i phi} sin(theta) a1 + cos(theta) a2
    via a = (x + i p) / sqrt(2).
    """
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    s = np.eye(2 * num_modes)
    xa, pa = mode_a, num_modes + mode_a
    xb, pb = mode_b, num_modes + mode_b
    # x_a' = ct x_a - st (cp x_b - sp p_b)
    s[xa, xa], s[xa, xb], s[xa, pb] = ct, -st * cp, st * sp
    # p_a' = ct p_a - st (sp x_b + cp p_b)
    s[pa, pa], s[pa, xb], s[pa, pb] = ct, -st * sp, -st * cp
    # x_b' = st (cp x_a + sp p_a) + ct x_b
    s[xb, xb], s[xb, xa], s[xb, pa] = ct, st * cp, st * sp
    # p_b' = st (-sp x_a + cp p_a) + ct p_b
    s[pb, pb], s[pb, xa], s[pb, pa] = ct, -st * sp, st * cp
    return s


def _apply_symplectic(state: GaussianState, s: np.ndarray) -> GaussianState:
    mean = s @ state.mean
    cov = s @ state.cov @ s.T
    cov = 0.5 * (cov + cov.T)  # re-symmetrize to stop drift over long runs
    return GaussianState(num_modes=state.num_modes, mean=mean, cov=cov)


def apply_displacement(state: GaussianState, mode: int, r_d: float, phi_d: float) -> GaussianState:
    _check_mode(state, mode)
    d = displacement_vector(state.num_modes, mode, r_d, phi_d)
    return GaussianState(state.num_modes, state.mean + d, state.cov.copy())


def apply_rotation(state: GaussianState, mode: int, phi: float) -> GaussianState:
    _check_mode(state, mode)
    return _apply_symplectic(state, rotation_symplectic(state.num_modes, mode, phi))


def apply_squeeze(state: GaussianState, mode: int, r: float) -> GaussianState:
    _check_mode(state, mode)
    return _apply_symplectic(state, squeeze_symplectic(state.num_modes, mode, r))


def apply_beamsplitter(
    state: GaussianState, mode_a: int, mode_b: int, theta: float, phi: float
) -> GaussianState:
    _check_mode(state, mode_a)
    _check_mode(state, mode_b)
    if mode_a == mode_b:
        raise ValueError("beamsplitter needs two distinct modes")
    return _apply_symplectic(
        state, beamsplitter_symplectic(state.num_modes, mode_a, mode_b, theta, phi)
    )


def expect_x(state: GaussianState, mode: int) -> float:
    _check_mode(state, mode)
    return float(state.mean[mode])


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix (each value once, ascending).

    The eigenvalues of Omega @ cov come in +/- i*nu pairs; physical states
    have every nu >= 1 under the vacuum-covariance-is-identity convention.
    """
    n = cov.shape[0] // 2
    nu = np.abs(np.linalg.eigvals(symplectic_form(n) @ cov))
    return np.sort(nu)[::2]
