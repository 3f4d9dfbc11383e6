"""Two-qubit operator algebra in the Pauli basis.

Convention: sigma_1 = X, sigma_2 = Y, sigma_3 = Z, computational basis
ordered |00>, |01>, |10>, |11>. A Hermitian 4x4 operator is written as

    rho = (weight * I4 + sum_i ra_i s_i x I + sum_j rb_j I x s_j
           + sum_ij t_ij s_i x s_j) / 4

and PauliForm holds the tuple (weight, ra, rb, t). One table of the sixteen
products s_i x s_j (s_0 = I) serves the expansion, the assembly and the
Theta map. The state classifier decides quantumness and separability
eagerly from two eigenvalue computations and runs the block-positivity
descent only when its result is first read. The descent is one stacked
core over n forms, each with its own seed and its own convergence stop;
block_positivity_minimum is its one-form wrapper, and the verification
battery's rigidity check runs it on whole stacks. The random state
samplers that the battery draws from live in oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
PAULI.setflags(write=False)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

# _PRODUCTS[i, j] = s_i x s_j with s_0 = I2.
_PRODUCTS = np.array([[np.kron(x, y) for y in (I2, *PAULI)] for x in (I2, *PAULI)])
_PRODUCTS.setflags(write=False)

_HERM_TOL = 1e-10
_PSD_TOL = 1e-9
_BLOCK_POS_TOL = 1e-7

# |Phi+> = (|00> + |11>) / sqrt(2)
PHI_PLUS_VEC = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PHI_PLUS = np.outer(PHI_PLUS_VEC, PHI_PLUS_VEC.conj())
PHI_PLUS.setflags(write=False)


@dataclass
class PauliForm:
    weight: float
    ra: np.ndarray      # local Bloch vector, first qubit
    rb: np.ndarray      # local Bloch vector, second qubit
    t: np.ndarray       # 3x3 correlation block


@dataclass(frozen=True, eq=False)
class StateClass:
    """Place of a state in the hierarchy quantum, separable, block positive.

    ``is_quantum`` and ``is_separable`` are decided when classify_state
    builds the record. ``is_block_positive`` and ``min_product_overlap``
    come from one block_positivity_minimum run with its default restarts
    and seed, started on the first read of either and cached.
    """

    is_quantum: bool
    is_separable: bool
    rho: np.ndarray = field(repr=False)   # read-only copy of the state

    @cached_property
    def _product_minimum(self) -> float:
        value, _, _ = block_positivity_minimum(pauli_expand(self.rho))
        return value

    @property
    def is_block_positive(self) -> bool:
        return bool(self._product_minimum >= -_BLOCK_POS_TOL)

    @property
    def min_product_overlap(self) -> float:
        return self._product_minimum / 4.0


def _check_hermitian(x, name="operator"):
    x = np.asarray(x, dtype=complex)
    if x.shape != (4, 4):
        raise ValueError(f"{name} must be 4x4, got {x.shape}")
    scale = max(1.0, float(np.linalg.norm(x)))
    if np.linalg.norm(x - x.conj().T) > _HERM_TOL * scale:
        raise ValueError(f"{name} is not Hermitian")
    return x


def pauli_expand(rho) -> PauliForm:
    """Project a Hermitian 4x4 operator onto the two-qubit Pauli basis."""
    rho = _check_hermitian(rho, "rho")
    coeffs = np.trace(rho @ _PRODUCTS, axis1=-2, axis2=-1).real
    return PauliForm(float(coeffs[0, 0]), coeffs[1:, 0].copy(), coeffs[0, 1:].copy(),
                     coeffs[1:, 1:].copy())


def pauli_assemble(p: PauliForm) -> np.ndarray:
    """Inverse of pauli_expand."""
    rho = p.weight * _PRODUCTS[0, 0]
    for i in range(3):
        rho += p.ra[i] * _PRODUCTS[i + 1, 0]
        rho += p.rb[i] * _PRODUCTS[0, i + 1]
        for j in range(3):
            rho += p.t[i, j] * _PRODUCTS[i + 1, j + 1]
    return rho / 4.0


def bell_operator(settings, z) -> np.ndarray:
    """sum_ij z_ij (a_i . sigma) x (b_j . sigma) for the given settings.

    Traceless and Hermitian by construction; its Pauli correlation block
    equals A.T @ Z @ B.
    """
    a = np.asarray(settings.a, dtype=float)
    b = np.asarray(settings.b, dtype=float)
    z = np.asarray(z, dtype=float)
    m = a.shape[0]
    if z.shape != (m, m):
        raise ValueError(f"coefficient matrix must be {m}x{m}, got {z.shape}")
    a_ops = np.einsum("ik,kuv->iuv", a, PAULI)
    b_ops = np.einsum("jk,kuv->juv", b, PAULI)
    s = np.einsum("ij,iuv,jxy->uxvy", z, a_ops, b_ops).reshape(4, 4)
    return s


def partial_transpose(rho) -> np.ndarray:
    """Transpose on the second tensor factor."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {rho.shape}")
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def apply_theta(rho) -> np.ndarray:
    """Correlation-reversing symmetry: conjugate the partial transpose by I x sigma_2.

    Flips the sign of every correlation matrix while preserving separability
    and block positivity.
    """
    y = _PRODUCTS[0, 2]
    return y @ partial_transpose(rho) @ y


def block_positivity_minimum(p: PauliForm, restarts: int = 64, seed: int = 0):
    """Minimize f(u, v) = 1 + ra.u + rb.v + u.T t v over unit vectors u, v.

    The product-vector overlap <x(u) y(v)| rho |x(u) y(v)> equals f / 4, so
    the sign of the minimum certifies block positivity. Alternates the two
    blocks; for fixed u the exact minimizer is v = -(rb + t.T u) normalized,
    and symmetrically, so every sweep is a closed-form descent step. Runs
    from ``restarts`` random starts plus the singular directions of t.

    Returns (value, u, v) at the best point found.
    """
    if abs(p.weight - 1.0) > 1e-9:
        raise ValueError("block positivity check expects a unit-trace form")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    ra, rb, t = (np.asarray(x, dtype=float)[None] for x in (p.ra, p.rb, p.t))
    value, u, v = _block_positivity_stack(ra, rb, t, restarts, [seed])
    return float(value[0]), u[0], v[0]


def _unit_descent(w: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """-w / |w| row by row, keeping the fallback row where |w| <= 1e-15."""
    nw = np.linalg.norm(w, axis=-1, keepdims=True)
    return np.where(nw > 1e-15, -w / np.where(nw > 0, nw, 1.0), fallback)


def _block_positivity_stack(ra, rb, t, restarts: int, seeds):
    """block_positivity_minimum on n forms at once, each with its own seed.

    ra and rb are (n, 3) and t is (n, 3, 3). Either every form has a local
    part ra (|ra| > 1e-12), which adds the start -ra / |ra|, or none has:
    all forms of one stack have the same number of starts. The sweeps run
    on the forms whose own starts still move, so each form stops at the
    sweep its single call stops at, and each (value, u, v) is bit-equal to
    that call. Returns (n,) values and the (n, 3) minimizers u and v.
    """
    n = len(t)
    starts = [np.random.default_rng(seed).standard_normal((restarts, 3)) for seed in seeds]
    sing = np.swapaxes(np.linalg.svd(t)[0], 1, 2)
    extra = [sing, -sing]
    norm_ra = np.linalg.norm(ra, axis=-1)
    local = norm_ra > 1e-12
    if local.all():
        extra.append(-ra[:, None, :] / norm_ra[:, None, None])
    elif local.any():
        raise ValueError("a stack takes forms that all have, or all lack, a local part")
    u = np.concatenate([np.reshape(starts, (n, restarts, 3))] + extra, axis=1)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    v = np.zeros_like(u)
    v[..., 0] = 1.0

    t_rows = np.swapaxes(t, 1, 2)
    live = np.arange(n)
    for _ in range(200):
        ul = u[live]
        vl = _unit_descent(rb[live, None] + ul @ t[live], v[live])  # rb + t.T u, per start
        u_next = _unit_descent(ra[live, None] + vl @ t_rows[live], ul)  # ra + t v
        u[live], v[live] = u_next, vl
        live = live[~(np.max(np.abs(u_next - ul), axis=(1, 2)) < 1e-14)]
        if not live.size:
            break

    # One closing v-step so the reported pair is block-consistent.
    v = _unit_descent(rb[:, None] + u @ t, v)

    values = (1.0 + (u @ ra[..., None])[..., 0] + (v @ rb[..., None])[..., 0]
              + np.einsum("nri,nij,nrj->nr", u, t, v))
    best = np.argmin(values, axis=1)
    k = np.arange(n)
    return values[k, best], u[k, best], v[k, best]


def classify_state(rho) -> StateClass:
    """Locate a unit-trace Hermitian operator in the state-space hierarchy.

    is_quantum tests positive semidefiniteness, is_separable adds positivity
    of the partial transpose (complete for two qubits), and
    is_block_positive tests nonnegativity on all product vectors via
    block_positivity_minimum. The three flags are nested. The first two are
    computed here; the descent runs on the first read of is_block_positive
    or min_product_overlap.
    """
    rho = _check_hermitian(rho, "rho")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("state must have unit trace")
    evs = np.linalg.eigvalsh(rho)
    is_quantum = bool(evs[0] >= -_PSD_TOL)
    if is_quantum:
        pt_evs = np.linalg.eigvalsh(partial_transpose(rho))
        is_separable = bool(pt_evs[0] >= -_PSD_TOL)
    else:
        is_separable = False
    rho = rho.copy()
    rho.setflags(write=False)
    return StateClass(is_quantum, is_separable, rho)


def _check_orthogonal(q, tol=1e-9):
    q = np.asarray(q, dtype=float)
    if q.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got {q.shape}")
    if np.linalg.norm(q.T @ q - np.eye(3)) > tol:
        raise ValueError("matrix is not orthogonal")
    return q


def hull_state(q) -> np.ndarray:
    """(I4 + sum_ij q_ij s_i x s_j) / 4 for an orthogonal q.

    Extreme points of the largest state space; a valid quantum state only
    when det(q) = -1.
    """
    q = _check_orthogonal(q)
    return pauli_assemble(PauliForm(1.0, np.zeros(3), np.zeros(3), q))


def max_entangled(q) -> np.ndarray:
    """Maximally entangled pure state with correlation block q, det(q) = -1."""
    q = _check_orthogonal(q)
    if np.linalg.det(q) > 0:
        raise ValueError("a correlation block with det = +1 is not a quantum state here")
    rho = hull_state(q)
    if np.linalg.eigvalsh(rho)[0] < -_PSD_TOL:
        raise ValueError("assembled operator is not positive semidefinite")
    return rho


_RHO_MAX = hull_state(np.eye(3))
_RHO_MAX.setflags(write=False)


def rho_max() -> np.ndarray:
    """Extreme non-quantum state: correlation block I3, no local terms."""
    return _RHO_MAX.copy()


def werner_state(p: float) -> np.ndarray:
    """(1-p) |Phi+><Phi+| + p I4/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("noise fraction must lie in [0, 1]")
    return (1.0 - p) * PHI_PLUS + p * I4 / 4.0


def tau_state(p: float) -> np.ndarray:
    """(1-p) rho_max + p I4/4; quantum exactly when p >= 2/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("noise fraction must lie in [0, 1]")
    return (1.0 - p) * _RHO_MAX + p * I4 / 4.0


def qubit_state(bloch) -> np.ndarray:
    """(I2 + r . sigma) / 2 for a Bloch vector with norm <= 1.

    A (k, 3) stack of Bloch vectors gives the (k, 2, 2) stack of states,
    each bit-equal to its single call.
    """
    bloch = np.asarray(bloch, dtype=float)
    if (bloch.ndim not in (1, 2) or bloch.shape[-1:] != (3,)
            or np.any(np.linalg.norm(bloch, axis=-1) > 1.0 + 1e-12)):
        raise ValueError("need a Bloch vector of norm at most 1")
    return (I2 + np.einsum("...i,iuv->...uv", bloch, PAULI)) / 2.0
