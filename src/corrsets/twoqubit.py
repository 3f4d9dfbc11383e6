"""Two-qubit operator algebra in the Pauli basis.

Convention: sigma_1 = X, sigma_2 = Y, sigma_3 = Z, computational basis
ordered |00>, |01>, |10>, |11>. A Hermitian 4x4 operator is written as

    rho = (weight * I4 + sum_i ra_i s_i x I + sum_j rb_j I x s_j
           + sum_ij t_ij s_i x s_j) / 4

and PauliForm holds the tuple (weight, ra, rb, t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
PAULI.setflags(write=False)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

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


@dataclass
class StateClass:
    is_quantum: bool
    is_separable: bool
    is_block_positive: bool
    min_product_overlap: float


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
    weight = float(np.trace(rho).real)
    ra = np.empty(3)
    rb = np.empty(3)
    t = np.empty((3, 3))
    for i in range(3):
        ra[i] = np.trace(rho @ np.kron(PAULI[i], I2)).real
        rb[i] = np.trace(rho @ np.kron(I2, PAULI[i])).real
        for j in range(3):
            t[i, j] = np.trace(rho @ np.kron(PAULI[i], PAULI[j])).real
    return PauliForm(weight, ra, rb, t)


def pauli_assemble(p: PauliForm) -> np.ndarray:
    """Inverse of pauli_expand."""
    rho = p.weight * I4.copy()
    for i in range(3):
        rho += p.ra[i] * np.kron(PAULI[i], I2)
        rho += p.rb[i] * np.kron(I2, PAULI[i])
        for j in range(3):
            rho += p.t[i, j] * np.kron(PAULI[i], PAULI[j])
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


def eigenvalues_hermitian(rho) -> np.ndarray:
    """Real spectrum of a Hermitian 4x4 operator, ascending."""
    return np.linalg.eigvalsh(_check_hermitian(rho, "rho"))


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
    y = np.kron(I2, PAULI[1])
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
    ra = np.asarray(p.ra, dtype=float)
    rb = np.asarray(p.rb, dtype=float)
    t = np.asarray(p.t, dtype=float)

    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((restarts, 3))
    u_sing, _, vt_sing = np.linalg.svd(t)
    extra = [u_sing.T, -u_sing.T]
    if np.linalg.norm(ra) > 1e-12:
        extra.append(-ra[None, :] / np.linalg.norm(ra))
    u = np.concatenate([starts] + extra, axis=0)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.zeros_like(u)
    v[:, 0] = 1.0

    for _ in range(200):
        w = rb + u @ t                      # rb + t.T u, per start
        nw = np.linalg.norm(w, axis=1, keepdims=True)
        v = np.where(nw > 1e-15, -w / np.where(nw > 0, nw, 1.0), v)
        g = ra + v @ t.T                    # ra + t v, per start
        ng = np.linalg.norm(g, axis=1, keepdims=True)
        u_next = np.where(ng > 1e-15, -g / np.where(ng > 0, ng, 1.0), u)
        if np.max(np.abs(u_next - u)) < 1e-14:
            u = u_next
            break
        u = u_next

    # One closing v-step so the reported pair is block-consistent.
    w = rb + u @ t
    nw = np.linalg.norm(w, axis=1, keepdims=True)
    v = np.where(nw > 1e-15, -w / np.where(nw > 0, nw, 1.0), v)

    values = 1.0 + u @ ra + v @ rb + np.einsum("ri,ij,rj->r", u, t, v)
    best = int(np.argmin(values))
    return float(values[best]), u[best], v[best]


def classify_state(rho, restarts: int = 64, seed: int = 0) -> StateClass:
    """Locate a unit-trace Hermitian operator in the state-space hierarchy.

    is_quantum tests positive semidefiniteness, is_separable adds positivity
    of the partial transpose (complete for two qubits), and
    is_block_positive tests nonnegativity on all product vectors via
    block_positivity_minimum. The three flags are nested.
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
    value, _, _ = block_positivity_minimum(pauli_expand(rho), restarts=restarts, seed=seed)
    return StateClass(
        is_quantum=is_quantum,
        is_separable=is_separable,
        is_block_positive=bool(value >= -_BLOCK_POS_TOL),
        min_product_overlap=value / 4.0,
    )


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


def rho_max() -> np.ndarray:
    """Extreme non-quantum state: correlation block I3, no local terms."""
    return hull_state(np.eye(3))


def werner_state(p: float) -> np.ndarray:
    """(1-p) |Phi+><Phi+| + p I4/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("noise fraction must lie in [0, 1]")
    return (1.0 - p) * PHI_PLUS + p * I4 / 4.0


def tau_state(p: float) -> np.ndarray:
    """(1-p) rho_max + p I4/4; quantum exactly when p >= 2/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("noise fraction must lie in [0, 1]")
    return (1.0 - p) * rho_max() + p * I4 / 4.0


def qubit_state(bloch) -> np.ndarray:
    """(I2 + r . sigma) / 2 for a Bloch vector with norm <= 1."""
    bloch = np.asarray(bloch, dtype=float)
    if bloch.shape != (3,) or np.linalg.norm(bloch) > 1.0 + 1e-12:
        raise ValueError("need a Bloch vector of norm at most 1")
    return (I2 + np.einsum("i,iuv->uv", bloch, PAULI)) / 2.0


def random_product_state(rng) -> np.ndarray:
    """Pure product state with Haar-uniform Bloch directions on both sides."""
    rng = np.random.default_rng(rng)
    u, v = rng.standard_normal((2, 3))
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    return np.kron(qubit_state(u), qubit_state(v))


def random_separable_state(rng, max_terms: int = 16) -> np.ndarray:
    """Dirichlet-weighted mixture of up to max_terms pure product states."""
    rng = np.random.default_rng(rng)
    k = int(rng.integers(1, max_terms + 1))
    weights = rng.dirichlet(np.ones(k))
    return sum(w * random_product_state(rng) for w in weights)


def random_quantum_state(rng) -> np.ndarray:
    """Mixed two-qubit state from a normalized Wishart matrix."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
