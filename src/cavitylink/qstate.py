"""Composite Hilbert-space core: labeled tensor factors, states, operators,
measurement, and fidelity.

Everything downstream (node Hamiltonians, gates, the two-node protocol) is
built on these few primitives.  Values are immutable after construction and
all operations are pure functions, so they are safe to share across threads.

Conventions: atom levels are ordered g=0, e=1 (i=2 for three-level atoms);
Fock states are ordered by photon number 0..N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Central numerical tolerances cited by tests and docs."""

    norm: float = 1e-9        # state-vector normalization
    unitarity: float = 1e-10  # operator intent flags (hermitian / unitary)


TOLERANCES = Tolerances()

# Atom level indices used throughout (basis ordering decision), and the
# names measured atom levels are reported by.
ATOM_G = 0
ATOM_E = 1
ATOM_I = 2
ATOM_LEVEL_NAMES = ("g", "e", "i")


class QStateError(ValueError):
    """Validation failure in a Hilbert-space operation."""


@dataclass(frozen=True)
class FactorLabel:
    """One labeled tensor factor: a name and a dimension.

    Atoms use dim 2 or 3; a cavity mode truncated at N photons uses dim N+1.
    """

    name: str
    dim: int

    def __post_init__(self) -> None:
        if not self.name:
            raise QStateError("factor name must be non-empty")
        if self.dim < 2:
            raise QStateError(f"factor {self.name!r} needs dim >= 2, got {self.dim}")


class CompositeSpace:
    """An ordered tensor product of labeled factors.

    Factor order is fixed for the lifetime of the space; amplitude index
    layout is row-major over the factor dimensions in that order.
    """

    def __init__(self, factors: Sequence[FactorLabel]):
        factors = tuple(factors)
        names = [f.name for f in factors]
        if len(set(names)) != len(names):
            raise QStateError(f"duplicate factor names in {names}")
        if not factors:
            raise QStateError("a space needs at least one factor")
        self.factors = factors
        self.dims = tuple(f.dim for f in factors)
        self.dim = int(np.prod(self.dims))

    @property
    def names(self) -> tuple:
        return tuple(f.name for f in self.factors)

    def axis(self, name: str) -> int:
        for k, f in enumerate(self.factors):
            if f.name == name:
                return k
        raise QStateError(f"unknown factor {name!r}; have {self.names}")

    def factor(self, name: str) -> FactorLabel:
        return self.factors[self.axis(name)]

    def index(self, levels: dict) -> int:
        """Flat amplitude index of a basis assignment {factor name: level}."""
        if set(levels) != set(self.names):
            raise QStateError(f"assignment keys {sorted(levels)} != factors {sorted(self.names)}")
        idx = 0
        for f in self.factors:
            lv = levels[f.name]
            if not 0 <= lv < f.dim:
                raise QStateError(f"level {lv} out of range for factor {f.name!r} (dim {f.dim})")
            idx = idx * f.dim + lv
        return idx

    def basis_state(self, levels: dict) -> "StateVector":
        amps = np.zeros(self.dim, dtype=complex)
        amps[self.index(levels)] = 1.0
        return StateVector(self, amps)

    def __eq__(self, other) -> bool:
        return isinstance(other, CompositeSpace) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self) -> str:
        body = ", ".join(f"{f.name}:{f.dim}" for f in self.factors)
        return f"CompositeSpace({body})"


class StateVector:
    """A normalized complex amplitude vector over a composite space."""

    def __init__(self, space: CompositeSpace, amplitudes: np.ndarray):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (space.dim,):
            raise QStateError(f"amplitude length {amps.shape[0]} != space dim {space.dim}")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > TOLERANCES.norm:
            raise QStateError(f"state norm {nrm} deviates from 1 beyond {TOLERANCES.norm}")
        self.space = space
        self.amplitudes = amps
        self.amplitudes.setflags(write=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        if self.space != other.space:
            raise QStateError("overlap requires identical spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def amplitude(self, levels: dict) -> complex:
        return complex(self.amplitudes[self.space.index(levels)])

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.space.dims)

    def __repr__(self) -> str:
        return f"StateVector(dim={self.space.dim}, factors={self.space.names})"


class Operator:
    """A square matrix over a composite space.

    Intent flags record whether the matrix is meant to be Hermitian (a
    Hamiltonian, units of angular frequency) or unitary (a gate); each flag
    is verified on construction.
    """

    def __init__(self, space: CompositeSpace, matrix: np.ndarray,
                 hermitian: Optional[bool] = None, unitary: Optional[bool] = None):
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (space.dim, space.dim):
            raise QStateError(f"matrix shape {mat.shape} != ({space.dim}, {space.dim})")
        if hermitian:
            err = np.max(np.abs(mat - mat.conj().T))
            scale = max(1.0, np.max(np.abs(mat)))
            if err > TOLERANCES.unitarity * scale:
                raise QStateError(f"hermitian intent violated by {err}")
        if unitary:
            err = np.max(np.abs(mat.conj().T @ mat - np.eye(space.dim)))
            if err > TOLERANCES.unitarity:
                raise QStateError(f"unitary intent violated by {err}")
        self.space = space
        self.matrix = mat
        self.matrix.setflags(write=False)
        self.hermitian = bool(hermitian)
        self.unitary = bool(unitary)

    def apply(self, state: StateVector) -> StateVector:
        if state.space != self.space:
            raise QStateError("operator and state live on different spaces")
        return StateVector(self.space, self.matrix @ state.amplitudes)

    def __repr__(self) -> str:
        kind = "hermitian" if self.hermitian else ("unitary" if self.unitary else "general")
        return f"Operator(dim={self.space.dim}, {kind})"


def tensor(states: Iterable[StateVector]) -> StateVector:
    """Kronecker product of states on disjoint factor sets."""
    states = list(states)
    if not states:
        raise QStateError("tensor of zero states")
    seen = set()
    for s in states:
        overlap_names = seen.intersection(s.space.names)
        if overlap_names:
            raise QStateError(f"label collision on {sorted(overlap_names)}")
        seen.update(s.space.names)
    factors = [f for s in states for f in s.space.factors]
    amps = states[0].amplitudes
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
    return StateVector(CompositeSpace(factors), amps)


def apply_local(state: StateVector, matrix: np.ndarray,
                factors: Sequence[str]) -> StateVector:
    """Apply a matrix on the named factors of a state, identity elsewhere.

    The matrix acts on the product of the factors in the order given (not
    the state's order), e.g. a (atom, cavity) node block.  The named axes
    are transposed to the front and the amplitudes reshaped to (d, D/d), so
    the work is one matmul, O(D d) for a d-dimensional block.
    """
    space = state.space
    axes = [space.axis(name) for name in factors]  # raises on unknown label
    if len(set(axes)) != len(axes):
        raise QStateError(f"repeated factor in {tuple(factors)}")
    d = int(np.prod([space.dims[k] for k in axes]))
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (d, d):
        raise QStateError(f"matrix shape {mat.shape} != ({d}, {d}) for factors "
                          f"{tuple(factors)}")
    order = axes + [k for k in range(len(space.dims)) if k not in axes]
    psi = state.tensor_view().transpose(order)
    out = (mat @ psi.reshape(d, -1)).reshape(psi.shape)
    # the inverse permutation, sorted in Python: np.argsort's first call
    # faults in numpy's sort kernels, a third of a MB of peak RSS
    inverse = sorted(range(len(order)), key=order.__getitem__)
    return StateVector(space, out.transpose(inverse).reshape(-1))


def embed(op: Operator, space: CompositeSpace) -> Operator:
    """Lift an operator to a larger space, acting as identity elsewhere.

    The operator's own factors (by name) must all exist in the target space
    with matching dimensions; their relative order inside op is respected.
    """
    target_axes = []
    for f in op.space.factors:
        ax = space.axis(f.name)  # raises on unknown label
        if space.factors[ax].dim != f.dim:
            raise QStateError(f"factor {f.name!r} dim mismatch: {space.factors[ax].dim} vs {f.dim}")
        target_axes.append(ax)
    rest_axes = [k for k in range(len(space.factors)) if k not in target_axes]
    rest_dim = int(np.prod([space.dims[k] for k in rest_axes], initial=1))

    # Build on the permuted ordering (targets..., rest...), then permute the
    # row and column indices back to the space's factor order.
    big = np.kron(op.matrix, np.eye(rest_dim))
    perm = target_axes + rest_axes
    inv = np.argsort(perm)
    dims_perm = [space.dims[k] for k in perm]
    big = big.reshape(dims_perm + dims_perm)
    n = len(space.factors)
    big = big.transpose(list(inv) + [n + k for k in inv])
    big = big.reshape(space.dim, space.dim)
    return Operator(space, big, hermitian=op.hermitian or None,
                    unitary=op.unitary or None)


def _project_factor(state: StateVector, axis: int, level: int):
    """Return (amplitudes projected on one level of a factor, un-normalized;
    probability)."""
    dims = state.space.dims
    psi = state.amplitudes.reshape(int(np.prod(dims[:axis])), dims[axis], -1)
    proj = np.zeros_like(psi)
    proj[:, level] = psi[:, level]
    return proj.reshape(-1), float(np.sum(np.abs(psi[:, level]) ** 2))


def enumerate_branches(state: StateVector, factor: str) -> list:
    """All outcomes of measuring one factor in its level basis:
    (level as a string, collapsed state, probability).

    Zero-probability branches are listed with collapsed state None.
    Probabilities sum to 1 within 1e-10.
    """
    f = state.space.factor(factor)
    axis = state.space.axis(factor)
    out = []
    for level in range(f.dim):
        proj, prob = _project_factor(state, axis, level)
        if prob < 1e-30:
            out.append((str(level), None, 0.0))
        else:
            out.append((str(level), StateVector(state.space, proj / np.sqrt(prob)), prob))
    total = sum(p for _, _, p in out)
    if abs(total - 1.0) > 1e-10:
        raise QStateError(f"branch probabilities sum to {total}, not 1")
    return out


def state_fidelity(x: StateVector, y: StateVector) -> float:
    """|<x|y>|^2; insensitive to global phase by construction."""
    return float(abs(x.overlap(y)) ** 2)


def make_rng(seed: Optional[int]) -> np.random.Generator:
    """The one named RNG constructor used across the package."""
    return np.random.default_rng(seed)
