"""Finite matrix models of the sandwiched resolvent.

A model keeps the operator in its spectral representation: ``H`` is diagonal
on real nodes, the rigging factor is ``F = J diag(w_i sqrt(mu_i))`` with ``J``
an isometric-row embedding (``None`` for the identity, otherwise an m x n
matrix with orthonormal rows; ``discretize`` draws a seeded one).  The node,
mass, weight and flag arrays plus ``J`` are the whole model.  A sample
``T_z = F (H - z)^{-1} F*`` is ``J diag(w_i^2 mu_i / (x_i - z)) J*``, and no
n x n array is ever formed for it.  For the identity the sample is the
diagonal alone, and its norm, differences and trace are ``max |d|`` and
``sum d``.  For an embedding the m x m product is formed once, when the
sample is taken, and its norm, trace and distance to other samples are read
from that one matrix.  No linear solves: resolvent application on a diagonal
model is exact arithmetic, which keeps rate fits clean.

Atom nodes carry the exact eigenvalue coordinate and mass and are marked by
``atom_flags``; matching is exact float equality, never a tolerance, because
eigenvalues are model inputs rather than measured quantities.  Equal node
coordinates are permitted only among flagged nodes (a multiplicity > 1
eigenvalue); continuum nodes are strictly increasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoAtomAtLambda, NonrealRequired, TooFewNodes
from .spectral_model import SpectralMeasure, WeightFunction

__all__ = [
    "MatrixModel",
    "OperatorSample",
    "SAME",
    "discretize",
    "sandwiched_resolvent",
    "operator_norm",
    "eigen_contribution",
    "regularized_resolvent",
    "quadratic_form",
    "resolution_floor",
]

SAME = "same"


@dataclass(frozen=True)
class MatrixModel:
    nodes: np.ndarray
    masses: np.ndarray
    weights: np.ndarray
    atom_flags: np.ndarray
    embedding: np.ndarray | None = None  # None is the identity

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        flags = np.asarray(self.atom_flags, dtype=bool)
        n = nodes.size
        if not (masses.size == weights.size == flags.size == n):
            raise ValueError("nodes, masses, weights, atom_flags must share length")
        for name, arr in (("nodes", nodes), ("masses", masses), ("weights", weights)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if np.any(masses <= 0):
            raise ValueError("masses must be strictly positive")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(np.diff(nodes) < 0):
            raise ValueError("nodes must be sorted")
        dup = np.diff(nodes) == 0
        if np.any(dup):
            first = np.flatnonzero(dup)
            ok = flags[first] & flags[first + 1]
            if not np.all(ok):
                raise ValueError("equal node coordinates are allowed only for atom nodes")
        arrays = [("nodes", nodes), ("masses", masses), ("weights", weights), ("atom_flags", flags)]
        if self.embedding is not None:
            emb = np.asarray(self.embedding)
            if emb.ndim != 2 or emb.shape[1] != n:
                raise ValueError(f"embedding must be (m, {n}), got {emb.shape}")
            gram = emb @ emb.conj().T
            if not np.allclose(gram, np.eye(emb.shape[0]), atol=1e-10):
                raise ValueError("embedding rows must be orthonormal")
            arrays.append(("embedding", emb))
        for name, arr in arrays:
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    @property
    def embedding_kind(self) -> str:
        """"identity" when ``embedding`` is None, else "embedded"."""
        return "identity" if self.embedding is None else "embedded"

    def rigging_diagonal(self) -> np.ndarray:
        """Diagonal factors w_i * sqrt(mu_i) of the rigging matrix."""
        return self.weights * np.sqrt(self.masses)

    def atom_mask(self, lam: float) -> np.ndarray:
        return self.atom_flags & (self.nodes == lam)


def _factored(J: np.ndarray | None, v: np.ndarray) -> np.ndarray:
    """The dense matrix J diag(v) J*; J = None is the identity."""
    if J is None:
        return np.diag(v)
    return (J * v) @ J.conj().T


def _max_abs(v: np.ndarray) -> float:
    """Operator norm of diag(v)."""
    return float(np.max(np.abs(v))) if v.size else 0.0


@dataclass(frozen=True)
class OperatorSample:
    """One evaluation of the sandwiched resolvent at a complex point.

    The sample is ``J diag(diag) J*`` with ``diag_i = w_i^2 mu_i / (x_i - z)``
    (zero at excluded nodes) and ``J`` the model's embedding.  ``product`` is
    that m x m matrix, formed once when the sample is taken and read-only;
    ``T``, ``trace`` and ``distance`` read it.  For the identity ``product``
    is None: ``norm``, ``trace`` and ``distance`` are ``max |d|`` and
    ``sum d`` of the diagonal, and ``T`` builds ``diag(diag)`` on each read.
    """

    z: complex
    diag: np.ndarray
    product: np.ndarray | None  # J diag(diag) J*; None is the identity
    norm: float

    @property
    def T(self) -> np.ndarray:
        return np.diag(self.diag) if self.product is None else self.product

    @property
    def trace(self) -> complex:
        if self.product is None:
            return complex(np.sum(self.diag))
        return complex(np.trace(self.product))

    def distance(self, other: OperatorSample) -> float:
        """Operator norm of ``self.T - other.T`` for samples of one model."""
        if self.product is None:
            return _max_abs(self.diag - other.diag)
        return operator_norm(self.product - other.product)


def _seeded_embedding(m: int, n: int, seed: int) -> np.ndarray:
    """First m rows of a deterministic orthonormal matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, m))
    q, r = np.linalg.qr(g)
    # fix the QR sign ambiguity for reproducibility across BLAS builds
    q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
    return q.T.copy()


def discretize(
    measure: SpectralMeasure,
    weight: WeightFunction,
    n: int,
    embedding_dim: int | str = SAME,
    seed: int = 0,
) -> MatrixModel:
    """Build a finite model: midpoint nodes for densities, exact atom nodes.

    The a.c. parts get composite midpoint nodes with masses
    ``mu_i = rho(x_i) * dx`` (total-mass error O(1/n^2) for smooth catalog
    densities); atoms become flagged nodes carrying their exact coordinate and
    mass.  Zero-mass density nodes are pruned.  ``embedding_dim=SAME`` keeps
    the identity embedding; an integer m with 1 <= m <= node count selects the
    first m rows of a seeded orthonormal matrix, and any other m raises
    ValueError.
    """
    n = int(n)
    atoms = measure.atoms
    required = len(atoms) + (max(2, len(measure.ac_parts)) if measure.ac_parts else 0)
    if n < required:
        raise TooFewNodes(f"n={n} cannot hold {len(atoms)} atoms plus a density grid")

    budget = n - len(atoms)
    coords = [np.empty(0)]
    masses = [np.empty(0)]
    if measure.ac_parts and budget > 0:
        lengths = [p.support[1] - p.support[0] for p in measure.ac_parts]
        total_len = sum(lengths)
        counts = [max(1, int(budget * L / total_len)) for L in lengths]
        # largest-remainder style top-up to spend the exact budget
        while sum(counts) > budget and max(counts) > 1:
            counts[counts.index(max(counts))] -= 1
        idx = 0
        while sum(counts) < budget:
            counts[idx % len(counts)] += 1
            idx += 1
        for part, cnt in zip(measure.ac_parts, counts):
            lo, hi = part.support
            dx = (hi - lo) / cnt
            xs = lo + (np.arange(cnt) + 0.5) * dx
            coords.append(xs)
            masses.append(part.values(xs) * dx)

    # merge density nodes that coincide exactly (overlapping parts on one
    # grid); bincount sums each node's masses in order of appearance
    xs, where = np.unique(np.concatenate(coords), return_inverse=True)
    mus = np.bincount(where, weights=np.concatenate(masses), minlength=xs.size)
    keep = ~(mus <= 0.0)  # prune nodes whose merged mass is not positive
    xs, mus = xs[keep], mus[keep]
    # atom matching is exact equality, so a density node may not sit on an
    # atom coordinate; deterministic sub-grid nudge
    locs = [a.location for a in atoms]
    on_atom = np.isin(xs, locs)
    xs[on_atom] += 1e-9 * np.maximum(np.abs(xs[on_atom]), 1.0)

    nodes = np.concatenate([xs, locs])
    mus = np.concatenate([mus, [a.mass for a in atoms]])
    flags = np.repeat([False, True], [xs.size, len(atoms)])
    order = np.lexsort((flags, nodes))
    nodes, mus, flags = nodes[order], mus[order], flags[order]

    J = None
    if embedding_dim != SAME:
        m = int(embedding_dim)
        if not 1 <= m <= nodes.size:
            raise ValueError(f"embedding_dim must lie in [1, {nodes.size}], got {m}")
        J = _seeded_embedding(m, nodes.size, seed)
    return MatrixModel(nodes=nodes, masses=mus, weights=weight.values(nodes), atom_flags=flags, embedding=J)


def _resolvent_sample(model: MatrixModel, z: complex, exclude: np.ndarray | None) -> OperatorSample:
    z = complex(z)
    keep = np.ones(model.size, dtype=bool) if exclude is None else ~exclude
    if z.imag == 0.0 and np.any(model.nodes[keep] == z.real):
        raise NonrealRequired(f"z={z} lies on a model node")
    diag = np.zeros(model.size, dtype=complex)
    d = model.rigging_diagonal()
    diag[keep] = d[keep] ** 2 / (model.nodes[keep] - z)
    diag.setflags(write=False)
    if model.embedding is None:
        return OperatorSample(z=z, diag=diag, product=None, norm=_max_abs(diag))
    P = _factored(model.embedding, diag)
    P.setflags(write=False)
    return OperatorSample(z=z, diag=diag, product=P, norm=operator_norm(P))


def sandwiched_resolvent(model: MatrixModel, z: complex) -> OperatorSample:
    """T_z = F (H - z)^{-1} F*, assembled entrywise from the diagonal model.

    Real z is rejected only when it hits a node exactly; between nodes it is
    permitted, though outside the Im z != 0 contract.
    """
    return _resolvent_sample(model, z, exclude=None)


def operator_norm(T: np.ndarray) -> float:
    """Largest singular value (0 for an empty matrix)."""
    T = np.atleast_2d(np.asarray(T))
    if not np.all(np.isfinite(np.abs(T))):
        raise ValueError("operator_norm requires finite entries")
    if T.size == 0:
        return 0.0
    return float(np.linalg.norm(T, 2))


def eigen_contribution(model: MatrixModel, lam: float) -> tuple:
    """Rank-limited eigenvalue term: returns ((F P)(F P)*, norm ||F P||^2).

    P selects the flagged nodes at exactly ``lam``.  The norm is the squared
    spectral norm of F P, the coefficient of the 1/y divergence.
    """
    mask = model.atom_mask(lam)
    if not np.any(mask):
        raise NoAtomAtLambda(f"no flagged atom node at lam={lam!r}")
    v = np.where(mask, model.rigging_diagonal() ** 2, 0.0)
    E = _factored(model.embedding, v)
    return E, _max_abs(v) if model.embedding is None else operator_norm(E)


def regularized_resolvent(model: MatrixModel, z: complex, lam: float) -> OperatorSample:
    """Sandwiched resolvent with the flagged nodes at ``lam`` projected out.

    Identity: sandwiched_resolvent(z) = regularized_resolvent(z, lam)
    + (1/(lam - z)) (F P)(F P)*.  Without a flagged node at ``lam`` this is
    exactly sandwiched_resolvent; real z is then allowed even at lam itself
    as long as no remaining node is hit.
    """
    mask = model.atom_mask(lam)
    return _resolvent_sample(model, z, exclude=mask if np.any(mask) else None)


def quadratic_form(model: MatrixModel, z: complex, u: np.ndarray | None = None) -> complex:
    """<T_z u, u> without assembling T; the oracle-comparison scalar.

    Default u is the all-ones indicator of {w_i > 0} (identity embedding
    required), for which the form equals the discrete transform
    ``sum w_i^2 mu_i / (x_i - z)`` over the support.
    """
    z = complex(z)
    d2 = model.rigging_diagonal() ** 2
    if u is None:
        if model.embedding is not None:
            raise ValueError("default test vector requires the identity embedding")
        u = (model.weights > 0).astype(float)
    u = np.asarray(u)
    if model.embedding is None:
        coeff = np.abs(u) ** 2
    else:
        v = model.embedding.conj().T @ u
        coeff = np.abs(v) ** 2
    return complex(np.sum(coeff * d2 / (model.nodes - z)))


def resolution_floor(model: MatrixModel, lam: float) -> float:
    """Smallest trustworthy |Im z| near ``lam``: ten times the local spacing.

    Below this the discretized continuum acts like point spectrum.  Models
    with fewer than two continuum nodes have no floor (returns 0).
    """
    cont = model.nodes[~model.atom_flags]
    if cont.size < 2:
        return 0.0
    gaps = np.diff(cont)
    idx = int(np.searchsorted(cont, lam))
    return float(10.0 * gaps[np.clip([idx - 1, idx], 0, gaps.size - 1)].max())
