"""Finite matrix models of the sandwiched resolvent.

A model keeps the operator in its spectral representation: ``H`` is diagonal
on real nodes, the rigging factor is ``F = J diag(w_i sqrt(mu_i))`` with ``J``
an isometric-row embedding (``None`` for the identity, a seeded orthonormal
matrix, or a user supplied one).  A sample ``T_z = F (H - z)^{-1} F*`` is
stored in the same factored form, ``J diag(w_i^2 mu_i / (x_i - z)) J*``: the
diagonal and the embedding, never a dense n x n array.  Norms, differences
and traces come from the factors (``max |d|`` and ``sum d`` for the identity,
the m x m product otherwise); the dense matrix is built only when a caller
reads ``T``.  No linear solves: resolvent application on a diagonal model is
exact arithmetic, which keeps rate fits clean.

Atom nodes carry the exact eigenvalue coordinate and mass and are marked by
``atom_flags``; matching is exact float equality, never a tolerance, because
eigenvalues are model inputs rather than measured quantities.  Equal node
coordinates are permitted only among flagged nodes (a multiplicity > 1
eigenvalue); continuum nodes are strictly increasing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
    "model_to_text",
    "model_from_text",
]

SAME = "same"


@dataclass(frozen=True)
class MatrixModel:
    nodes: np.ndarray
    masses: np.ndarray
    weights: np.ndarray
    atom_flags: np.ndarray
    embedding: np.ndarray | None = None  # None is the identity
    embedding_seed: int | None = None  # set when embedding is _seeded_embedding's

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        flags = np.asarray(self.atom_flags, dtype=bool)
        n = nodes.size
        if not (masses.size == weights.size == flags.size == n):
            raise ValueError("nodes, masses, weights, atom_flags must share length")
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
        """One of "identity", "seeded" or "custom", read off the embedding."""
        if self.embedding is None:
            return "identity"
        return "custom" if self.embedding_seed is None else "seeded"

    @property
    def target_dim(self) -> int:
        return self.size if self.embedding is None else int(self.embedding.shape[0])

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


def _factored_norm(J: np.ndarray | None, v: np.ndarray) -> float:
    """Operator norm of J diag(v) J*: max |v| for the identity, else the
    spectral norm of the m x m product."""
    if J is None:
        return float(np.max(np.abs(v))) if v.size else 0.0
    return operator_norm(_factored(J, v))


@dataclass(frozen=True)
class OperatorSample:
    """One evaluation of the sandwiched resolvent at a complex point.

    The sample is ``J diag(diag) J*`` with ``diag_i = w_i^2 mu_i / (x_i - z)``
    (zero at excluded nodes) and ``J`` the model's embedding (``None`` for the
    identity).  ``T`` builds the dense matrix on each read; ``norm``,
    ``distance`` and ``trace`` never do for the identity.  ``on_axis`` marks
    samples taken at real z strictly between nodes, which is permitted but
    outside the Im z != 0 contract.
    """

    z: complex
    diag: np.ndarray
    embedding: np.ndarray | None
    norm: float
    on_axis: bool = False

    @property
    def T(self) -> np.ndarray:
        return _factored(self.embedding, self.diag)

    @property
    def trace(self) -> complex:
        if self.embedding is None:
            return complex(np.sum(self.diag))
        return complex(np.trace(self.T))

    def distance(self, other: OperatorSample) -> float:
        """Operator norm of ``self.T - other.T`` for samples of one model."""
        return _factored_norm(self.embedding, self.diag - other.diag)


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
    the identity embedding, an integer m < n selects the first m rows of a
    seeded orthonormal matrix.
    """
    n = int(n)
    atoms = measure.atoms
    required = len(atoms) + (max(2, len(measure.ac_parts)) if measure.ac_parts else 0)
    if n < required:
        raise TooFewNodes(f"n={n} cannot hold {len(atoms)} atoms plus a density grid")

    budget = n - len(atoms)
    coords: list = []
    masses: list = []
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
            mus = part.values(xs) * dx
            coords.extend(xs.tolist())
            masses.extend(mus.tolist())

    # merge density nodes that coincide exactly (overlapping parts on one grid)
    merged: dict = {}
    for x, mu in zip(coords, masses):
        merged[x] = merged.get(x, 0.0) + mu

    atom_locs = {a.location for a in atoms}
    rows = []
    for x, mu in merged.items():
        if mu <= 0.0:
            continue  # prune zero-mass nodes
        if x in atom_locs:
            # atom matching is exact equality, so a density node may not sit
            # on an atom coordinate; deterministic sub-grid nudge
            x = x + 1e-9 * max(abs(x), 1.0)
        rows.append((x, mu, False))
    for a in atoms:
        rows.append((a.location, a.mass, True))
    rows.sort(key=lambda r: (r[0], r[2]))

    nodes = np.array([r[0] for r in rows])
    mus = np.array([r[1] for r in rows])
    flags = np.array([r[2] for r in rows])
    ws = weight.values(nodes)

    m = nodes.size if embedding_dim == SAME else int(embedding_dim)
    if m > nodes.size:
        raise ValueError(f"embedding_dim {m} exceeds node count {nodes.size}")
    if embedding_dim == SAME:
        return MatrixModel(nodes=nodes, masses=mus, weights=ws, atom_flags=flags)
    return MatrixModel(
        nodes=nodes,
        masses=mus,
        weights=ws,
        atom_flags=flags,
        embedding=_seeded_embedding(m, nodes.size, seed),
        embedding_seed=seed,
    )


def _resolvent_sample(model: MatrixModel, z: complex, exclude: np.ndarray | None) -> OperatorSample:
    z = complex(z)
    keep = np.ones(model.size, dtype=bool) if exclude is None else ~exclude
    on_axis = False
    if z.imag == 0.0:
        if np.any(model.nodes[keep] == z.real):
            raise NonrealRequired(f"z={z} lies on a model node")
        on_axis = True
    diag = np.zeros(model.size, dtype=complex)
    d = model.rigging_diagonal()
    diag[keep] = d[keep] ** 2 / (model.nodes[keep] - z)
    J = model.embedding
    norm = _factored_norm(J, diag)
    return OperatorSample(z=z, diag=diag, embedding=J, norm=norm, on_axis=on_axis)


def sandwiched_resolvent(model: MatrixModel, z: complex) -> OperatorSample:
    """T_z = F (H - z)^{-1} F*, assembled entrywise from the diagonal model.

    Real z is rejected only when it hits a node exactly; between nodes the
    sample is returned with ``on_axis=True``.
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
    return _factored(model.embedding, v), _factored_norm(model.embedding, v)


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


def resolution_floor(model: MatrixModel, lam: float, factor: float = 10.0) -> float:
    """Smallest trustworthy |Im z| near ``lam``: factor times local spacing.

    Below this the discretized continuum acts like point spectrum.  Models
    with fewer than two continuum nodes have no floor (returns 0).
    """
    cont = model.nodes[~model.atom_flags]
    if cont.size < 2:
        return 0.0
    gaps = np.diff(cont)
    idx = int(np.searchsorted(cont, lam))
    local = []
    if 1 <= idx <= gaps.size:
        local.append(gaps[idx - 1])
    if idx < gaps.size:
        local.append(gaps[idx])
    if not local:
        local.append(gaps[-1] if idx > 0 else gaps[0])
    return float(factor * max(local))


def model_to_text(model: MatrixModel) -> str:
    """Serialize to structured text; seeded embeddings store (seed, dim)."""
    d = {
        "nodes": model.nodes.tolist(),
        "masses": model.masses.tolist(),
        "weights": model.weights.tolist(),
        "atom_flags": [bool(v) for v in model.atom_flags],
        "embedding": {
            "kind": model.embedding_kind,
            "dim": model.target_dim,
            "seed": model.embedding_seed,
        },
    }
    if model.embedding_kind == "custom":
        d["embedding"]["matrix_real"] = np.real(model.embedding).tolist()
        d["embedding"]["matrix_imag"] = np.imag(model.embedding).tolist()
    return json.dumps(d, indent=2, sort_keys=True)


def model_from_text(text: str) -> MatrixModel:
    d = json.loads(text)
    emb = d["embedding"]
    n = len(d["nodes"])
    kind = emb["kind"]
    J, seed = None, None
    if kind == "seeded":
        seed = int(emb["seed"])
        J = _seeded_embedding(int(emb["dim"]), n, seed)
    elif kind == "custom":
        J = np.asarray(emb["matrix_real"]) + 1j * np.asarray(emb["matrix_imag"])
    elif kind != "identity":
        raise ValueError(f"unknown embedding kind {kind!r}")
    return MatrixModel(
        nodes=np.asarray(d["nodes"], dtype=float),
        masses=np.asarray(d["masses"], dtype=float),
        weights=np.asarray(d["weights"], dtype=float),
        atom_flags=np.asarray(d["atom_flags"], dtype=bool),
        embedding=J,
        embedding_seed=seed,
    )
