"""Finite matrix models of the sandwiched resolvent.

A model keeps the operator in its spectral representation: ``H`` is diagonal
on real nodes, the rigging factor is ``F = J diag(w_i sqrt(mu_i))`` with ``J``
an isometric-row embedding (``None`` for the identity, otherwise an m x n
matrix with orthonormal rows; ``discretize`` draws a seeded one).  The node,
mass, weight and flag arrays plus ``J`` are the whole model; it also carries
its spectral weights ``c_i = w_i^2 mu_i``, squared once when it is built,
and a model whose c_i is not finite is refused.  A sample
``T_z = F (H - z)^{-1} F*`` is ``J diag(c_i / (x_i - z)) J*``, and no n x n
array is ever formed for it.  One division gives ``c_i / (x_i - z)``
to both samples (the regularized one divides only the kept nodes) and to
``quadratic_form``.  One product gives both samples and
``eigen_contribution`` the m x m matrix ``J diag(v) J*`` of an embedding,
formed once with its largest singular value; for the identity the diagonal
stands alone, with norm ``max |v|``.  No linear solves: resolvent
application on a diagonal model is exact arithmetic, which keeps rate fits
clean.

Atom nodes carry the exact eigenvalue coordinate and mass and are marked by
``atom_flags``; matching is exact float equality, never a tolerance, because
eigenvalues are model inputs rather than measured quantities.  Equal node
coordinates are permitted only among flagged nodes (a multiplicity > 1
eigenvalue); continuum nodes are strictly increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NONNEGATIVE, POSITIVE, NoAtomAtLambda, NonrealRequired, TooFewNodes, integer, point, real, reals
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
    # w_i^2 mu_i, what every sample divides; set from the arrays above
    spectral_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = reals("nodes", self.nodes)
        masses = reals("masses", self.masses, POSITIVE)
        weights = reals("weights", self.weights, NONNEGATIVE)
        flags = np.asarray(self.atom_flags, dtype=bool)
        n = nodes.size
        if not (masses.size == weights.size == flags.size == n):
            raise ValueError("nodes, masses, weights, atom_flags must share length")
        steps = np.diff(nodes)
        if (steps < 0).any():
            raise ValueError("nodes must be sorted")
        first = np.flatnonzero(steps == 0)
        if not (flags[first] & flags[first + 1]).all():
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
        with np.errstate(over="ignore"):
            c = self.rigging_diagonal() ** 2
        if not np.isfinite(c).all():
            raise ValueError("spectral weights w^2 mu must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "spectral_weights", c)

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
        return self.atom_flags & (self.nodes == real("lam", lam))


def _max_abs(v: np.ndarray) -> float:
    """Operator norm of diag(v)."""
    return float(np.abs(v).max()) if v.size else 0.0


class OperatorSample(NamedTuple):
    """One evaluation of the sandwiched resolvent at a complex point.

    The sample is ``J diag(diag) J*`` with ``diag_i = w_i^2 mu_i / (x_i - z)``
    (zero at excluded nodes) and ``J`` the model's embedding.  One division
    gives ``diag``, and one product gives ``product``, that m x m matrix,
    with its ``norm``; both arrays are read-only, and ``T``, ``trace`` and
    ``distance`` read the product.  For the identity ``product`` is None:
    ``norm``, ``trace`` and ``distance`` are ``max |d|`` and ``sum d`` of the
    diagonal, and ``T`` builds ``diag(diag)`` on each read.
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
            return complex(self.diag.sum())
        return complex(np.trace(self.product))

    def distance(self, other: OperatorSample) -> float:
        """Operator norm of ``self.T - other.T`` for samples of one model
        (NaN for two products whose difference is not finite)."""
        if self.product is None:
            return _max_abs(self.diag - other.diag)
        return _spectral_norm(self.product - other.product)


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
    the identity embedding; an integer m (an int or a numpy integer) with
    1 <= m <= node count selects the first m rows of a seeded orthonormal
    matrix, and any other m raises ValueError, as do an ``n`` and a ``seed``
    that are not integers >= 0.
    """
    n, seed = integer("n", n, 0), integer("seed", seed, 0)
    atoms = measure.atoms
    required = len(atoms) + (max(2, len(measure.ac_parts)) if measure.ac_parts else 0)
    if n < required:
        raise TooFewNodes(f"n={n} cannot hold {len(atoms)} atoms plus a density grid")

    budget = n - len(atoms)
    coords = [np.empty(0)]
    masses = [np.empty(0)]
    if measure.ac_parts:  # n >= required leaves a budget of at least 2 for them
        lengths = [p.support[1] - p.support[0] for p in measure.ac_parts]
        total_len = sum(lengths)
        counts = [max(1, int(budget * L / total_len)) for L in lengths]
        # spend the exact budget: trim the first largest count while the one-node
        # floors put the total over it, then top up round-robin from the first part
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
        m = integer("embedding_dim", embedding_dim, 1)
        if m > nodes.size:
            raise ValueError(f"embedding_dim must be {SAME!r} or at most the node count {nodes.size}, got {m}")
        J = _seeded_embedding(m, nodes.size, seed)
    return MatrixModel(nodes=nodes, masses=mus, weights=weight.values(nodes), atom_flags=flags, embedding=J)


def _divided(model: MatrixModel, z: complex, keep: np.ndarray | None = None) -> tuple:
    """(complex z, ``c_i / (x_i - z)``), 0 off a ``keep`` mask, so real z may sit
    on an excluded node; real z on a (kept) node raises NonrealRequired."""
    z = point("z", z)
    if z.imag == 0.0:
        hit = model.nodes == z.real
        if np.any(hit if keep is None else hit & keep):
            raise NonrealRequired(f"z={z} lies on a model node")
    if keep is None:
        return z, model.spectral_weights / (model.nodes - z)
    return z, np.divide(model.spectral_weights, model.nodes - z, out=np.zeros(model.size, complex), where=keep)


def _packaged(J: np.ndarray | None, v: np.ndarray) -> tuple:
    """(J diag(v) J*, its largest singular value), both read-only, or (None,
    ``max |v|``) for the identity (J None); ``v`` is frozen."""
    v.setflags(write=False)
    if J is None:
        return None, _max_abs(v)
    P = (J * v) @ J.conj().T
    P.setflags(write=False)
    return P, _spectral_norm(P)


def sandwiched_resolvent(model: MatrixModel, z: complex) -> OperatorSample:
    """T_z = F (H - z)^{-1} F*, assembled entrywise from the diagonal model.

    Real z is rejected only when it hits a node exactly; between nodes it is
    permitted, though outside the Im z != 0 contract.
    """
    z, diag = _divided(model, z)
    return OperatorSample(z, diag, *_packaged(model.embedding, diag))


def _spectral_norm(T: np.ndarray) -> float:
    """Largest singular value of a 2-d array (0 when it is empty); NaN when an
    entry is not finite, as ``_max_abs`` gives for a diagonal holding a NaN,
    so a y-ladder refuses such a sample by its norm."""
    if not np.all(np.isfinite(np.abs(T))):
        return math.nan
    return float(np.linalg.norm(T, 2)) if T.size else 0.0


def operator_norm(T: np.ndarray) -> float:
    """Largest singular value (0 for an empty matrix)."""
    norm = _spectral_norm(np.atleast_2d(np.asarray(T)))
    if math.isnan(norm):
        raise ValueError("operator_norm requires finite entries")
    return norm


def eigen_contribution(model: MatrixModel, lam: float) -> tuple:
    """Rank-limited eigenvalue term: returns ((F P)(F P)*, norm ||F P||^2).

    P selects the flagged nodes at exactly ``lam``.  The norm is the squared
    spectral norm of F P, the coefficient of the 1/y divergence.
    """
    mask = model.atom_mask(lam)
    if not np.any(mask):
        raise NoAtomAtLambda(f"no flagged atom node at lam={lam!r}")
    v = np.where(mask, model.spectral_weights, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # the NaN norm below refuses it
        E, norm = _packaged(model.embedding, v)
    if math.isnan(norm):  # an embedded product that is not finite, as operator_norm refuses it
        raise ValueError("operator_norm requires finite entries")
    return np.diag(v) if E is None else E, norm


def regularized_resolvent(model: MatrixModel, z: complex, lam: float) -> OperatorSample:
    """Sandwiched resolvent with the flagged nodes at ``lam`` projected out.

    Identity: sandwiched_resolvent(z) = regularized_resolvent(z, lam)
    + (1/(lam - z)) (F P)(F P)*.  Without a flagged node at ``lam`` this is
    exactly sandwiched_resolvent; real z is then allowed even at lam itself
    as long as no remaining node is hit.
    """
    z, diag = _divided(model, z, keep=~model.atom_mask(lam))
    return OperatorSample(z, diag, *_packaged(model.embedding, diag))


def quadratic_form(model: MatrixModel, z: complex) -> complex:
    """The discrete transform ``sum w_i^2 mu_i / (x_i - z)`` of an identity
    model, the oracle-comparison scalar: the trace of T_z, and <T_z u, u> for
    every u with |u_i| = 1 on {w_i > 0}.  T is not assembled.  Real z on a
    node raises NonrealRequired, as it does for the sample."""
    if model.embedding is not None:
        raise ValueError("quadratic_form requires the identity embedding")
    return complex(_divided(model, z)[1].sum())


def resolution_floor(model: MatrixModel, lam: float) -> float:
    """Smallest trustworthy |Im z| near ``lam``: ten times the local spacing,
    the largest gap beside the continuum nodes nearest ``lam`` (the node at
    ``lam``, or the two around it).  It reads the same on the mirrored model
    at ``-lam``.

    Below this the discretized continuum acts like point spectrum.  Models
    with fewer than two continuum nodes have no floor (returns 0).
    """
    lam = real("lam", lam)
    cont = model.nodes[~model.atom_flags]
    if cont.size < 2:
        return 0.0
    gaps = np.diff(cont)
    left = int(np.searchsorted(cont, lam, side="right")) - 1  # last node <= lam
    right = int(np.searchsorted(cont, lam))  # first node >= lam
    return float(10.0 * gaps[max(left - 1, 0) : right + 1].max())
