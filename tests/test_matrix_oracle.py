import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import resolvent_limits.matrix_oracle as mo
from resolvent_limits import (
    Atom,
    DensityFamily,
    MatrixModel,
    NoAtomAtLambda,
    NonrealRequired,
    SpectralMeasure,
    TooFewNodes,
    WeightFunction,
    YSchedule,
    discretize,
    eigen_contribution,
    evaluate_offaxis,
    limit_probe,
    operator_norm,
    quadratic_form,
    regularized_resolvent,
    resolution_floor,
    sandwiched_resolvent,
)

from conftest import weight_functions

PLATEAU = WeightFunction("plateau", {"center": 0.0, "half_width": 1.0})
FLAT = SpectralMeasure(ac_parts=(DensityFamily("constant", {"level": 1.0}, (-1.0, 1.0)),))


def _model(nodes, masses=None, weights=None, flags=None, **kw):
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    return MatrixModel(
        nodes=nodes,
        masses=np.ones(n) if masses is None else np.asarray(masses, float),
        weights=np.ones(n) if weights is None else np.asarray(weights, float),
        atom_flags=np.zeros(n, bool) if flags is None else np.asarray(flags, bool),
        **kw,
    )


def test_discretize_atom_only():
    m = SpectralMeasure(atoms=(Atom(0.0, 1.0),))
    model = discretize(m, PLATEAU, 2)
    assert model.size == 1
    assert model.atom_flags[0]
    s = sandwiched_resolvent(model, 1j)
    assert s.T.shape == (1, 1)
    assert abs(s.T[0, 0] - 1.0 / (0.0 - 1j)) < 1e-15


def test_discretize_mass_conservation():
    model = discretize(FLAT, PLATEAU, 1000)
    total = float(np.sum(model.masses))
    # flat density: midpoint masses sum to the exact total mass 2
    assert 2.0 - 1e-4 <= total <= 2.0 + 1e-4


def test_discretize_identity_embedding_is_diagonal():
    model = discretize(FLAT, PLATEAU, 50)
    assert model.embedding_kind == "identity"
    T = sandwiched_resolvent(model, 1j).T
    off = T - np.diag(np.diag(T))
    assert np.all(off == 0)


def test_discretize_too_few_nodes():
    m = SpectralMeasure(ac_parts=FLAT.ac_parts, atoms=(Atom(0.0, 1.0),))
    with pytest.raises(TooFewNodes):
        discretize(m, PLATEAU, 2)


def test_discretize_nudges_node_off_atom():
    # odd midpoint grid on [-1, 1] hits x = 0 exactly, where the atom sits
    m = SpectralMeasure(ac_parts=FLAT.ac_parts, atoms=(Atom(0.0, 1.0),))
    model = discretize(m, PLATEAU, 6)  # 5 density nodes + atom
    assert np.sum(model.nodes == 0.0) == 1
    assert model.atom_flags[model.nodes == 0.0][0]
    assert np.all(np.diff(model.nodes) > 0)


def _midpoint_grids(parts, budget):
    """(xs, masses) of each a.c. part, with the budget split of discretize."""
    if not parts:
        return []
    lengths = [p.support[1] - p.support[0] for p in parts]
    counts = [max(1, int(budget * L / sum(lengths))) for L in lengths]
    while sum(counts) > budget and max(counts) > 1:
        counts[counts.index(max(counts))] -= 1
    idx = 0
    while sum(counts) < budget:
        counts[idx % len(counts)] += 1
        idx += 1
    grids = []
    for part, cnt in zip(parts, counts):
        lo, hi = part.support
        dx = (hi - lo) / cnt
        xs = lo + (np.arange(cnt) + 0.5) * dx
        grids.append((xs, part.values(xs) * dx))
    return grids


def _reference_nodes(measure, n):
    """Node build of discretize as a per-node loop: a dict merges coinciding
    midpoints, then rows of (x, mu, flag) are sorted by (x, flag)."""
    merged = {}
    for xs, mus in _midpoint_grids(measure.ac_parts, n - len(measure.atoms)):
        for x, mu in zip(xs.tolist(), mus.tolist()):
            merged[x] = merged.get(x, 0.0) + mu
    atom_locs = {a.location for a in measure.atoms}
    rows = [(a.location, a.mass, True) for a in measure.atoms]
    for x, mu in merged.items():
        if mu > 0.0:
            rows.append((x + 1e-9 * max(abs(x), 1.0) if x in atom_locs else x, mu, False))
    rows.sort(key=lambda r: (r[0], r[2]))
    return [np.array([r[k] for r in rows], dtype=dt) for k, dt in enumerate((float, float, bool))]


EDGES = (-1.0, -0.5, 0.0, 0.25, 1.0)  # shared support edges make parts overlap on one grid


@st.composite
def catalog_measures(draw):
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        lo, hi = sorted(draw(st.lists(st.sampled_from(EDGES), min_size=2, max_size=2, unique=True)))
        kind = draw(st.sampled_from(["constant", "affine", "power_bump", "smooth_bump"]))
        level = draw(st.floats(0.0, 2.0))
        params = {
            "constant": lambda: {"level": level},
            # negative levels and slopes make parts whose merged nodes are pruned
            "affine": lambda: {"level": draw(st.floats(-1.0, 1.0)), "slope": draw(st.floats(-3.0, 3.0)), "center": lo},
            "power_bump": lambda: {"level": level, "exponent": draw(st.floats(0.1, 1.0)), "center": draw(st.floats(lo, hi))},
            "smooth_bump": lambda: {"level": level, "center": (lo + hi) / 2, "half_width": (hi - lo) / 2},
        }[kind]()
        parts.append(DensityFamily(kind, params, (lo, hi)))
    n_atoms = draw(st.integers(0 if parts else 1, 2))
    n = draw(st.integers(n_atoms + (max(2, len(parts)) if parts else 0), 60))
    # atoms anywhere, or exactly on a midpoint of the grid that discretize builds
    midpoints = [x for xs, _ in _midpoint_grids(parts, n - n_atoms) for x in xs.tolist()]
    place = (st.floats(-1.5, 1.5) | st.sampled_from(midpoints)) if midpoints else st.floats(-1.5, 1.5)
    locs = draw(st.lists(place, min_size=n_atoms, max_size=n_atoms, unique=True))
    atoms = tuple(Atom(x, draw(st.floats(0.1, 2.0))) for x in sorted(locs))
    return SpectralMeasure(ac_parts=tuple(parts), atoms=atoms), n


@given(catalog_measures())
@settings(max_examples=200, deadline=None)
def test_array_node_build_matches_loop_and_invariants(case):
    measure, n = case
    model = discretize(measure, PLATEAU, n)
    nodes, masses, flags = _reference_nodes(measure, n)
    assert model.nodes.tobytes() == nodes.tobytes()
    assert model.masses.tobytes() == masses.tobytes()
    assert np.array_equal(model.atom_flags, flags)
    assert np.all(np.diff(model.nodes) >= 0)
    cont = model.nodes[~model.atom_flags]
    assert np.all(np.diff(cont) > 0)
    for atom in measure.atoms:
        at = model.nodes == atom.location
        assert not np.any(at & ~model.atom_flags)
        assert np.array_equal(model.masses[at & model.atom_flags], [atom.mass])
    # pruning drops only merged masses <= 0, so it can only raise the total
    grid_masses = [mus for _, mus in _midpoint_grids(measure.ac_parts, n - len(measure.atoms))]
    per_part = sum(float(np.sum(mus)) for mus in grid_masses)
    slack = 1e-12 * sum(float(np.sum(np.abs(mus))) for mus in grid_masses)
    cont_mass = float(np.sum(model.masses[~model.atom_flags]))
    assert cont_mass >= per_part - slack
    if all(np.all(mus >= 0) for mus in grid_masses):
        assert abs(cont_mass - per_part) <= slack


@pytest.mark.parametrize("m", [0, -1, 14, 3.9, 3.0, True, "3"])
def test_embedding_dim_outside_node_count_rejected(m):
    # a float m of 3.9 used to build 3 rows
    measure = SpectralMeasure(ac_parts=FLAT.ac_parts, atoms=(Atom(0.0, 1.0),))
    assert discretize(measure, PLATEAU, 13, 13).embedding.shape[0] == 13
    assert discretize(measure, PLATEAU, 13, np.int64(3)).embedding.shape[0] == 3
    with pytest.raises(ValueError, match="embedding_dim"):
        discretize(measure, PLATEAU, 13, m)


@pytest.mark.parametrize("n", [200.7, 200.0, True, "200"])
def test_a_node_count_that_is_not_an_integer_is_rejected(n):
    # n = 200.7 used to build 200 nodes
    assert discretize(FLAT, PLATEAU, np.int64(200)).size == discretize(FLAT, PLATEAU, 200).size == 200
    with pytest.raises(ValueError, match="n must be an integer"):
        discretize(FLAT, PLATEAU, n)


def test_discretize_builds_arrays_only():
    measure = SpectralMeasure(ac_parts=FLAT.ac_parts, atoms=(Atom(0.0, 1.0),))
    tracemalloc.start()
    try:
        model = discretize(measure, PLATEAU, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.size == 200_000
    assert peak < 32 * 2**20  # arrays peak near 18 MB here, a float and a tuple per node near 56 MB


def test_sandwiched_single_atom_divergence_term():
    y = 1e-3
    model = _model([0.5], flags=[True])
    s = sandwiched_resolvent(model, complex(0.5, y))
    assert abs(s.T[0, 0] - 1j / y) < 1e-9 / y
    assert s.norm == pytest.approx(1.0 / y, rel=1e-12)


def test_sandwiched_two_node_oracle():
    model = _model([-1.0, 1.0])
    s = sandwiched_resolvent(model, 1j)
    expected = np.diag([1.0 / (-1.0 - 1j), 1.0 / (1.0 - 1j)])
    assert np.allclose(s.T, expected, rtol=0, atol=1e-15)
    assert s.norm == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_sandwiched_zero_weight_gives_zero():
    model = _model([-0.5, 0.5], weights=[0.0, 0.0])
    s = sandwiched_resolvent(model, 1j)
    assert np.all(s.T == 0)
    assert s.norm == 0.0


def test_on_axis_between_nodes_flagged():
    model = _model([-1.0, 1.0])
    s = sandwiched_resolvent(model, 0.5 + 0.0j)
    with pytest.raises(NonrealRequired):
        sandwiched_resolvent(model, 1.0 + 0.0j)


@pytest.mark.parametrize("k", [0, 7, 18])
def test_the_form_and_the_sample_share_one_guard_on_the_axis(k):
    model = discretize(FLAT, PLATEAU, 20)
    node = float(model.nodes[k])
    for z in (node, complex(node, 0.0)):
        with pytest.raises(NonrealRequired):
            sandwiched_resolvent(model, z)
        with pytest.raises(NonrealRequired):
            quadratic_form(model, z)
    # between nodes real z is allowed, and the form is the sample's trace
    between = 0.5 * (node + float(model.nodes[k + 1]))
    assert _hex(quadratic_form(model, between)) == _hex(sandwiched_resolvent(model, between).trace)


def test_operator_norm_examples():
    assert operator_norm(np.eye(2)) == pytest.approx(1.0, rel=1e-12)
    assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, rel=1e-12)
    assert operator_norm(np.zeros((0, 0))) == 0.0
    # a sample's norm of such a matrix is NaN, which a y-ladder refuses; asked
    # directly, operator_norm refuses it itself
    for bad in (np.inf, np.nan, complex(0.0, np.inf)):
        with pytest.raises(ValueError, match="operator_norm requires finite entries"):
            operator_norm(np.diag([1.0, bad]))


@given(st.integers(2, 6), st.integers(0, 10))
@settings(max_examples=20)
def test_operator_norm_rank_one(m, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    T = np.outer(u, v.conj())
    # analytic oracle: ||u v*|| = ||u|| ||v||
    assert operator_norm(T) == pytest.approx(
        np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12
    )


def test_eigen_contribution_single_atom():
    model = _model([0.0], weights=[0.7], flags=[True])
    E, nrm = eigen_contribution(model, 0.0)
    assert E.shape == (1, 1)
    assert E[0, 0] == pytest.approx(0.49, rel=1e-14)
    assert nrm == pytest.approx(0.49, rel=1e-14)


def test_eigen_contribution_zero_weight_atom():
    model = _model([0.0], weights=[0.0], flags=[True])
    E, nrm = eigen_contribution(model, 0.0)
    assert np.all(E == 0)
    assert nrm == 0.0


def test_eigen_contribution_degenerate_pair():
    # multiplicity-2 eigenvalue: two flagged nodes at the same coordinate
    model = _model([0.0, 0.0, 1.0], weights=[0.6, 0.8, 1.0], flags=[True, True, False])
    E, nrm = eigen_contribution(model, 0.0)
    assert E[0, 0] == pytest.approx(0.36, rel=1e-14)
    assert E[1, 1] == pytest.approx(0.64, rel=1e-14)
    assert E[2, 2] == 0.0
    assert nrm == pytest.approx(0.64, rel=1e-14)


def test_eigen_contribution_requires_flagged_node():
    model = _model([0.0, 1.0])
    with pytest.raises(NoAtomAtLambda):
        eigen_contribution(model, 0.5)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"nodes": [0.0, np.nan, 1.0]}, r"^nodes\[1\] must be a finite number, got nan$"),
        ({"masses": [1.0, 1.0, np.nan]}, r"^masses\[2\] must be a finite number, got nan$"),
        ({"weights": [1.0, np.inf, 1.0]}, r"^weights\[1\] must be a finite number, got inf$"),
    ],
    ids=["nodes", "masses", "weights"],
)
def test_non_finite_arrays_rejected(bad, message):
    with pytest.raises(ValueError, match=message):
        _model(**{"nodes": [0.0, 0.5, 1.0], **bad})


def test_unflagged_duplicate_nodes_rejected():
    with pytest.raises(ValueError):
        _model([0.0, 0.0], flags=[True, False])


def test_regularized_atom_only_vanishes():
    model = _model([0.5], flags=[True])
    s = regularized_resolvent(model, complex(0.5, 1e-3), 0.5)
    assert np.all(s.T == 0)


def test_regularized_two_node_oracle():
    y = 1e-3
    model = _model([0.0, 1.0], flags=[True, False], weights=[1.0, 0.9])
    s = regularized_resolvent(model, complex(0.0, y), 0.0)
    assert s.T[0, 0] == 0.0
    assert abs(s.T[1, 1] - 0.81 / (1.0 - 1j * y)) < 1e-15


def test_regularized_without_atom_matches_sandwiched():
    model = _model([-0.3, 0.4])
    z = 0.1 + 0.05j
    assert np.array_equal(
        regularized_resolvent(model, z, 0.1).T, sandwiched_resolvent(model, z).T
    )


def test_regularized_allows_on_axis_at_removed_atom():
    model = _model([0.0, 1.0], flags=[True, False])
    s = regularized_resolvent(model, 0.0 + 0.0j, 0.0)
    assert s.T[1, 1] == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("embedding_dim", ["same", 5])
def test_decomposition_identity(embedding_dim):
    m = SpectralMeasure(
        ac_parts=(DensityFamily("constant", {"level": 0.2}, (-1.0, 1.0)),),
        atoms=(Atom(0.25, 0.8),),
    )
    model = discretize(m, PLATEAU, 9, embedding_dim, seed=3)
    E, _ = eigen_contribution(model, 0.25)
    for y in (1e-1, 1e-3, 1e-6):
        z = complex(0.25, y)
        T = sandwiched_resolvent(model, z).T
        Tr = regularized_resolvent(model, z, 0.25).T
        scale = operator_norm(T) + operator_norm(Tr)
        assert np.max(np.abs(T - (Tr + E / (0.25 - z)))) <= 1e-12 * scale


def test_divergence_lower_bound():
    m = SpectralMeasure(
        ac_parts=(DensityFamily("constant", {"level": 0.2}, (-1.0, 1.0)),),
        atoms=(Atom(0.25, 0.8),),
    )
    model = discretize(m, PLATEAU, 15)
    _, fp2 = eigen_contribution(model, 0.25)
    assert fp2 > 0
    for y in (1e-2, 1e-4, 1e-6):
        s = sandwiched_resolvent(model, complex(0.25, y))
        assert s.norm >= fp2 / y - 1e-10


def test_far_zone_norm_bound():
    # all nodes at distance >= eps from lam
    lam, eps = 0.0, 0.5
    model = _model([-2.0, -1.0, 0.6, 1.5], masses=[0.5, 1.0, 0.7, 0.3])
    ff = operator_norm(np.diag(model.rigging_diagonal() ** 2))  # ||F F*||, identity embedding
    for y in (1e-1, 1e-3, 1e-5):
        s = sandwiched_resolvent(model, complex(lam, y))
        assert s.norm <= ff / eps + 1e-12


def test_conjugate_symmetry():
    model = discretize(FLAT, PLATEAU, 20, 10, seed=1)
    z = 0.2 + 0.3j
    T = sandwiched_resolvent(model, z).T
    Tc = sandwiched_resolvent(model, z.conjugate()).T
    assert np.allclose(Tc, T.conj().T, rtol=0, atol=1e-15)


def test_quadratic_form_matches_transform():
    model = discretize(FLAT, PLATEAU, 4000)
    z = 0.0 + 0.05j
    form = quadratic_form(model, z)
    tv = evaluate_offaxis(FLAT, PLATEAU, z)
    assert abs(form - tv.value) / abs(tv.value) < 1e-3


def _masked_diag(model, z, exclude):
    """A sample's diagonal as it was built with a keep mask on every rung,
    from w sqrt(mu) squared anew: the reference for the one division."""
    keep = ~exclude
    diag = np.zeros(model.size, dtype=complex)
    d = model.rigging_diagonal()
    diag[keep] = d[keep] ** 2 / (model.nodes[keep] - z)
    return diag


@given(catalog_measures(), weight_functions(), st.floats(-1.5, 1.5), st.floats(-8.0, 0.0), st.booleans())
@settings(max_examples=200, deadline=None)
def test_a_sample_is_the_masked_formula_bit_for_bit(case, weight, lam, log_y, at_atom):
    measure, n = case
    if at_atom and measure.atoms:
        lam = measure.atoms[0].location
    model = discretize(measure, weight, n)
    z = complex(lam, 10.0**log_y)
    plain = sandwiched_resolvent(model, z).diag
    regularized = regularized_resolvent(model, z, lam).diag
    assert plain.tobytes() == _masked_diag(model, z, np.zeros(model.size, bool)).tobytes()
    assert regularized.tobytes() == _masked_diag(model, z, model.atom_mask(lam)).tobytes()


def _signed_vector_form(model, z, seed):
    """<T_z u, u> for a seeded +-1 test vector u on {w_i > 0}, as the oracle
    formed it when it drew one: |u_i|^2 is 1 or 0, so no bit depends on u."""
    u = np.random.default_rng(seed).choice([-1.0, 1.0], size=model.size) * (model.weights > 0)
    return complex(np.sum(np.abs(u) ** 2 * model.rigging_diagonal() ** 2 / (model.nodes - complex(z))))


def _hex(c: complex) -> tuple:
    return c.real.hex(), c.imag.hex()


@given(catalog_measures(), weight_functions(), st.floats(-1.5, 1.5), st.floats(-8.0, 0.0), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_the_oracle_is_the_samples_own_formula(case, weight, lam, log_y, seed):
    measure, n = case
    model = discretize(measure, weight, n)
    z = complex(lam, 10.0 ** log_y)
    form = quadratic_form(model, z)
    assert _hex(form) == _hex(sandwiched_resolvent(model, z).trace)
    assert _hex(form) == _hex(_signed_vector_form(model, z, seed))


@given(
    st.lists(st.integers(-128, 128), min_size=1, max_size=12, unique=True),
    st.data(),
    st.sampled_from([0.0, 1e-12, 1e-6, 0.1, 1.0, -1e-3]),
)
def test_the_form_is_the_identity_samples_trace_bit_for_bit(points, data, y):
    # the form and the sample read one division, at real z between nodes too;
    # nodes on a 1/64 grid and c <= 1 keep every c / (x - z) finite
    nodes = sorted(p / 64 for p in points)
    n = len(nodes)
    masses, weights = (data.draw(st.lists(st.floats(lo, 1.0), min_size=n, max_size=n)) for lo in (1e-3, 0.0))
    model = _model(nodes, masses, weights, data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    anywhere = st.floats(-3.0, 3.0, allow_subnormal=False)
    between = [(a + b) / 2 for a, b in zip(nodes, nodes[1:])]
    x = data.draw(st.sampled_from(between) | anywhere if between else anywhere)
    assume(y or x not in nodes)
    z = complex(x, y)
    assert _hex(quadratic_form(model, z)) == _hex(sandwiched_resolvent(model, z).trace)


@given(
    st.integers(3, 30),
    st.data(),
    st.integers(0, 2**31 - 1),
    st.floats(-0.9, 0.9),
    st.floats(0.1, 2.0),
    st.booleans(),
)
def test_the_eigen_term_is_its_dense_reference_bit_for_bit(n, data, seed, lam, mass, embedded):
    measure = SpectralMeasure(ac_parts=FLAT.ac_parts, atoms=(Atom(lam, mass),))
    dim = data.draw(st.integers(1, n)) if embedded else mo.SAME
    model = discretize(measure, PLATEAU, n, dim, seed=seed)
    E, norm = eigen_contribution(model, lam)
    v = np.where(model.atom_mask(lam), model.spectral_weights, 0.0)
    J = model.embedding
    ref = np.diag(v) if J is None else (J * v) @ J.conj().T
    assert E.tobytes() == ref.tobytes() and E.shape == ref.shape
    assert norm == (np.abs(v).max() if J is None else operator_norm(ref))


def test_an_eigen_term_that_is_not_finite_is_refused():
    # w^2 mu overflows to inf: the model is refused when it is built
    with pytest.raises(ValueError, match="w\\^2 mu must be finite"):
        _model([0.0, 0.5], masses=[1.0, 1.0], weights=[1e200, 1.0], flags=[True, False])
    # each c is finite, but the embedded product J diag(c) J* overflows: the
    # norm is refused as operator_norm refuses it, with no numpy warning
    root = math.sqrt(sys.float_info.max)
    model = _model([0.0, 0.0], weights=[root, root], flags=[True, True], embedding=np.array([[0.5**0.5, 0.5**0.5]]))
    assert np.isfinite(model.spectral_weights).all()
    with pytest.raises(ValueError, match="operator_norm requires finite entries"):
        eigen_contribution(model, 0.0)


def test_quadratic_form_requires_the_identity():
    model = discretize(FLAT, PLATEAU, 20, 5, seed=1)
    with pytest.raises(ValueError, match="identity"):
        quadratic_form(model, 0.1j)


def test_seeded_embedding_deterministic_and_isometric():
    a = discretize(FLAT, PLATEAU, 30, 12, seed=9)
    b = discretize(FLAT, PLATEAU, 30, 12, seed=9)
    assert np.array_equal(a.embedding, b.embedding)
    gram = a.embedding @ a.embedding.T
    assert np.allclose(gram, np.eye(12), atol=1e-12)
    c = discretize(FLAT, PLATEAU, 30, 12, seed=10)
    assert not np.array_equal(a.embedding, c.embedding)


def test_resolution_floor():
    model = discretize(FLAT, PLATEAU, 100)
    floor = resolution_floor(model, 0.0)
    assert floor == pytest.approx(10 * 2.0 / 100, rel=1e-10)
    atoms_only = _model([0.0], flags=[True])
    assert resolution_floor(atoms_only, 0.0) == 0.0


@pytest.mark.parametrize(
    "lam,gap",
    [
        (-1.0, 0.5),  # below the first node: the first gap
        (0.0, 0.5),
        (0.25, 0.5),  # on the atom, which is not a continuum node
        (0.5, 0.5),  # on a node: the larger of the gaps on either side
        (0.5625, 0.5),  # between nodes: the largest of lam's gap and its two neighbours
        (0.625, 0.375),
        (0.75, 0.375),
        (1.0, 0.375),
        (1.0625, 0.375),  # in the last gap: it and the one before
        (1.125, 0.125),
        (2.0, 0.125),  # above the last node: the last gap
    ],
)
def test_resolution_floor_reads_the_gaps_beside_lam(lam, gap):
    # continuum nodes 0, 0.5, 0.625, 1, 1.125 (gaps 0.5, 0.125, 0.375, 0.125)
    nodes = [0.0, 0.25, 0.5, 0.625, 1.0, 1.125]
    model = _model(nodes, flags=[node == 0.25 for node in nodes])
    assert resolution_floor(model, lam) == 10.0 * gap


@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12, unique=True), st.data())
def test_resolution_floor_is_mirror_symmetric(points, data):
    nodes = np.sort(points)
    flags = np.array(data.draw(st.lists(st.booleans(), min_size=nodes.size, max_size=nodes.size)))
    midpoints = list(0.5 * (nodes[:-1] + nodes[1:]))
    lam = data.draw(st.sampled_from([*nodes, *midpoints]) | st.floats(-3.0, 3.0))
    mirrored = _model(-nodes[::-1], flags=flags[::-1])
    assert resolution_floor(_model(nodes, flags=flags), lam) == resolution_floor(mirrored, -lam)


def test_passed_embedding_is_used_and_checked():
    # a 1 x 2 row embedding: samples are 1 x 1, not the n x n identity ones
    J = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
    model = _model([0.0, 0.5], weights=[0.8, 1.0], flags=[True, False], embedding=J)
    assert model.embedding_kind == "embedded"
    assert model.embedding.shape[0] == 1
    z = complex(0.0, 1e-3)
    T = sandwiched_resolvent(model, z).T
    Tr = regularized_resolvent(model, z, 0.0).T
    E, _ = eigen_contribution(model, 0.0)
    assert T.shape == Tr.shape == E.shape == (1, 1)
    assert np.max(np.abs(T - (Tr + E / (0.0 - z)))) <= 1e-12 * operator_norm(T)
    with pytest.raises(ValueError):
        _model([0.0, 0.5], embedding=np.diag([1.0, 2.0]))


@given(
    st.integers(3, 40),
    st.data(),
    st.integers(0, 2**31 - 1),
    st.floats(-0.9, 0.9),
    st.floats(-8.0, 0.0),
)
@settings(max_examples=30)
def test_seeded_samples_match_dense_references(n, data, seed, lam, log_y):
    m = data.draw(st.integers(1, n - 1))
    measure = SpectralMeasure(ac_parts=FLAT.ac_parts, atoms=(Atom(lam, 0.7),))
    model = discretize(measure, PLATEAU, n, m, seed=seed)
    assert model.embedding_kind == "embedded"
    y = 10.0**log_y
    sched = YSchedule(y_max=y, y_min=y * 0.5**7, ratio=0.5)
    samples = []

    def evaluator(z):
        samples.append(sandwiched_resolvent(model, z))
        return samples[-1]

    report = limit_probe(evaluator, lam, sched)
    rel = lambda a, b: abs(a - b) <= 1e-12 * abs(b)
    for k, (s, row) in enumerate(zip(samples, report.samples)):
        T = s.T
        assert T.shape == (m, m)
        assert rel(s.norm, operator_norm(T))
        assert rel(row.shadow, np.trace(T))
        if k:
            assert rel(row.diff, operator_norm(T - samples[k - 1].T))
    z = complex(lam, y)
    T = samples[0].T
    Tr = regularized_resolvent(model, z, lam).T
    E, _ = eigen_contribution(model, lam)
    scale = operator_norm(T) + operator_norm(Tr)
    assert np.max(np.abs(T - (Tr + E / (lam - z)))) <= 1e-12 * scale


def test_embedded_probe_forms_one_product_per_rung(monkeypatch):
    measure = SpectralMeasure(ac_parts=FLAT.ac_parts, atoms=(Atom(0.1, 0.7),))
    model = discretize(measure, PLATEAU, 40, 20, seed=3)
    packaged, calls = mo._packaged, []

    def counted(J, v):
        calls.append(v.shape)
        return packaged(J, v)

    monkeypatch.setattr(mo, "_packaged", counted)
    sched = YSchedule(y_max=1e-2, y_min=1e-2 * 0.5**9, ratio=0.5)
    for ev in (lambda z: sandwiched_resolvent(model, z), lambda z: regularized_resolvent(model, z, 0.1)):
        calls.clear()
        report = limit_probe(ev, 0.1, sched)
        assert len(report.samples) == 10
        assert len(calls) == 10  # norm, trace and distance read the one product


@pytest.mark.parametrize("n", [40, 41])
def test_a_model_squares_its_rigging_once(monkeypatch, n):
    # every rung, the form and the eigen term read the model's own w^2 mu
    rigging, calls = MatrixModel.rigging_diagonal, []

    def counted(self):
        calls.append(self.size)
        return rigging(self)

    monkeypatch.setattr(MatrixModel, "rigging_diagonal", counted)
    measure = SpectralMeasure(ac_parts=FLAT.ac_parts, atoms=(Atom(0.1, 0.7),))
    sched = YSchedule(y_max=1e-2, y_min=1e-2 * 0.5**9, ratio=0.5)
    for regularize in (False, True):
        calls.clear()
        model = discretize(measure, PLATEAU, n)
        if regularize:
            report = limit_probe(lambda z: regularized_resolvent(model, z, 0.1), 0.1, sched)
        else:
            report = limit_probe(lambda z: sandwiched_resolvent(model, z), 0.1, sched)
        quadratic_form(model, 0.3j)
        eigen_contribution(model, 0.1)
        assert len(report.samples) == 10
        assert calls == [model.size]
        assert not model.spectral_weights.flags.writeable
        assert np.array_equal(model.spectral_weights, model.rigging_diagonal() ** 2)


def test_embedded_sample_keeps_its_product_read_only():
    model = discretize(FLAT, PLATEAU, 30, 12, seed=2)
    s = sandwiched_resolvent(model, 0.2 + 1e-3j)
    T = s.T
    assert T is s.T and T.shape == (12, 12)
    assert not T.flags.writeable
    with pytest.raises(ValueError):
        T[0, 0] = 0.0
    J = model.embedding
    assert np.array_equal(T, (J * s.diag) @ J.conj().T)
    assert s.norm == operator_norm(T) and s.trace == complex(np.trace(T))


def test_identity_samples_allocate_no_dense_matrix():
    n = 4000  # one dense complex n x n sample would take 256 MB
    tracemalloc.start()
    try:
        model = discretize(FLAT, PLATEAU, n)
        a = sandwiched_resolvent(model, 0.1 + 1e-3j)
        b = sandwiched_resolvent(model, 0.1 + 5e-4j)
        dist, shadow = a.distance(b), a.trace
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.embedding is None and a.diag.shape == (n,)
    assert dist > 0 and shadow.imag > 0
    assert peak < 16 * 2**20
