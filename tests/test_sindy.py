"""Library, STLSQ recovery, Euler cell, ensembles, Koopman restriction, eigenanalysis."""

import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shredkit import diffcore as dc
from shredkit import sindy
from shredkit.diffcore import Tensor
from shredkit.sindy import LibrarySpec, SindyModel


def test_library_monomials_1d():
    spec = LibrarySpec(dim=1, poly_degree=3)
    out = sindy.evaluate_library(np.array([[2.0]]), spec)
    assert np.array_equal(out, [[1.0, 2.0, 4.0, 8.0]])


def test_library_trig_at_zero():
    spec = LibrarySpec(dim=2, poly_degree=1, trig=(("sin", 1.0),))
    out = sindy.evaluate_library(np.array([[0.0, 0.0]]), spec)
    assert np.array_equal(out, [[1.0, 0.0, 0.0, 0.0, 0.0]])


def test_library_term_count_3d_cubic():
    spec = LibrarySpec(dim=3, poly_degree=3)
    # Multisets of degree <= 3 in 3 variables, constant included: C(6, 3).
    assert spec.term_count == 20
    out = sindy.evaluate_library(np.ones((4, 3)), spec)
    assert out.shape == (4, 20)


def test_library_dimension_mismatch():
    spec = LibrarySpec(dim=2, poly_degree=1)
    with pytest.raises(sindy.DimensionMismatchError):
        sindy.evaluate_library(np.ones((3, 3)), spec)


def test_library_ordering_stable_and_named():
    spec = LibrarySpec(dim=2, poly_degree=2, trig=(("sin", 1.0), ("cos", 2.0)))
    names = spec.term_names()
    assert names == ["1", "z1", "z2", "z1^2", "z1 z2", "z2^2",
                     "sin(z1)", "sin(z2)", "cos(2 z1)", "cos(2 z2)"]
    assert spec.term_count == len(names)
    # The spec's fields, which model.json records, fix the term order.
    assert json.loads(json.dumps(asdict(spec))) == {
        "dim": 2, "poly_degree": 2, "include_constant": True,
        "trig": [["sin", 1.0], ["cos", 2.0]]}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.integers(0, 2))
def test_library_term_count_property(d, P, constant, n_trig):
    trig = tuple(("sin" if i % 2 == 0 else "cos", float(i + 1)) for i in range(n_trig))
    spec = LibrarySpec(dim=d, poly_degree=P, include_constant=constant, trig=trig)
    expected = math.comb(d + P, P) - (0 if constant else 1) + d * n_trig
    assert spec.term_count == expected
    assert len(spec.term_names()) == expected
    out = sindy.evaluate_library(np.zeros((2, d)), spec)
    assert out.shape == (2, expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 2.0))
def test_threshold_prune_idempotent_property(seed, threshold):
    rng = np.random.default_rng(seed)
    spec = LibrarySpec(dim=2, poly_degree=2)
    Xi = rng.standard_normal((spec.term_count, 2))
    model = SindyModel(spec=spec, Xi=Xi, mask=np.ones_like(Xi, bool), dt=0.1, k=2)
    once = sindy.threshold_prune(model, threshold)
    twice = sindy.threshold_prune(once, threshold)
    assert np.array_equal(once.mask, twice.mask)
    assert np.array_equal(once.Xi, twice.Xi)
    assert once.nnz <= model.nnz
    assert np.all(once.Xi[~once.mask] == 0.0)


def _naive_library(Z, spec):
    """The library as separate columns: 1.0 times each factor in turn, then concatenated."""
    cols = []
    if spec.include_constant:
        cols.append(np.ones((Z.shape[0], 1)))
    for mono in spec.monomials():
        col = np.ones(Z.shape[0])
        for j in mono:
            col = col * Z[:, j]
        cols.append(col[:, None])
    for kind, freq in spec.trig:
        cols.append((np.sin if kind == "sin" else np.cos)(freq * Z))
    return np.concatenate(cols, axis=1) if cols else np.empty((Z.shape[0], 0))


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_library_bit_identical_to_naive_columns(dim, degree):
    rng = np.random.default_rng(10 * dim + degree)
    for constant in (True, False):
        for trig in ((), (("sin", 1.0), ("cos", 0.5), ("sin", 3.0))):
            spec = LibrarySpec(dim=dim, poly_degree=degree, include_constant=constant,
                               trig=trig)
            for n in (1, 7, 1000):
                Z = 2.0 * rng.standard_normal((n, dim))
                out = sindy.evaluate_library(Z, spec)
                assert out.shape == (n, spec.term_count)
                assert out.dtype == np.float64 and out.flags.f_contiguous
                assert np.array_equal(out, _naive_library(Z, spec))


LIBRARY_TRIGS = ((), (("cos", 0.5),), (("sin", 1.0), ("cos", 3.0)), (("sin", 3.0),))


def _library_grid():
    """(spec, leading shape) over dim 1-3, degree 1-3, constant on/off, trig, rank 2/3."""
    for dim in (1, 2, 3):
        for degree in (1, 2, 3):
            for constant in (True, False):
                for trig in LIBRARY_TRIGS:
                    spec = LibrarySpec(dim=dim, poly_degree=degree,
                                       include_constant=constant, trig=trig)
                    for lead in ((4,), (2, 3)):
                        yield spec, lead


def test_library_features_matches_numpy_route():
    rng = np.random.default_rng(0)
    for spec, lead in _library_grid():
        z = rng.standard_normal(lead + (spec.dim,))
        out = sindy.library_features(Tensor(z), spec).data
        want = sindy.evaluate_library(z.reshape(-1, spec.dim), spec)
        assert out.shape == lead + (spec.term_count,) and out.flags.c_contiguous
        assert np.array_equal(out.reshape(-1, spec.term_count), want), (spec, lead)


def test_library_features_gradient():
    rng = np.random.default_rng(1)
    for spec, lead in _library_grid():
        z = Tensor(rng.standard_normal(lead + (spec.dim,)), requires_grad=True)
        t = Tensor(rng.standard_normal(lead + (spec.term_count,)))
        err = dc.finite_diff_check(lambda: dc.mse(sindy.library_features(z, spec), t), [z])
        assert err < 1e-6, (spec, lead, err)


def _op_nodes(root):
    """Recorded (non-leaf) tape nodes reachable from ``root``."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if node.op is not None and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


def test_library_features_is_one_tape_node():
    spec = LibrarySpec(dim=3, poly_degree=3, trig=(("sin", 1.0), ("cos", 0.5)))
    z = Tensor(np.ones((2, 5, 3)), requires_grad=True)
    assert [n.op for n in _op_nodes(sindy.library_features(z, spec))] == ["library"]


# ---------------------------------------------------------------------------
# STLSQ
# ---------------------------------------------------------------------------

def test_stlsq_recovers_linear_decay():
    spec = LibrarySpec(dim=1, poly_degree=3)
    z = np.linspace(0.1, 2.0, 60)[:, None]
    dz = -2.0 * z
    model = sindy.fit_stlsq(z, dz, spec, threshold=0.1)
    expected = np.zeros((4, 1))
    expected[1, 0] = -2.0
    assert model.nnz == 1
    assert abs(model.Xi[1, 0] + 2.0) < 1e-10
    assert np.array_equal(model.mask, expected != 0)


def test_stlsq_recovers_harmonic_oscillator():
    spec = LibrarySpec(dim=2, poly_degree=3)
    rng = np.random.default_rng(2)
    Z = rng.uniform(-1, 1, (200, 2))
    dZ = np.stack([Z[:, 1], -Z[:, 0]], axis=1)
    model = sindy.fit_stlsq(Z, dZ, spec, threshold=0.1)
    assert model.nnz == 2
    lin = model.linear_generator()
    assert np.max(np.abs(lin - np.array([[0.0, 1.0], [-1.0, 0.0]]))) < 1e-8


def test_stlsq_zero_targets_gives_zero():
    spec = LibrarySpec(dim=2, poly_degree=2)
    rng = np.random.default_rng(3)
    Z = rng.uniform(-1, 1, (50, 2))
    model = sindy.fit_stlsq(Z, np.zeros_like(Z), spec, threshold=0.1)
    assert np.array_equal(model.Xi, np.zeros_like(model.Xi))


def test_stlsq_random_systems_recovered_50_trials():
    rng = np.random.default_rng(4)
    for trial in range(50):
        d = int(rng.integers(1, 4))
        spec = LibrarySpec(dim=d, poly_degree=2)
        p = spec.term_count
        xi_true = np.zeros((p, d))
        for j in range(d):
            support = rng.choice(p, size=int(rng.integers(1, 4)), replace=False)
            xi_true[support, j] = rng.uniform(0.5, 2.0, support.size) * rng.choice([-1, 1], support.size)
        Z = rng.uniform(-1, 1, (40 * p, d))
        dZ = sindy.evaluate_library(Z, spec) @ xi_true
        model = sindy.fit_stlsq(Z, dZ, spec, threshold=0.2)
        assert np.max(np.abs(model.Xi - xi_true)) < 1e-6, f"trial {trial}"
        assert np.array_equal(model.mask, xi_true != 0), f"trial {trial}"


def _polished(Z, dZ, spec, mask):
    """Ridge-free lstsq of each column on its final support, zero elsewhere."""
    theta = sindy.evaluate_library(Z, spec)
    Xi = np.zeros(mask.shape)
    for j in range(mask.shape[1]):
        Xi[mask[:, j], j] = np.linalg.lstsq(theta[:, mask[:, j]], dZ[:, j], rcond=None)[0]
    return Xi


@pytest.mark.parametrize("seed", range(4))
def test_polish_is_per_column_lstsq_on_each_support(seed):
    spec = LibrarySpec(dim=3, poly_degree=2, trig=(("sin", 1.0),))
    rng = np.random.default_rng(seed)
    Z = rng.uniform(-1, 1, (60, 3))
    dZ = rng.standard_normal((60, 3))
    mask = rng.random((spec.term_count, 3)) < 0.5
    mask[:, 0] = False                      # an empty support stays zero
    theta = sindy.evaluate_library(Z, spec)
    for library in (theta, np.ascontiguousarray(theta)):
        assert np.array_equal(sindy.polish(library, dZ, mask), _polished(Z, dZ, spec, mask))


@pytest.mark.parametrize("ridge", [0.0, 1e-3])
@pytest.mark.parametrize("iters", [20, 1])
def test_stlsq_result_is_polish_on_final_support(iters, ridge):
    spec = LibrarySpec(dim=2, poly_degree=3)
    rng = np.random.default_rng(6)
    Z = rng.uniform(-1, 1, (300, 2))
    dZ = np.stack([Z[:, 1], -Z[:, 0] - 0.5 * Z[:, 0] ** 3], axis=1)
    dZ += 0.05 * rng.standard_normal(dZ.shape)
    model = sindy.fit_stlsq(Z, dZ, spec, threshold=0.1, iters=iters, ridge=ridge)
    assert 0 < model.nnz < model.mask.size
    if iters > 1:
        # Converged: the support survives a further pass unchanged.
        again = sindy.fit_stlsq(Z, dZ, spec, threshold=0.1, iters=iters + 1, ridge=ridge)
        assert np.array_equal(again.mask, model.mask)
    # With iters=1 the one pass removed terms, so its solve was on a larger
    # support and the polish has to be solved afresh.
    assert np.array_equal(model.Xi, _polished(Z, dZ, spec, model.mask))


def test_stlsq_conditioning_error_without_ridge():
    # States on the unit circle make the constant and z1^2+z2^2 columns collinear.
    spec = LibrarySpec(dim=2, poly_degree=2)
    t = np.linspace(0, 2 * np.pi, 80, endpoint=False)
    Z = np.stack([np.cos(t), np.sin(t)], axis=1)
    dZ = np.stack([-np.sin(t), np.cos(t)], axis=1)
    with pytest.raises(sindy.ConditioningError, match="ridge"):
        sindy.fit_stlsq(Z, dZ, spec, threshold=0.0, iters=1, ridge=0.0)


def _stlsq_per_column(theta, dZ, threshold, iters, ridge):
    """STLSQ solving every round, the first included, one target column at a time."""
    p, d = theta.shape[1], dZ.shape[1]
    Xi = np.zeros((p, d))
    mask = np.ones((p, d), dtype=bool)
    for j in range(d):
        active = np.ones(p, dtype=bool)
        settled = None
        for _ in range(max(1, iters)):
            if not active.any():
                break
            coef = sindy._solve_ridge(theta[:, active], dZ[:, j], ridge)
            keep = np.abs(coef) >= threshold
            if keep.all():
                settled = coef
                break
            new_active = active.copy()
            new_active[active] = keep
            active = new_active
        mask[:, j] = active
        if ridge == 0 and settled is not None:
            Xi[active, j] = settled
        elif active.any():
            Xi[active, j] = np.linalg.lstsq(theta[:, active], dZ[:, j], rcond=None)[0]
    return Xi, mask


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("ridge", [0.0, 1e-6])
@pytest.mark.parametrize("iters", [1, 20])
def test_stlsq_joint_first_solve_matches_per_column(iters, ridge, dense):
    spec = LibrarySpec(dim=3, poly_degree=2)
    rng = np.random.default_rng(12)
    Z = rng.uniform(-1, 1, (500, 3))
    theta = sindy.evaluate_library(Z, spec)
    if dense:
        # Every coefficient is far above the threshold, so the first round keeps all terms.
        shape = (spec.term_count, 3)
        xi = rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.5, 2.0, shape)
    else:
        xi = np.zeros((spec.term_count, 3))
        xi[spec.linear_slice, :] = [[-0.1, 1.0, 0.0], [-1.0, -0.1, 0.0], [0.0, 0.0, -0.5]]
        xi[4, 2] = 0.8
    dZ = theta @ xi + 0.01 * rng.standard_normal((500, 3))
    Xi, mask = sindy._stlsq(theta, dZ, threshold=0.1, iters=iters, ridge=ridge)
    ref_Xi, ref_mask = _stlsq_per_column(theta, dZ, threshold=0.1, iters=iters, ridge=ridge)
    assert np.array_equal(mask, ref_mask)
    assert mask.all() == dense
    assert np.all(np.abs(Xi - ref_Xi) <= 1e-12 * np.abs(ref_Xi))


def test_stlsq_joint_first_solve_rank_deficient_raises():
    # A duplicated column makes theta rank-deficient for every target column at once.
    rng = np.random.default_rng(13)
    theta = rng.standard_normal((50, 3))
    theta = np.concatenate([theta, theta[:, :1]], axis=1)
    with pytest.raises(sindy.ConditioningError, match="ridge"):
        sindy._stlsq(theta, rng.standard_normal((50, 2)), threshold=0.1, iters=5, ridge=0.0)


def _orthonormal_columns(n, p, seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, p)))[0]


@pytest.mark.parametrize("case", ["fewer rows than columns", "duplicated column",
                                  "cond 1e14"])
def test_stlsq_ridge_free_ill_conditioned_raises(case):
    if case == "fewer rows than columns":
        theta = np.random.default_rng(15).standard_normal((3, 5))
    elif case == "duplicated column":
        theta = _orthonormal_columns(40, 4, 16)
        theta[:, 3] = theta[:, 0]
    else:
        # Orthonormal columns, one scaled by 1e-7: cond(theta^T theta) = 1e14.
        theta = _orthonormal_columns(40, 4, 17)
        theta[:, 2] *= 1e-7
        assert np.linalg.cond(theta.T @ theta) == pytest.approx(1e14, rel=1e-3)
    dZ = np.random.default_rng(18).standard_normal((theta.shape[0], 2))
    with pytest.raises(sindy.ConditioningError, match="ridge"):
        sindy._stlsq(theta, dZ, threshold=0.0, iters=1, ridge=0.0)


def test_stlsq_ridge_free_passes_at_cond_1e10():
    theta = _orthonormal_columns(40, 4, 17)
    theta[:, 2] *= 1e-5
    assert np.linalg.cond(theta.T @ theta) == pytest.approx(1e10, rel=1e-3)
    dZ = np.random.default_rng(18).standard_normal((40, 2))
    Xi, mask = sindy._stlsq(theta, dZ, threshold=0.0, iters=1, ridge=0.0)
    assert mask.all()
    # The result is each column's ridge-free polish on the full support.
    polished = [np.linalg.lstsq(theta, dZ[:, j], rcond=None)[0] for j in range(2)]
    assert np.array_equal(Xi, np.stack(polished, axis=1))


@pytest.mark.parametrize("ridge", [0.0, 1e-6])
@pytest.mark.parametrize("iters", [1, 20])
def test_stlsq_same_bits_on_column_and_row_major_theta(iters, ridge):
    spec = LibrarySpec(dim=3, poly_degree=2)
    rng = np.random.default_rng(19)
    Z = rng.uniform(-1, 1, (300, 3))
    theta = sindy.evaluate_library(Z, spec)
    xi = np.zeros((spec.term_count, 3))
    xi[spec.linear_slice, :] = [[-0.1, 1.0, 0.0], [-1.0, -0.1, 0.0], [0.0, 0.0, -0.5]]
    dZ = theta @ xi + 0.01 * rng.standard_normal((300, 3))
    row_major = np.ascontiguousarray(theta)
    assert theta.flags.f_contiguous and not row_major.flags.f_contiguous
    Xi_f, mask_f = sindy._stlsq(theta, dZ, threshold=0.1, iters=iters, ridge=ridge)
    Xi_c, mask_c = sindy._stlsq(row_major, dZ, threshold=0.1, iters=iters, ridge=ridge)
    assert np.array_equal(mask_f, mask_c) and not mask_f.all()
    assert np.array_equal(Xi_f, Xi_c)


def test_stlsq_zero_term_library_skips_solver(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver called on an empty library")

    monkeypatch.setattr(sindy, "_solve_ridge", no_solve)
    monkeypatch.setattr(np.linalg, "lstsq", no_solve)
    spec = LibrarySpec(dim=2, poly_degree=0, include_constant=False)
    Z = np.random.default_rng(14).standard_normal((10, 2))
    model = sindy.fit_stlsq(Z, Z, spec, threshold=0.1, ridge=0.0)
    assert model.Xi.shape == (0, 2) and model.mask.shape == (0, 2)


def test_stlsq_warns_when_underdetermined():
    spec = LibrarySpec(dim=2, poly_degree=3)
    rng = np.random.default_rng(5)
    Z = rng.uniform(-1, 1, (4, 2))
    with pytest.warns(UserWarning, match="samples"):
        sindy.fit_stlsq(Z, Z, spec, threshold=0.1)


# ---------------------------------------------------------------------------
# Euler cell
# ---------------------------------------------------------------------------

def _linear_model_1d(coeff: float, dt: float, k: int) -> SindyModel:
    spec = LibrarySpec(dim=1, poly_degree=1)
    Xi = np.array([[0.0], [coeff]])
    return SindyModel(spec=spec, Xi=Xi, mask=Xi != 0, dt=dt, k=k)


def test_sindy_cell_compound_euler_value():
    model = _linear_model_1d(1.0, dt=0.1, k=10)
    out = sindy.sindy_cell(np.array([1.0]), model)
    assert abs(out[0] - 1.1046221254112045) < 1e-7


def test_sindy_cell_k_doubling_halves_truncation_gap():
    target = np.e ** 0.1
    gap10 = target - sindy.sindy_cell(np.array([1.0]), _linear_model_1d(1.0, 0.1, 10))[0]
    gap20 = target - sindy.sindy_cell(np.array([1.0]), _linear_model_1d(1.0, 0.1, 20))[0]
    assert 0.45 <= gap20 / gap10 <= 0.55


def test_sindy_cell_null_dynamics_identity():
    spec = LibrarySpec(dim=2, poly_degree=2)
    model = SindyModel(spec=spec, Xi=np.zeros((spec.term_count, 2)),
                       mask=np.zeros((spec.term_count, 2), bool), dt=0.5, k=3)
    z = np.array([0.3, -0.7])
    assert np.array_equal(sindy.sindy_cell(z, model), z)


def test_sindy_cell_harmonic_trajectory():
    spec = LibrarySpec(dim=2, poly_degree=1, include_constant=False)
    G = np.array([[0.0, 1.0], [-1.0, 0.0]])  # zdot1 = z2, zdot2 = -z1
    model = SindyModel(spec=spec, Xi=G.T, mask=np.ones((2, 2), bool), dt=0.01, k=1)
    traj = sindy.rollout(model, np.array([1.0, 0.0]), 100)
    t = np.arange(101) * 0.01
    truth = np.stack([np.cos(t), -np.sin(t)], axis=1)
    assert np.max(np.abs(traj - truth)) < 1e-2


def test_sindy_cell_carries_non_finite_state():
    spec = LibrarySpec(dim=1, poly_degree=3, include_constant=False)
    Xi = np.array([[0.0], [0.0], [1.0]])  # zdot = z^3 blows up
    model = SindyModel(spec=spec, Xi=Xi, mask=Xi != 0, dt=10.0, k=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sindy.sindy_cell(np.array([50.0]), model)
        assert not np.isfinite(out).any()
        assert not np.isfinite(sindy.sindy_cell(out, model)).any()


@pytest.mark.parametrize("shape", [(6,), (6, 3), (2, 5, 2), (1, 2, 6, 2)])
def test_sindy_model_rejects_xi_that_is_not_one_member_or_a_stack(shape):
    spec = LibrarySpec(dim=2, poly_degree=2)          # 6 terms
    assert SindyModel(spec=spec, Xi=np.zeros((3, 6, 2)), mask=np.ones((3, 6, 2), bool)).nnz == 36
    with pytest.raises(sindy.DimensionMismatchError, match="Xi shape"):
        SindyModel(spec=spec, Xi=np.zeros(shape), mask=np.ones(shape, bool))


def _random_members(rng, spec, count, k, scale=1.0):
    p, d = spec.term_count, spec.dim
    members = []
    for _ in range(count):
        mask = rng.random((p, d)) < 0.7
        Xi = np.where(mask, scale * rng.standard_normal((p, d)), 0.0)
        members.append(SindyModel(spec=spec, Xi=Xi, mask=mask, dt=0.05, k=k))
    return members


def _stacked(members):
    return SindyModel(spec=members[0].spec, Xi=np.stack([m.Xi for m in members]),
                      mask=np.stack([m.mask for m in members]),
                      dt=members[0].dt, k=members[0].k)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 5), degree=st.integers(1, 3), trig=st.booleans(),
       members=st.integers(1, 10), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(d=2, degree=3, trig=True, members=1, k=3, seed=0)
def test_sindy_cell_stacked_rows_match_each_member(d, degree, trig, members, k, seed):
    rng = np.random.default_rng(seed)
    spec = LibrarySpec(dim=d, poly_degree=degree, trig=(("sin", 1.0),) if trig else ())
    ensemble = _random_members(rng, spec, members, k)
    z = rng.uniform(-1.0, 1.0, (members, d))
    got = sindy.sindy_cell(z, _stacked(ensemble))
    assert got.shape == z.shape
    for e, member in enumerate(ensemble):
        assert np.array_equal(got[e], sindy.sindy_cell(z[e], member))


def test_sindy_cell_non_finite_row_leaves_other_rows_unchanged():
    rng = np.random.default_rng(11)
    spec = LibrarySpec(dim=2, poly_degree=3, trig=(("sin", 1.0),))
    ensemble = _random_members(rng, spec, 4, k=3, scale=0.2)
    ensemble[2].Xi = ensemble[2].Xi * 1e200
    z = rng.uniform(-1.0, 1.0, (4, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = sindy.rollout(_stacked(ensemble), z, 20)
    assert not np.isfinite(traj[-1, 2]).any()
    for e in (0, 1, 3):
        assert np.isfinite(traj[:, e]).all()
        assert np.array_equal(traj[:, e], sindy.rollout(ensemble[e], z[e], 20))


def test_rollout_masks_xi_once_and_equals_chained_cells(monkeypatch):
    rng = np.random.default_rng(12)
    spec = LibrarySpec(dim=3, poly_degree=2, trig=(("sin", 1.0),))
    member = _random_members(rng, spec, 1, k=3, scale=0.3)[0]
    z = rng.uniform(-1.0, 1.0, 3)
    chain = [z]
    for _ in range(25):
        chain.append(sindy.sindy_cell(chain[-1], member))
    masked, calls = SindyModel.effective_Xi, []
    monkeypatch.setattr(SindyModel, "effective_Xi",
                        lambda self: calls.append(1) or masked(self))
    assert np.array_equal(sindy.rollout(member, z, 25), np.stack(chain))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Ensemble loss
# ---------------------------------------------------------------------------

def _xi_tensors(values, requires_grad=True):
    return [Tensor(v, requires_grad=requires_grad) for v in values]


def test_ensemble_loss_stationary_zero():
    spec = LibrarySpec(dim=2, poly_degree=2)
    p = spec.term_count
    z = Tensor(np.tile([0.4, -0.2], (6, 1)))
    xis = _xi_tensors([np.zeros((p, 2))] * 3)
    masks = [np.ones((p, 2), bool)] * 3
    loss = sindy.ensemble_sindy_loss(z, z, xis, masks, spec, dt=0.1, k=4)
    assert float(loss.data) == 0.0


def test_ensemble_loss_duplicate_member_doubles():
    spec = LibrarySpec(dim=2, poly_degree=2)
    rng = np.random.default_rng(6)
    p = spec.term_count
    z_t = Tensor(rng.standard_normal((5, 2)))
    z_n = Tensor(rng.standard_normal((5, 2)))
    xi = rng.standard_normal((p, 2)) * 0.2
    mask = np.ones((p, 2), bool)
    one = sindy.ensemble_sindy_loss(z_t, z_n, _xi_tensors([xi]), [mask], spec, 0.1, 3)
    two = sindy.ensemble_sindy_loss(z_t, z_n, _xi_tensors([xi, xi.copy()]),
                                    [mask, mask], spec, 0.1, 3)
    assert abs(float(two.data) - 2.0 * float(one.data)) < 1e-14


def test_ensemble_loss_euler_truncation_bound():
    # Latents generated by the exact flow of a linear system; the exact
    # generator's one-step Euler error is bounded by the matrix-power gap.
    dt, k = 0.1, 4
    G = np.array([[-0.05, 1.2], [-1.2, -0.05]])
    E = scipy.linalg.expm(dt * G)
    n = 40
    Z = np.empty((n + 1, 2))
    Z[0] = [1.0, 0.3]
    for t in range(n):
        Z[t + 1] = E @ Z[t]
    spec = LibrarySpec(dim=2, poly_degree=1, include_constant=False)
    loss = sindy.ensemble_sindy_loss(Tensor(Z[:-1]), Tensor(Z[1:]),
                                     _xi_tensors([G.T]), [np.ones((2, 2), bool)],
                                     spec, dt, k)
    h = dt / k
    P = np.linalg.matrix_power(np.eye(2) + h * G, k)
    gap = np.linalg.norm(E - P, 2)
    max_norm2 = max(np.sum(Z[t] ** 2) for t in range(n))
    assert float(loss.data) <= gap ** 2 * max_norm2
    # The gap itself is O(h): doubling k halves it.
    P2 = np.linalg.matrix_power(np.eye(2) + (dt / (2 * k)) * G, 2 * k)
    assert 0.4 <= np.linalg.norm(E - P2, 2) / gap <= 0.6


def test_ensemble_loss_empty_batch_rejected():
    spec = LibrarySpec(dim=1, poly_degree=1)
    z = Tensor(np.zeros((0, 1)))
    with pytest.raises(sindy.DimensionMismatchError):
        sindy.ensemble_sindy_loss(z, z, _xi_tensors([np.zeros((2, 1))]),
                                  [np.ones((2, 1), bool)], spec, 0.1, 1)


def test_ensemble_loss_gradient_wrt_xi_and_latents():
    spec = LibrarySpec(dim=2, poly_degree=2)
    rng = np.random.default_rng(7)
    p = spec.term_count
    z_t = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    z_n = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    xis = _xi_tensors([rng.standard_normal((p, 2)) * 0.3 for _ in range(2)])
    masks = [np.ones((p, 2), bool)] * 2

    def f():
        return sindy.ensemble_sindy_loss(z_t, z_n, xis, masks, spec, 0.05, 3)

    assert dc.finite_diff_check(f, xis + [z_t, z_n], h=1e-6) < 1e-5


@pytest.mark.parametrize("members, k", [(1, 1), (8, 1), (4, 10)])
def test_ensemble_loss_node_count(members, k):
    # Concat, reshape and mask multiply stack the members; each endpoint is
    # reshaped once; a mini-step is library, matmul, scale and add; then mse
    # and the member-count scale.
    spec = LibrarySpec(dim=2, poly_degree=3, trig=(("sin", 1.0),))
    p = spec.term_count
    z_t = Tensor(np.full((6, 2), 0.1), requires_grad=True)
    z_n = Tensor(np.full((6, 2), 0.2), requires_grad=True)
    xis = _xi_tensors([np.zeros((p, 2))] * members)
    loss = sindy.ensemble_sindy_loss(z_t, z_n, xis, [np.ones((p, 2), bool)] * members,
                                     spec, 0.1, k)
    ops = [n.op for n in _op_nodes(loss)]
    assert len(ops) == 7 + 4 * k
    assert ops.count("library") == k


def test_masked_entries_receive_zero_gradient():
    spec = LibrarySpec(dim=1, poly_degree=2)
    p = spec.term_count
    rng = np.random.default_rng(8)
    xi = Tensor(rng.standard_normal((p, 1)), requires_grad=True)
    mask = np.array([[False], [True], [False]])
    z_t = Tensor(rng.standard_normal((5, 1)))
    z_n = Tensor(rng.standard_normal((5, 1)))
    loss = sindy.ensemble_sindy_loss(z_t, z_n, [xi], [mask], spec, 0.1, 2)
    dc.backward(loss)
    assert np.all(xi.grad[~mask] == 0.0)
    assert np.any(xi.grad[mask] != 0.0)


# ---------------------------------------------------------------------------
# Thresholding
# ---------------------------------------------------------------------------

def _model_from_xi(xi):
    xi = np.asarray(xi, float)
    spec = LibrarySpec(dim=1, poly_degree=xi.shape[0] - 1)
    return SindyModel(spec=spec, Xi=xi, mask=np.ones_like(xi, bool), dt=1.0, k=1)


def test_threshold_prune_definition():
    model = _model_from_xi([[0.5], [0.05]])
    pruned = sindy.threshold_prune(model, 0.1)
    assert pruned.mask.tolist() == [[True], [False]]
    assert pruned.Xi.tolist() == [[0.5], [0.0]]


@pytest.mark.parametrize("seed", range(4))
def test_threshold_prune_stacked_ladder_matches_member_loop(seed):
    spec = LibrarySpec(dim=3, poly_degree=2)
    rng = np.random.default_rng(seed)
    mask = rng.random((5, spec.term_count, 3)) < 0.7
    Xi = np.where(mask, rng.standard_normal(mask.shape), 0.0)
    ladder = sindy.threshold_ladder(0.1, 1.5, 5)
    stacked = sindy.threshold_prune(SindyModel(spec=spec, Xi=Xi, mask=mask),
                                    np.array(ladder)[:, None, None])
    for e, thr in enumerate(ladder):
        one = sindy.threshold_prune(SindyModel(spec=spec, Xi=Xi[e], mask=mask[e]), thr)
        assert np.array_equal(stacked.mask[e], one.mask)
        assert np.array_equal(stacked.Xi[e], one.Xi)
    with pytest.raises(ValueError, match="threshold"):
        sindy.threshold_prune(stacked, np.array([0.1, -0.1, 0.1, 0.1, 0.1])[:, None, None])


def test_threshold_prune_zero_threshold_noop():
    model = _model_from_xi([[0.5], [0.05]])
    pruned = sindy.threshold_prune(model, 0.0)
    assert np.array_equal(pruned.Xi, model.Xi)
    assert np.array_equal(pruned.mask, model.mask)


def test_threshold_prune_idempotent():
    model = _model_from_xi([[0.5], [0.05], [0.3]])
    once = sindy.threshold_prune(model, 0.1)
    twice = sindy.threshold_prune(once, 0.1)
    assert np.array_equal(once.Xi, twice.Xi)
    assert np.array_equal(once.mask, twice.mask)


def test_threshold_prune_monotone():
    model = _model_from_xi([[0.5], [0.05], [0.3]])
    pruned = sindy.threshold_prune(model, 0.1)
    # A cleared entry stays cleared even if the coefficient would re-qualify.
    pruned.Xi[1, 0] = 0.9
    again = sindy.threshold_prune(pruned, 0.1)
    assert not again.mask[1, 0]


# ---------------------------------------------------------------------------
# Koopman restriction and losses
# ---------------------------------------------------------------------------

def test_koopman_restrict_pure_linear():
    spec = LibrarySpec(dim=3, poly_degree=3, trig=(("sin", 1.0),))
    restricted = sindy.koopman_restrict(spec)
    assert restricted.term_count == 3
    assert restricted.term_names() == ["z1", "z2", "z3"]


def test_koopman_restrict_idempotent():
    spec = LibrarySpec(dim=2, poly_degree=3)
    once = sindy.koopman_restrict(spec)
    assert sindy.koopman_restrict(once) == once


def test_koopman_restricted_rollout_matches_matrix_exponential():
    G = np.array([[0.0, 1.0], [-1.0, -0.1]])
    spec = sindy.koopman_restrict(LibrarySpec(dim=2, poly_degree=3))
    model = SindyModel(spec=spec, Xi=G.T, mask=np.ones((2, 2), bool), dt=0.02, k=20)
    m = 50
    traj = sindy.rollout(model, np.array([1.0, 0.0]), m)
    truth = scipy.linalg.expm(m * 0.02 * G) @ np.array([1.0, 0.0])
    # Euler truncation: h * |G|^2 * T * e^(|G|T) scale; generous envelope.
    h = 0.02 / 20
    assert np.linalg.norm(traj[-1] - truth) < 10 * h


def test_koopman_loss_identity_fixed_point():
    z = Tensor(np.tile([0.5, -0.3], (7, 1)))
    K = Tensor(np.eye(2), requires_grad=True)
    loss = sindy.koopman_loss([z, z, z], K, m_max=2)
    assert float(loss.data) == 0.0


def test_koopman_loss_exact_linear_orbit():
    rng = np.random.default_rng(9)
    K = rng.standard_normal((2, 2)) * 0.4 + np.eye(2)
    z0 = rng.standard_normal((5, 2))
    zs = [z0]
    for _ in range(3):
        zs.append(zs[-1] @ K)
    loss = sindy.koopman_loss([Tensor(z) for z in zs], Tensor(K), m_max=3)
    assert float(loss.data) < 1e-28


def test_koopman_loss_zero_predictor_unit_latents():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((30, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    loss = sindy.koopman_loss([Tensor(z), Tensor(z)], Tensor(np.zeros((2, 2))), m_max=1)
    # mean over entries of z^2 = 1/d with unit-norm rows.
    assert abs(float(loss.data) - 0.5) < 1e-12


def test_koopman_loss_sequence_too_short():
    z = Tensor(np.zeros((3, 2)))
    with pytest.raises(sindy.DimensionMismatchError):
        sindy.koopman_loss([z, z], Tensor(np.eye(2)), m_max=2)


# ---------------------------------------------------------------------------
# Eigen-analysis
# ---------------------------------------------------------------------------

def test_analyze_rotation_generator():
    analysis = sindy.analyze_linear_system(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert len(analysis.modes) == 1
    mode = analysis.modes[0]
    assert abs(mode.omega - 1.0) < 1e-12
    assert abs(mode.growth_rate) < 1e-12
    assert abs(mode.period - 2 * np.pi) < 1e-12


def test_analyze_half_life():
    analysis = sindy.analyze_linear_system(np.diag([-0.693]))
    mode = analysis.modes[0]
    assert mode.half_life is not None
    assert abs(mode.half_life - 1.0) < 1e-3


def test_analyze_sea_surface_style_generator():
    # Linear 3-D system with one slow-decay oscillatory pair and one growth mode.
    G = np.array([[0.0, 4.68, -2.37],
                  [-3.10, 0.0, 3.25],
                  [2.72, -5.55, 0.0]])
    analysis = sindy.analyze_linear_system(G)
    oscillatory = [m for m in analysis.modes if m.omega > 0]
    real = [m for m in analysis.modes if m.omega == 0]
    assert len(oscillatory) == 1 and len(real) == 1
    assert abs(oscillatory[0].omega - 6.2444) < 5e-3
    assert abs(oscillatory[0].growth_rate + 0.00763) < 1e-4
    assert abs(real[0].growth_rate - 0.01527) < 1e-4
    assert abs(oscillatory[0].half_life - 90.84) < 0.2
    assert abs(real[0].doubling_time - 45.39) < 0.1


def test_analyze_eigenpair_residual_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        G = rng.standard_normal((4, 4))
        analysis = sindy.analyze_linear_system(G)
        scale = np.linalg.norm(G)
        for mu, v in zip(analysis.eigenvalues, analysis.eigenvectors.T):
            assert np.linalg.norm(G @ v - mu * v) <= 1e-8 * scale * np.linalg.norm(v)


def test_analyze_rejects_nonsquare():
    with pytest.raises(sindy.DimensionMismatchError):
        sindy.analyze_linear_system(np.ones((2, 3)))


def test_analyze_rejects_nonfinite():
    with pytest.raises(sindy.EigenAnalysisError):
        sindy.analyze_linear_system(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def test_equations_text_format():
    spec = LibrarySpec(dim=2, poly_degree=2)
    Xi = np.zeros((spec.term_count, 2))
    names = spec.term_names()
    Xi[names.index("z2"), 0] = 4.68
    Xi[names.index("z1"), 1] = -3.1
    Xi[names.index("z1^2"), 1] = 0.5
    model = SindyModel(spec=spec, Xi=Xi, mask=Xi != 0, dt=1.0, k=1)
    text = sindy.equations_text(model)
    assert text.splitlines() == ["dz1/dt = 4.68 z2", "dz2/dt = -3.1 z1 + 0.5 z1^2"]


def test_finite_differences_exact_on_quadratic():
    t = np.linspace(0, 1, 21)
    Z = (t ** 2)[:, None]
    dZ = sindy.finite_differences(Z, dt=t[1] - t[0])
    assert np.allclose(dZ[:, 0], 2 * t, atol=1e-10)
