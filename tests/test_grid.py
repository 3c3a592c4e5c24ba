"""Operator oracles and conservation/symmetry properties.

The reference stencils here are deliberately written as plain loops over
cells and faces, independent of the vectorized implementations they check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellerscope import (Domain, Field, GridShapeError, ModelParams,
                         chemotactic_divergence, diffusive_divergence,
                         integrate, laplacian_neumann)
from kellerscope.model import phi


# ---------------------------------------------------------------- references

def ref_laplacian_1d(vals, h):
    n = len(vals)
    out = np.zeros(n)
    for i in range(n):
        left = vals[i] if i == 0 else vals[i - 1]       # mirror ghost
        right = vals[i] if i == n - 1 else vals[i + 1]
        out[i] = (left - 2.0 * vals[i] + right) / h**2
    return out


def ref_diffusive_1d(u, h, params):
    n = len(u)
    flux = np.zeros(n + 1)  # faces, boundary entries stay zero
    for f in range(1, n):
        face_u = 0.5 * (u[f - 1] + u[f])
        flux[f] = phi(face_u, params) * (u[f] - u[f - 1]) / h
    return np.diff(flux) / h


def ref_chemotactic_1d(u, v, chi, h):
    n = len(u)
    flux = np.zeros(n + 1)
    for f in range(1, n):
        w = chi * (v[f] - v[f - 1]) / h
        if w > 0:
            flux[f] = w * u[f - 1]
        elif w < 0:
            flux[f] = w * u[f]
    return np.diff(flux) / h


def random_fields(d, seed, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return (Field(lo + (hi - lo) * rng.random(d.shape), d),
            Field(lo + (hi - lo) * rng.random(d.shape), d))


DOMAINS = [Domain((2.0,), (17,)), Domain((1.0, 1.5), (9, 13))]


# ------------------------------------------------------------------- Domain

def test_domain_basics():
    d = Domain((2.0, 3.0), (4, 6))
    assert d.dim == 2
    assert d.spacing == (0.5, 0.5)
    assert d.measure == 6.0
    assert d.cell_volume == 0.25
    assert np.allclose(d.centers(0), [0.25, 0.75, 1.25, 1.75])


@pytest.mark.parametrize("lengths,cells", [
    ((1.0,), (2,)),            # too few cells
    ((1.0, 1.0, 1.0), (4, 4, 4)),   # 3D unsupported
    ((0.0,), (4,)),            # degenerate extent
    ((-1.0, 1.0), (4, 4)),
    ((1.0, 1.0), (4,)),        # axis count mismatch
])
def test_domain_rejects_bad_geometry(lengths, cells):
    with pytest.raises(ValueError):
        Domain(lengths, cells)


def test_field_shape_must_match_domain():
    d = Domain((1.0,), (5,))
    with pytest.raises(GridShapeError):
        Field(np.zeros(4), d)
    other = Domain((1.0,), (7,))
    f = Field(np.zeros(5), d)
    with pytest.raises(GridShapeError):
        laplacian_neumann(f, other)


# ---------------------------------------------------------------- laplacian

def test_laplacian_constant_in_kernel():
    for d in DOMAINS:
        out = laplacian_neumann(Field.constant(d, 7.0), d)
        assert np.all(out.values == 0.0)


def test_laplacian_exact_on_quadratic_interior():
    d = Domain((10.0,), (10,))  # h = 1
    x = d.centers(0)
    out = laplacian_neumann(Field(x**2, d), d)
    assert np.allclose(out.values[1:-1], 2.0, atol=1e-12)


def test_laplacian_three_cell_oracle():
    d = Domain((3.0,), (3,))  # h = 1
    out = laplacian_neumann(Field(np.array([0.0, 1.0, 0.0]), d), d)
    assert np.allclose(out.values, [1.0, -2.0, 1.0])
    assert np.allclose(out.values, ref_laplacian_1d(np.array([0.0, 1.0, 0.0]), 1.0))


def test_laplacian_matches_reference_on_random_1d():
    d = Domain((2.0,), (23,))
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(23)
    out = laplacian_neumann(Field(vals, d), d)
    assert np.allclose(out.values, ref_laplacian_1d(vals, d.spacing[0]), atol=1e-12)


def test_laplacian_linearity():
    d = DOMAINS[1]
    f, g = random_fields(d, 3, -1.0, 1.0)
    lhs = laplacian_neumann(Field(2.5 * f.values - 0.5 * g.values, d), d).values
    rhs = (2.5 * laplacian_neumann(f, d).values
           - 0.5 * laplacian_neumann(g, d).values)
    assert np.allclose(lhs, rhs, atol=1e-13)


# ---------------------------------------------------------------- diffusive

def test_diffusive_constant_zero_and_reduction_to_laplacian():
    params_lin = ModelParams(tau=1.0, chi=1.0, mu=1.0, k=1.0, phi_family="linear")
    for d in DOMAINS:
        u = Field.constant(d, 4.2)
        assert np.all(diffusive_divergence(u, params_lin, d).values == 0.0)
        u, _ = random_fields(d, 11, 0.1, 2.0)
        got = diffusive_divergence(u, params_lin, d).values
        want = laplacian_neumann(u, d).values
        assert np.allclose(got, want, atol=1e-13)


def test_diffusive_three_cell_oracle():
    # canonical family, k=1, p=1: phi(s) = 1 + s
    d = Domain((3.0,), (3,))
    params = ModelParams(tau=1.0, chi=1.0, mu=1.0, k=1.0, p=1.0)
    u = np.array([1.0, 3.0, 3.0])
    out = diffusive_divergence(Field(u, d), params, d)
    # face 1: phi(2) = 3, grad = 2 -> flux 6; face 2: grad 0 -> flux 0
    assert np.allclose(out.values, [6.0, -6.0, 0.0])
    assert np.allclose(out.values, ref_diffusive_1d(u, 1.0, params))


def test_diffusive_matches_reference_on_random_1d():
    d = Domain((1.3,), (19,))
    params = ModelParams(tau=1.0, chi=1.0, mu=1.0, k=0.7, p=2.0)
    rng = np.random.default_rng(5)
    u = rng.random(19) + 0.05
    got = diffusive_divergence(Field(u, d), params, d).values
    assert np.allclose(got, ref_diffusive_1d(u, d.spacing[0], params), atol=1e-12)


def test_diffusive_rejects_negative_density():
    d = Domain((1.0,), (5,))
    params = ModelParams(tau=1.0, chi=1.0, mu=1.0)
    with pytest.raises(ValueError):
        diffusive_divergence(Field(np.array([1.0, -0.1, 1.0, 1.0, 1.0]), d), params, d)


# -------------------------------------------------------------- chemotactic

def test_chemotactic_constant_signal_gives_zero():
    for d in DOMAINS:
        u, _ = random_fields(d, 13, 0.0, 2.0)
        out = chemotactic_divergence(u, Field.constant(d, 5.0), 1.0, d)
        assert np.all(out.values == 0.0)


def test_chemotactic_three_cell_upwind_oracle():
    d = Domain((3.0,), (3,))
    u = np.array([1.0, 2.0, 1.0])
    v = np.array([0.0, 1.0, 2.0])
    out = chemotactic_divergence(Field(u, d), Field(v, d), 1.0, d)
    # w = +1 at both faces, donors u[0]=1 and u[1]=2 -> fluxes 1 and 2
    assert np.allclose(out.values, [1.0, 1.0, -2.0])
    assert np.allclose(out.values, ref_chemotactic_1d(u, v, 1.0, 1.0))


def test_chemotactic_division_sign_moves_mass_up_gradient():
    # The evolution equation subtracts this operator's output, which must
    # drain the low-v cell and fill the high-v cell.
    d = Domain((3.0,), (3,))
    u = Field(np.array([1.0, 1.0, 1.0]), d)
    v = Field(np.array([0.0, 1.0, 2.0]), d)
    drift = -chemotactic_divergence(u, v, 1.0, d).values
    assert drift[0] < 0 and drift[-1] > 0


def test_chemotactic_reversed_signal_oracle():
    d = Domain((3.0,), (3,))
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([1.0, 0.0, 0.0])
    out = chemotactic_divergence(Field(u, d), Field(v, d), 1.0, d)
    assert np.allclose(out.values, ref_chemotactic_1d(u, v, 1.0, 1.0))


def test_chemotactic_matches_reference_on_random_1d():
    d = Domain((0.8,), (31,))
    rng = np.random.default_rng(17)
    u = rng.random(31)
    v = rng.standard_normal(31)
    got = chemotactic_divergence(Field(u, d), Field(v, d), 2.3, d).values
    assert np.allclose(got, ref_chemotactic_1d(u, v, 2.3, d.spacing[0]), atol=1e-12)


def test_chemotactic_upwind_face_flux_sign():
    # with u >= 0 the face flux carries the sign of the face velocity
    d = Domain((1.0,), (25,))
    rng = np.random.default_rng(23)
    u = rng.random(25)
    v = rng.standard_normal(25)
    h = d.spacing[0]
    for f in range(1, 25):
        w = 1.7 * (v[f] - v[f - 1]) / h
        flux = w * (u[f - 1] if w > 0 else u[f]) if w != 0 else 0.0
        assert flux * w >= 0.0


def test_chemotactic_zero_velocity_tiebreak():
    d = Domain((3.0,), (3,))
    u = Field(np.array([1.0, 2.0, 3.0]), d)
    v = Field(np.array([1.0, 1.0, 2.0]), d)   # first face w == 0
    out = chemotactic_divergence(u, v, 1.0, d).values
    # only the second face carries flux (w=1, donor u[1]=2)
    assert np.allclose(out, [0.0, 2.0, -2.0])


# ---------------------------------------------------------------- integrate

def test_integrate_measures_domain():
    d = Domain((2.0,), (8,))
    assert integrate(Field.constant(d, 1.0), d) == pytest.approx(2.0, abs=1e-15)


def test_integrate_arithmetic():
    d = Domain((1.5,), (3,))  # h = 0.5
    assert integrate(Field(np.array([1.0, 2.0, 3.0]), d), d) == pytest.approx(3.0)


def test_integrate_linearity():
    d = DOMAINS[1]
    f, g = random_fields(d, 29, -2.0, 2.0)
    lhs = integrate(Field(3.0 * f.values + g.values, d), d)
    rhs = 3.0 * integrate(f, d) + integrate(g, d)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


# ------------------------------------------------------------- conservation

@pytest.mark.parametrize("seed", range(5))
def test_conservation_all_operators(seed):
    params = ModelParams(tau=1.0, chi=1.4, mu=1.0, k=0.6, p=1.0)
    for d in DOMAINS:
        u, v = random_fields(d, seed, 0.0, 3.0)
        g, _ = random_fields(d, seed + 100, -2.0, 2.0)
        for out in (laplacian_neumann(g, d),
                    diffusive_divergence(u, params, d),
                    chemotactic_divergence(u, v, 1.4, d)):
            budget = 1e-12 * np.sum(np.abs(out.values)) * d.cell_volume + 1e-14
            assert abs(integrate(out, d)) <= budget


@st.composite
def domains(draw):
    """1D and 2D boxes on both sides of the 1024-cell gather threshold."""
    dim = draw(st.sampled_from([1, 2]))
    return Domain(tuple(draw(st.floats(0.05, 20.0)) for _ in range(dim)),
                  tuple(draw(st.integers(3, 40 if dim == 2 else 2000))
                        for _ in range(dim)))


@settings(max_examples=40)
@given(d=domains(), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
       c=st.floats(0.0, 1e3), chi=st.floats(0.01, 10.0), k=st.floats(0.01, 10.0),
       p=st.floats(0.0, 3.0))
def test_operators_conserve_and_annihilate_constants_property(d, seed, scale, c,
                                                              chi, k, p):
    params = ModelParams(tau=1.0, chi=chi, mu=1.0, k=k, p=p)
    u, v = random_fields(d, seed, 0.0, scale)
    g, _ = random_fields(d, seed + 1, -scale, scale)
    for out in (laplacian_neumann(g, d), diffusive_divergence(u, params, d),
                chemotactic_divergence(u, v, chi, d)):
        budget = 1e-12 * np.sum(np.abs(out.values)) * d.cell_volume + 1e-14
        assert abs(integrate(out, d)) <= budget
    const = Field.constant(d, c)
    for out in (laplacian_neumann(const, d), diffusive_divergence(const, params, d),
                chemotactic_divergence(u, const, chi, d)):
        assert np.all(out.values == 0.0)


# ---------------------------------------------------------- mirror symmetry

@pytest.mark.parametrize("axis", [0, 1])
def test_mirror_symmetry_2d(axis):
    d = Domain((1.0, 1.0), (8, 10))
    params = ModelParams(tau=1.0, chi=1.0, mu=1.0, k=1.0, p=1.0)
    u, v = random_fields(d, 41, 0.0, 2.0)
    flip = lambda a: np.flip(a, axis=axis)
    for op in (lambda uu, vv: laplacian_neumann(vv, d),
               lambda uu, vv: diffusive_divergence(uu, params, d),
               lambda uu, vv: chemotactic_divergence(uu, vv, 1.0, d)):
        direct = flip(op(u, v).values)
        reflected = op(Field(flip(u.values), d), Field(flip(v.values), d)).values
        assert np.array_equal(direct, reflected)


def test_laplacian_integral_vanishes_on_random_field():
    d = Domain((1.0,), (64,))
    rng = np.random.default_rng(55)
    g = Field(rng.standard_normal(64), d)
    out = laplacian_neumann(g, d)
    assert abs(integrate(out, d)) <= 1e-12 * np.sum(np.abs(g.values))
