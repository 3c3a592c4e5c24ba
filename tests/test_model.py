"""Coefficient families, right-hand sides, steady states."""

import numpy as np
import pytest

from kellerscope import (Domain, Field, ModelParams, chemotactic_divergence,
                         diffusive_divergence, g_logistic,
                         homogeneous_steady_state, integrate, phi, rhs_u, rhs_v)
from kellerscope.grid import laplacian_neumann


def params(**kw):
    base = dict(tau=1.0, chi=1.0, mu=1.0)
    base.update(kw)
    return ModelParams(**base)


# ------------------------------------------------------------------ params

@pytest.mark.parametrize("bad", [
    dict(tau=0.0), dict(tau=-1.0), dict(chi=0.0), dict(mu=0.0),
    dict(a=-0.5), dict(k=0.0),
    dict(a=float("nan")), dict(a=float("inf")), dict(tau=float("inf")),
    dict(chi=float("inf")), dict(mu=float("inf")), dict(k=float("inf")),
    dict(p=float("inf")),
])
def test_params_validation(bad):
    [name] = bad
    with pytest.raises(ValueError, match=f"^{name} "):
        params(**bad)


def test_linear_family_forces_p_zero():
    p = params(p=3.0, phi_family="linear")
    assert p.p == 0.0
    assert phi(100.0, p) == p.k


def test_canonical_negative_p_rejected_by_lower_bound_scan():
    # (1+s)^p < s^p for every s > 0 when p < 0, so the canonical family
    # cannot satisfy the required lower bound and must be refused, however
    # close to zero p is.
    for p in (-0.5, -1e-13):
        with pytest.raises(ValueError):
            params(p=p)


# --------------------------------------------------------------------- phi

def test_phi_constant_diffusivity():
    assert phi(5.0, params(k=1.0, p=0.0)) == 1.0


def test_phi_canonical_value():
    assert phi(3.0, params(k=2.0, p=1.0)) == 8.0


def test_phi_lower_bound_scan_quadratic():
    p = params(k=1.0, p=2.0)
    s = np.geomspace(2.0, 1.0e4, 200)
    assert np.all(phi(s, p) >= s**2)


def test_phi_rejects_negative_density():
    with pytest.raises(ValueError):
        phi(-1.0, params())


def test_phi_positive_on_grid():
    p = params(k=0.3, p=1.5)
    s = np.geomspace(1e-12, 1e6, 100)
    assert np.all(phi(s, p) > 0.0)
    assert phi(0.0, p) == 0.3


# -------------------------------------------------------------- g_logistic

def test_g_logistic_values():
    assert g_logistic(0.5, params(a=1.0, mu=2.0)) == pytest.approx(0.0)
    assert g_logistic(2.0, params(a=0.0, mu=1.0)) == pytest.approx(-4.0)
    assert g_logistic(1.0, params(a=2.0, mu=1.0)) == pytest.approx(1.0)


def test_g_logistic_zero_at_origin_and_rejects_negative():
    assert g_logistic(0.0, params(a=3.0)) == 0.0
    with pytest.raises(ValueError):
        g_logistic(-1e-6, params())


def test_g_logistic_equals_extremal_parabola_everywhere():
    p = params(a=1.7, mu=0.9)
    s = np.linspace(0.0, 50.0, 1001)
    assert np.array_equal(g_logistic(s, p), p.a * s - p.mu * s**2)


def test_g_logistic_reaction_off():
    p = params(a=2.0, mu=1.0, reaction_on=False)
    assert g_logistic(3.0, p) == 0.0


# ------------------------------------------------------------------ rhs ops

DOMAINS = [Domain((2.0,), (12,)), Domain((1.0, 1.0), (7, 9))]


def test_rhs_vanish_at_homogeneous_steady_state():
    p = params(a=1.2, mu=3.0, chi=0.8, k=0.4, p=1.0, tau=1.7)
    u_star, v_star = homogeneous_steady_state(p)
    assert u_star == pytest.approx(0.4, rel=1e-15) and v_star == u_star
    for d in DOMAINS:
        u = Field.constant(d, u_star)
        v = Field.constant(d, v_star)
        assert np.allclose(rhs_u(u, v, p, d).values, 0.0, atol=1e-15)
        assert np.allclose(rhs_v(u, v, p, d).values, 0.0, atol=1e-15)


@pytest.mark.parametrize("a,mu,expect", [(1.0, 2.0, 0.5), (0.0, 1.0, 0.0), (3.0, 1.0, 3.0)])
def test_homogeneous_steady_state_values(a, mu, expect):
    u_star, v_star = homogeneous_steady_state(params(a=a, mu=mu))
    assert u_star == expect and v_star == expect


def test_rhs_u_reduces_to_diffusion_without_signal_and_reaction():
    d = DOMAINS[0]
    p = params(a=0.0, reaction_on=False)
    rng = np.random.default_rng(2)
    u = Field(rng.random(d.shape) + 0.1, d)
    v = Field.constant(d, 1.0)   # flat signal: no drift
    got = rhs_u(u, v, p, d).values
    want = diffusive_divergence(u, p, d).values
    assert np.allclose(got, want, atol=1e-15)


def test_rhs_u_is_sum_of_terms():
    p = params(a=0.7, mu=1.3, chi=1.9, k=0.5, p=1.0)
    for d in DOMAINS:
        rng = np.random.default_rng(d.dim)
        u = Field(rng.random(d.shape) * 0.5, d)
        v = Field(rng.random(d.shape) * 0.5, d)
        total = rhs_u(u, v, p, d).values
        parts = (diffusive_divergence(u, p, d).values
                 - chemotactic_divergence(u, v, p.chi, d).values
                 + g_logistic(u.values, p))
        assert np.allclose(total, parts, atol=1e-14)


def test_rhs_v_constant_fields():
    d = DOMAINS[1]
    p = params(tau=2.0)
    u = Field.constant(d, 1.0)
    v = Field.constant(d, 0.0)
    assert np.allclose(rhs_v(u, v, p, d).values, 0.5, atol=1e-15)
    c = Field.constant(d, 3.3)
    assert np.allclose(rhs_v(c, c, p, d).values, 0.0, atol=1e-15)


def test_rhs_v_term_by_term():
    d = DOMAINS[0]
    p = params(tau=1.0)
    rng = np.random.default_rng(9)
    u = Field(rng.random(d.shape), d)
    v = Field(rng.random(d.shape), d)
    want = laplacian_neumann(v, d).values - v.values + u.values
    assert np.allclose(rhs_v(u, v, p, d).values, want, atol=1e-14)


def test_mass_derivative_identity():
    # fluxes conserve: the integral of rhs_u equals the integral of g(u)
    p = params(a=1.1, mu=2.2, chi=1.5, k=0.8, p=1.0)
    for d in DOMAINS:
        rng = np.random.default_rng(31 + d.dim)
        u = Field(rng.random(d.shape) * 2.0, d)
        v = Field(rng.random(d.shape) * 2.0, d)
        lhs = integrate(rhs_u(u, v, p, d), d)
        rhs = integrate(Field(g_logistic(u.values, p), d), d)
        scale = np.sum(np.abs(rhs_u(u, v, p, d).values)) * d.cell_volume
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)
