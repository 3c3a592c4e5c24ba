"""Coefficient families and the steady state."""

import numpy as np
import pytest

from kellerscope import ModelParams, homogeneous_steady_state, phi


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


def test_linear_family_requires_p_zero():
    with pytest.raises(ValueError) as err:
        params(p=3.0, phi_family="linear")
    assert str(err.value) == "p must be 0.0 under phi_family = linear, got 3.0"
    p = params(p=0.0, phi_family="linear")
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


# ------------------------------------------------------------ steady state

@pytest.mark.parametrize("a,mu,expect", [(1.0, 2.0, 0.5), (0.0, 1.0, 0.0), (3.0, 1.0, 3.0)])
def test_homogeneous_steady_state_values(a, mu, expect):
    u_star, v_star = homogeneous_steady_state(params(a=a, mu=mu))
    assert u_star == expect and v_star == expect
