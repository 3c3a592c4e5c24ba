"""Strict config parsing: defaults, errors with line numbers, round-trip."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellerscope import Domain, ICSpec, ModelParams, StepperConfig, SweepSpec
from kellerscope.config import ConfigError, RunConfig, format_config, parse_config
from kellerscope.ic import ICName
from kellerscope.model import PhiFamily

MINIMAL = ""

FULL = """\
# full example
[domain]
dim = 2
lengths = 1.0, 2.0
cells = 8, 12

[model]
tau = 0.5
chi = 2.0
mu = 4.0
a = 1.0
k = 0.3
p = 1.5
s0_phi = 3.0
phi_family = canonical
reaction = on

[stepper]
dt_init = 1e-4
dt_min = 1e-10
dt_max = 1e-2
safety = 0.8
blowup_threshold = 1e5
t_end = 2.0
observer_stride = 5
series_gamma = 4.0

[ic]
name = two_bumps
amplitude = 1.2
width = 0.15

[output]
out_dir = results

[sweep]
chi_values = 0.5, 1.0
mu_values = 1.0, 2.0, 4.0
p_values = 0.0
repeat = 2
seed = 7
gamma0 = 3.0
c_reg = 1.5
"""


def test_minimal_config_uses_documented_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.domain.dim == 1
    assert cfg.domain.cells == (64,)
    assert cfg.params.tau == 1.0
    assert cfg.params.phi_family is PhiFamily.CANONICAL
    assert cfg.params.reaction_on is True
    assert cfg.stepper.blowup_threshold is None      # resolved from u0 later
    assert cfg.ic.name is ICName.CONSTANT
    assert cfg.out_dir == "out"
    assert cfg.sweep.gamma0 is None


def test_full_config_round_trip():
    cfg = parse_config(FULL)
    assert cfg.domain.cells == (8, 12)
    assert cfg.params.chi == 2.0
    assert cfg.stepper.blowup_threshold == 1e5
    assert cfg.ic.name is ICName.TWO_BUMPS
    assert cfg.sweep.mu_values == (1.0, 2.0, 4.0)
    again = parse_config(format_config(cfg))
    assert again == cfg
    # the renamed keys and the other enum value go round the trip too
    off = parse_config(FULL.replace("reaction = on", "reaction = off")
                       .replace("phi_family = canonical", "phi_family = linear"))
    assert off.params.reaction_on is False
    assert off.params.phi_family is PhiFamily.LINEAR
    assert parse_config(format_config(off)) == off


def test_minimal_round_trip():
    cfg = parse_config(MINIMAL)
    assert parse_config(format_config(cfg)) == cfg


def test_constraint_error_names_key_and_line():
    for text, line, key in (("[model]\ntau = 1.0\nmu = -1\n", 3, "mu"),
                            ("[model]\np = -1\ntau = 1.0\n", 2, "p"),
                            ("[stepper]\ndt_min = 1.0\ndt_max = 2.0\nt_end = 3.0\n",
                             2, "dt_min")):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any(ln == line and key in msg for ln, msg in err.value.problems), text


@pytest.mark.parametrize("text, lines", [
    ("[sweep]\nmu_values = 2.0, 1.0\n", [2]),
    ("[sweep]\nchi_values = -1.0\n", [2]),
    ("[sweep]\nchi_values = -1.0\nseed = 3\n", [2]),
    ("[sweep]\nrepeat = 0\n", [2]),
    ("[sweep]\nc_reg = -1\n", [2]),
    # a failed [model] must not hide the sweep's own problem
    ("[model]\nmu = -1\n[sweep]\nrepeat = 0\n", [2, 4]),
    ("[sweep]\ngamma0 = 0.5\n", [2]),
])
def test_sweep_constraint_error_names_line(text, lines):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert sorted(ln for ln, _ in err.value.problems) == lines
    assert err.value.problems[-1][1].startswith("[sweep]")


def test_duplicate_key_is_an_error_not_last_wins():
    text = "[model]\nchi = 1.0\nchi = 2.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("duplicate" in msg and ln == 3 for ln, msg in err.value.problems)


def test_unknown_key_and_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[model]\nchy = 1.0\n")
    assert any("unknown key 'chy'" in msg and ln == 2
               for ln, msg in err.value.problems)
    with pytest.raises(ConfigError) as err:
        parse_config("[modell]\nchi = 1.0\n")
    assert any("unknown section" in msg for _, msg in err.value.problems)


def test_syntax_error_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[model]\nthis is not a key value line\n")
    assert err.value.problems[0][0] == 2


def test_key_outside_section():
    with pytest.raises(ConfigError) as err:
        parse_config("chi = 1.0\n")
    assert "outside" in err.value.problems[0][1]


def test_bad_value_types_reported():
    with pytest.raises(ConfigError) as err:
        parse_config("[model]\nchi = fast\n")
    assert any("bad value" in msg for _, msg in err.value.problems)
    with pytest.raises(ConfigError) as err:
        parse_config("[model]\nreaction = maybe\n")
    assert any("'on' or 'off'" in msg for _, msg in err.value.problems)


def test_multiple_problems_collected():
    text = "[model]\nmu = -1\n[stepper]\nsafety = 7\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert len(err.value.problems) >= 2


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("\n# leading comment\n[model]\nchi = 3.0  # trailing\n\n")
    assert cfg.params.chi == 3.0


def test_2d_scalar_lengths_broadcast():
    cfg = parse_config("[domain]\ndim = 2\ncells = 8\n")
    assert cfg.domain.cells == (8, 8)
    assert cfg.domain.lengths == (1.0, 1.0)


def test_dimension_axis_mismatch_rejected():
    with pytest.raises(ConfigError):
        parse_config("[domain]\ndim = 1\nlengths = 1.0, 2.0\ncells = 8, 8\n")


_POS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NONNEG = st.floats(min_value=0.0, allow_infinity=False)
_ABOVE_ONE = st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)


def _ascending(elements):
    return st.lists(elements, min_size=1, max_size=4, unique=True).map(
        lambda xs: tuple(sorted(xs)))


@st.composite
def run_configs(draw):
    """Any config parse_config can produce; floats over their whole range."""
    dim = draw(st.sampled_from([1, 2]))
    domain = Domain(tuple(draw(st.floats(1e-3, 1e3)) for _ in range(dim)),
                    tuple(draw(st.integers(3, 12)) for _ in range(dim)))
    params = ModelParams(
        tau=draw(_POS), chi=draw(_POS), mu=draw(_POS), a=draw(_NONNEG),
        k=draw(_POS), p=draw(_NONNEG), s0_phi=draw(_ABOVE_ONE),
        phi_family=draw(st.sampled_from(PhiFamily)), reaction_on=draw(st.booleans()))
    dt_min, dt_init, dt_max = sorted(draw(st.lists(_POS, min_size=3, max_size=3)))
    stepper = StepperConfig(
        dt_init=dt_init, dt_min=dt_min, dt_max=dt_max,
        safety=draw(st.floats(0.0, 1.0, exclude_min=True)),
        blowup_threshold=draw(st.none() | _ABOVE_ONE), t_end=draw(_POS),
        observer_stride=draw(st.integers(1, 10**6)),
        series_gamma=draw(st.floats(1.0, 1e3)),
        stall_patience=draw(st.integers(0, 10**4)),
        max_steps=draw(st.integers(1, 10**9)), helmholtz_tol=draw(_POS),
        helmholtz_maxiter=draw(st.integers(1, 10**5)))
    ic = ICSpec(draw(st.sampled_from(ICName)), draw(_NONNEG), draw(_POS))
    sweep = SweepSpec(
        domain=domain, chi_values=draw(_ascending(_POS)),
        mu_values=draw(_ascending(_POS)),
        p_values=draw(_ascending(st.floats(allow_nan=False, allow_infinity=False))),
        base_params=params, base_cfg=stepper, ic=ic,
        repeat=draw(st.integers(1, 100)), seed=draw(st.integers(0, 2**63)),
        gamma0=draw(st.none() | _ABOVE_ONE), C_reg=draw(_POS))
    # the format has no escapes: '#' starts a comment, and the value is stripped
    out_dir = draw(st.text(string.ascii_letters + string.digits + "_-./",
                           min_size=1, max_size=16))
    return RunConfig(domain=domain, params=params, stepper=stepper, ic=ic,
                     sweep=sweep, out_dir=out_dir)


@settings(max_examples=60)
@given(cfg=run_configs())
def test_format_parse_round_trip_property(cfg):
    assert parse_config(format_config(cfg)) == cfg
