"""Strict config parsing: defaults, errors with line numbers, round-trip."""

import re
import string
from dataclasses import fields
from pathlib import Path

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


# what an empty config means, key by key: each of the 34 keys at its
# default, in schema order
DEFAULTS_TEXT = """\
[domain]
dim = 1
lengths = 1.0
cells = 64

[model]
tau = 1.0
chi = 1.0
mu = 1.0
a = 0.0
k = 1.0
p = 0.0
phi_family = canonical
reaction = on

[stepper]
dt_init = 0.001
dt_min = 1e-09
dt_max = 0.1
safety = 0.9
blowup_threshold = auto
t_end = 1.0
observer_stride = 10
series_gamma = 3.0
max_steps = 5000000
helmholtz_tol = 1e-10
helmholtz_maxiter = 20000

[ic]
name = constant
amplitude = 1.0
width = 0.1

[output]
out_dir = out

[sweep]
chi_values = 1.0
mu_values = 1.0
p_values = 0.0
repeat = 1
seed = 0
gamma0 = auto
c_reg = 1.0
"""


def test_empty_config_formats_to_the_golden_defaults():
    assert format_config(parse_config("")) == DEFAULTS_TEXT
    assert sum(" = " in line for line in DEFAULTS_TEXT.splitlines()) == 33


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
                             2, "dt_min"),
                            ("[stepper]\nt_end = 3.0\nobserver_stride = 0\n",
                             3, "observer_stride"),
                            ("[stepper]\nobserver_stride = -2\nt_end = 3.0\n",
                             2, "observer_stride"),
                            ("[stepper]\nt_end = 3.0\nmax_steps = 0\n", 3, "max_steps"),
                            ("[stepper]\nhelmholtz_tol = -1\nt_end = 3.0\n",
                             2, "helmholtz_tol"),
                            ("[stepper]\nt_end = 3.0\nhelmholtz_tol = 0.0\n",
                             3, "helmholtz_tol"),
                            ("[stepper]\nhelmholtz_maxiter = -1\nt_end = 3.0\n",
                             2, "helmholtz_maxiter"),
                            ("[stepper]\nt_end = 3.0\nblowup_threshold = 1.0\n",
                             3, "blowup_threshold")):
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
    # every linear-family cell runs p = 0, whatever p the sweep would record
    ("[model]\nphi_family = linear\n[sweep]\nseed = 3\np_values = 0.0, 2.0\n", [5]),
    # a negative seed would fail every cell at run time
    ("[sweep]\nrepeat = 2\nseed = -1\n", [3]),
])
def test_sweep_constraint_error_names_line(text, lines):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert sorted(ln for ln, _ in err.value.problems) == lines
    assert err.value.problems[-1][1].startswith("[sweep]")


def test_the_rule_across_sections_names_its_sweep_line():
    # RunConfig checks it, once every section has built; the report is the
    # [sweep] line that set p_values, as a [sweep] key's own problem is
    text = "[model]\nphi_family = linear\n[sweep]\nseed = 3\np_values = 0.0, 2.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [
        (5, "[sweep] p_values must be 0.0 under phi_family = linear, got (0.0, 2.0)")]
    # the [sweep] section builds its own keys alone
    assert [f.name for f in fields(SweepSpec)] == [
        "chi_values", "mu_values", "p_values", "repeat", "seed", "gamma0", "C_reg"]


def test_duplicate_key_is_an_error_not_last_wins():
    text = "[model]\nchi = 1.0\nchi = 2.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("duplicate" in msg and ln == 3 for ln, msg in err.value.problems)


def test_unknown_key_and_section_rejected():
    for key in ("chy", "s0_phi"):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[model]\n{key} = 2.0\n")
        assert any(f"unknown key '{key}'" in msg and ln == 2
                   for ln, msg in err.value.problems)
    with pytest.raises(ConfigError) as err:
        parse_config("[modell]\nchi = 1.0\n")
    assert any("unknown section" in msg for _, msg in err.value.problems)
    # a field whose type has no text form is not a key, and [sweep] holds
    # no copy of another section
    for section, key in (("output", "domain"), ("output", "params"), ("output", "sweep"),
                         ("sweep", "domain"), ("sweep", "ic"), ("sweep", "base_cfg")):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[{section}]\n{key} = x\n")
        assert err.value.problems == [(2, f"unknown key '{key}' in section [{section}]")]


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
    for text, want in (
            ("[model]\nchi = inf\n", "bad value for 'chi': must be finite"),
            ("[sweep]\nmu_values = 1.0, nan\n",
             "bad value for 'mu_values': must be finite"),
            ("[model]\nphi_family = Linear\n",
             "bad value for 'phi_family': expected one of canonical, linear"),
            ("[ic]\nname = bump\n", "bad value for 'name': expected one of "
                                     "constant, gaussian_bump, two_bumps, checkerboard"),
            ("[stepper]\nobserver_stride = 2.5\n", "bad value for 'observer_stride': "
                                                  "invalid literal for int() with base 10: '2.5'"),
            ("[domain]\ncells = 8, x\n",
             "bad value for 'cells': invalid literal for int() with base 10: 'x'"),
            ("[sweep]\ngamma0 = soon\n",
             "bad value for 'gamma0': could not convert string to float: 'soon'")):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == [(2, want)]


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


@pytest.mark.parametrize("text, want", [
    ("[domain]\ncells = 8, 8\n", [(2, "cells")]),
    ("[domain]\ndim = 3\n", [(2, "dim")]),
    ("[domain]\ndim = 2\nlengths = 1.0, 2.0, 3.0\n", [(3, "lengths")]),
    ("[domain]\ndim = 2\ncells = 8, 2\n", [(3, "cells")]),
    # a bad [domain] must not hide the problems of the sections below it
    ("[domain]\ndim = 2\ncells = 8, 8, 8\n[model]\ntau = -1\n",
     [(3, "cells"), (5, "tau")]),
])
def test_domain_error_names_key_and_line(text, want):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert [(ln, msg.split()[1]) for ln, msg in err.value.problems] == want


def test_huge_dim_is_rejected_without_building_its_axes():
    with pytest.raises(ConfigError) as err:
        parse_config("[domain]\ndim = 1000000000000\n")
    assert err.value.problems == [(2, "[domain] dim must be 1 or 2")]


def test_readme_config_block_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"),
                        flags=re.S)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert cfg.domain.cells == (64, 64)
    assert cfg.ic.name is ICName.GAUSSIAN_BUMP
    assert cfg.sweep.mu_values == (5.0, 10.0, 20.0)


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
        k=draw(_POS), p=draw(_NONNEG),
        phi_family=draw(st.sampled_from(PhiFamily)), reaction_on=draw(st.booleans()))
    dt_min, dt_init, dt_max = sorted(draw(st.lists(_POS, min_size=3, max_size=3)))
    stepper = StepperConfig(
        dt_init=dt_init, dt_min=dt_min, dt_max=dt_max,
        safety=draw(st.floats(0.0, 1.0, exclude_min=True)),
        blowup_threshold=draw(st.none() | _ABOVE_ONE), t_end=draw(_POS),
        observer_stride=draw(st.integers(1, 10**6)),
        series_gamma=draw(st.floats(1.0, 1e3)),
        max_steps=draw(st.integers(1, 10**9)), helmholtz_tol=draw(_POS),
        helmholtz_maxiter=draw(st.integers(1, 10**5)))
    ic = ICSpec(draw(st.sampled_from(ICName)), draw(_NONNEG), draw(_POS))
    # a linear-family sweep takes p = 0 alone (see RunConfig)
    p_values = ((0.0,) if params.phi_family is PhiFamily.LINEAR
                else draw(_ascending(st.floats(allow_nan=False, allow_infinity=False))))
    sweep = SweepSpec(
        chi_values=draw(_ascending(_POS)), mu_values=draw(_ascending(_POS)),
        p_values=p_values, repeat=draw(st.integers(1, 100)),
        seed=draw(st.integers(0, 2**63)), gamma0=draw(st.none() | _ABOVE_ONE),
        C_reg=draw(_POS))
    # the format has no escapes: '#' starts a comment, a line break ends the
    # value and the value is stripped, so some of these cannot be written
    out_dir = draw(st.text(string.ascii_letters + string.digits + "_-./#= \t\n\r\x85",
                           min_size=1, max_size=16))
    return RunConfig(domain=domain, params=params, stepper=stepper, ic=ic,
                     sweep=sweep, out_dir=out_dir)


@settings(max_examples=60)
@given(cfg=run_configs())
def test_format_parse_round_trip_property(cfg):
    d = cfg.out_dir
    unwritable = "#" in d or d != d.strip() or len(d.splitlines()) > 1
    try:
        text = format_config(cfg)
    except ValueError as exc:
        assert unwritable and "out_dir" in str(exc)
        return
    assert parse_config(text) == cfg
