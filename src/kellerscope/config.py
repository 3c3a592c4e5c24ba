"""Strict key-value run configuration.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments, blank
lines ignored. Every key has a documented default; unknown sections or keys
and duplicated keys are hard errors, and every error carries its line
number. Lists are comma-separated.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .grid import Domain
from .ic import ICName, ICSpec
from .model import ModelParams, PhiFamily
from .stepper import StepperConfig
from .sweep import SweepSpec


class ConfigError(ValueError):
    """One or more problems in a config text, each tagged with a line."""

    def __init__(self, problems: list[tuple[int, str]]):
        self.problems = list(problems)
        super().__init__("\n".join(f"line {ln}: {msg}" for ln, msg in self.problems))


@dataclass(frozen=True)
class RunConfig:
    domain: Domain
    params: ModelParams
    stepper: StepperConfig
    ic: ICSpec
    sweep: SweepSpec
    out_dir: str = "out"


# Schema: section -> key -> (parser-name, default-as-text). Defaults are the
# documented ones; a config may be empty.
_SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "domain": {
        "dim": ("int", "1"),
        "lengths": ("float_list", "1.0"),
        "cells": ("int_list", "64"),
    },
    "model": {
        "tau": ("float", "1.0"),
        "chi": ("float", "1.0"),
        "mu": ("float", "1.0"),
        "a": ("float", "0.0"),
        "k": ("float", "1.0"),
        "p": ("float", "0.0"),
        "s0_phi": ("float", "2.0"),
        "phi_family": ("enum:canonical,linear", "canonical"),
        "reaction": ("onoff", "on"),
    },
    "stepper": {
        "dt_init": ("float", "1e-3"),
        "dt_min": ("float", "1e-9"),
        "dt_max": ("float", "1e-1"),
        "safety": ("float", "0.9"),
        "blowup_threshold": ("float_or_auto", "auto"),
        "t_end": ("float", "1.0"),
        "observer_stride": ("int", "10"),
        "series_gamma": ("float", "3.0"),
        "stall_patience": ("int", "50"),
        "max_steps": ("int", "5000000"),
        "helmholtz_tol": ("float", "1e-10"),
        "helmholtz_maxiter": ("int", "20000"),
    },
    "ic": {
        "name": ("enum:constant,gaussian_bump,two_bumps,checkerboard", "constant"),
        "amplitude": ("float", "1.0"),
        "width": ("float", "0.1"),
    },
    "output": {
        "out_dir": ("str", "out"),
    },
    "sweep": {
        "chi_values": ("float_list", "1.0"),
        "mu_values": ("float_list", "1.0"),
        "p_values": ("float_list", "0.0"),
        "repeat": ("int", "1"),
        "seed": ("int", "0"),
        "gamma0": ("float_or_auto", "auto"),
        "c_reg": ("float", "1.0"),
    },
}

# Config keys whose field has another name; every other key is the name of
# its field on the object its section builds.
_RENAMED = {"reaction": "reaction_on", "c_reg": "C_reg"}


def _field(key: str) -> str:
    return _RENAMED.get(key, key)


def _parse_value(kind: str, text: str):
    if kind == "str":
        return text
    if kind == "int":
        return int(text)
    if kind == "float":
        val = float(text)
        if not math.isfinite(val):
            raise ValueError("must be finite")
        return val
    if kind == "float_or_auto":
        return None if text.lower() == "auto" else _parse_value("float", text)
    if kind == "float_list":
        return tuple(_parse_value("float", part.strip()) for part in text.split(","))
    if kind == "int_list":
        return tuple(int(part.strip()) for part in text.split(","))
    if kind == "onoff":
        low = text.lower()
        if low not in ("on", "off"):
            raise ValueError("expected 'on' or 'off'")
        return low == "on"
    if kind.startswith("enum:"):
        options = kind[5:].split(",")
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return text
    raise AssertionError(kind)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config text; raises ConfigError."""
    problems: list[tuple[int, str]] = []
    values: dict[str, dict[str, object]] = {s: {} for s in _SCHEMA}
    lines: dict[tuple[str, str], int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                problems.append((lineno, f"unknown section [{section}]"))
                section = None
            continue
        if "=" not in line:
            problems.append((lineno, f"expected 'key = value', got {line!r}"))
            continue
        if section is None:
            problems.append((lineno, "key outside of any known section"))
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA[section]:
            problems.append((lineno, f"unknown key '{key}' in section [{section}]"))
            continue
        if (section, key) in lines:
            problems.append(
                (lineno, f"duplicate key '{key}' in section [{section}] "
                         f"(first set on line {lines[(section, key)]})"))
            continue
        lines[(section, key)] = lineno
        kind = _SCHEMA[section][key][0]
        try:
            values[section][key] = _parse_value(kind, val)
        except ValueError as exc:
            problems.append((lineno, f"bad value for '{key}': {exc}"))
    if problems:
        raise ConfigError(problems)

    def get(section: str, key: str):
        if key in values[section]:
            return values[section][key]
        kind, default = _SCHEMA[section][key]
        return _parse_value(kind, default)

    def lineof(section: str, key: str) -> int:
        return lines.get((section, key), 0)

    def build(section: str, ctor, **fixed):
        keys = _SCHEMA[section]
        try:
            return ctor(**{_field(k): get(section, k) for k in keys}, **fixed)
        except ValueError as exc:
            # constraint messages start with the offending field name; use it
            # to recover the exact config line when that key was set
            first = str(exc).split()[0] if str(exc) else ""
            ln = next((lineof(section, k) for k in keys if _field(k) == first), 0)
            if ln == 0:
                ln = max(lineof(section, k) for k in keys)
            problems.append((ln, f"[{section}] {exc}"))
            return None

    dim = get("domain", "dim")
    lengths = get("domain", "lengths")
    cells = get("domain", "cells")
    if isinstance(lengths, tuple) and len(lengths) == 1 and dim == 2:
        lengths = lengths * 2
    if isinstance(cells, tuple) and len(cells) == 1 and dim == 2:
        cells = cells * 2
    if len(lengths) != dim or len(cells) != dim:
        problems.append((lineof("domain", "dim"),
                         "[domain] lengths/cells must have one entry per axis"))
        raise ConfigError(problems)
    try:
        domain = Domain(lengths=lengths, cells=cells)
    except ValueError as exc:
        problems.append((max(lineof("domain", k) for k in _SCHEMA["domain"]),
                         f"[domain] {exc}"))
        domain = None

    params = build("model", ModelParams)
    stepper = build("stepper", StepperConfig)
    ic = build("ic", ICSpec)
    # SweepSpec checks only the sweep keys, so their problems are reported
    # even when a section above failed and is passed on as None
    sweep = build("sweep", SweepSpec, domain=domain, base_params=params,
                  base_cfg=stepper, ic=ic)
    out_dir = get("output", "out_dir")
    anchor = _nearest_existing_dir(out_dir)
    if not os.access(anchor, os.W_OK):
        problems.append((lineof("output", "out_dir"),
                         f"[output] out_dir '{out_dir}' is not writable (checked {anchor})"))
    if problems:
        raise ConfigError(problems)
    return RunConfig(domain=domain, params=params, stepper=stepper, ic=ic,
                     sweep=sweep, out_dir=out_dir)


def _nearest_existing_dir(path: str) -> str:
    probe = os.path.abspath(path)
    while probe and not os.path.isdir(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    return probe or os.getcwd()


def format_config(cfg: RunConfig) -> str:
    """Serialize a config so that parsing it back yields an equal config."""

    def fmt(val) -> str:
        if val is None:
            return "auto"
        if isinstance(val, bool):
            return "on" if val else "off"
        if isinstance(val, tuple):
            return ", ".join(fmt(v) for v in val)
        if isinstance(val, float):
            return repr(val)
        if isinstance(val, (ICName, PhiFamily)):
            return val.value
        return str(val)

    owners = {"domain": cfg.domain, "model": cfg.params, "stepper": cfg.stepper,
              "ic": cfg.ic, "output": cfg, "sweep": cfg.sweep}
    out = []
    for section, keys in _SCHEMA.items():
        out.append(f"[{section}]")
        out.extend(f"{key} = {fmt(getattr(owners[section], _field(key)))}"
                   for key in keys)
        out.append("")
    return "\n".join(out)
