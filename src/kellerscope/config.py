"""Strict key-value run configuration.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments, blank
lines ignored. A key left out takes the default of the field it sets, so
``ModelParams()``, ``StepperConfig()`` and the other constructors state the
defaults; unknown sections or keys and duplicated keys are hard errors, and
every error carries its line number. Lists are comma-separated.
"""

from __future__ import annotations

import enum
import math
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


# Schema: section -> key -> parser: a parser name, or the enum class whose
# member values are the key's choices. format_config writes keys in this order.
_SCHEMA: dict[str, dict[str, str | type[enum.Enum]]] = {
    "domain": {
        "dim": "int",
        "lengths": "float_list",
        "cells": "int_list",
    },
    "model": {
        "tau": "float",
        "chi": "float",
        "mu": "float",
        "a": "float",
        "k": "float",
        "p": "float",
        "phi_family": PhiFamily,
        "reaction": "onoff",
    },
    "stepper": {
        "dt_init": "float",
        "dt_min": "float",
        "dt_max": "float",
        "safety": "float",
        "blowup_threshold": "float_or_auto",
        "t_end": "float",
        "observer_stride": "int",
        "series_gamma": "float",
        "stall_patience": "int",
        "max_steps": "int",
        "helmholtz_tol": "float",
        "helmholtz_maxiter": "int",
    },
    "ic": {
        "name": ICName,
        "amplitude": "float",
        "width": "float",
    },
    "output": {
        "out_dir": "str",
    },
    "sweep": {
        "chi_values": "float_list",
        "mu_values": "float_list",
        "p_values": "float_list",
        "repeat": "int",
        "seed": "int",
        "gamma0": "float_or_auto",
        "c_reg": "float",
    },
}

# Config keys whose field has another name; every other key is the name of
# its field on the object its section builds.
_RENAMED = {"reaction": "reaction_on", "c_reg": "C_reg"}


def _field(key: str) -> str:
    return _RENAMED.get(key, key)


def _parse_value(kind: str | type[enum.Enum], text: str):
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
    options = [member.value for member in kind]   # an enum class
    if text not in options:
        raise ValueError(f"expected one of {', '.join(options)}")
    return kind(text)


def _domain(dim: int = 1, lengths: tuple[float, ...] = (1.0,),
            cells: tuple[int, ...] = (64,)) -> Domain:
    """The [domain] keys as a Domain; a one-entry list serves every axis.

    Domain checks the rest. A one-entry ``cells`` widens to at most one
    axis more than Domain meshes, enough for it to reject the dim, so a
    huge dim never builds a tuple of that size.
    """
    if len(cells) not in (1, dim):
        raise ValueError(f"cells must have one entry or dim = {dim} entries, "
                         f"got {len(cells)}")
    if len(cells) == 1:
        cells = cells * min(dim, 3)
    if len(lengths) == 1:
        lengths = lengths * len(cells)
    return Domain(lengths, cells)


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
        try:
            values[section][key] = _parse_value(_SCHEMA[section][key], val)
        except ValueError as exc:
            problems.append((lineno, f"bad value for '{key}': {exc}"))
    if problems:
        raise ConfigError(problems)

    def build(section: str, ctor, **fixed):
        try:
            return ctor(**{_field(k): v for k, v in values[section].items()}, **fixed)
        except ValueError as exc:
            # constraint messages start with the offending field name; use it
            # to recover the exact config line when that key was set, else
            # name the last line set in the section (0: none)
            first = str(exc).split()[0] if str(exc) else ""
            at = {k: lines[(section, k)] for k in values[section]}
            ln = next((at[k] for k in at if _field(k) == first), max(at.values(), default=0))
            problems.append((ln, f"[{section}] {exc}"))
            return None

    domain = build("domain", _domain)
    params = build("model", ModelParams)
    stepper = build("stepper", StepperConfig)
    ic = build("ic", ICSpec)
    # SweepSpec checks only the sweep keys, so their problems are reported
    # even when a section above failed and is passed on as None
    sweep = build("sweep", SweepSpec, domain=domain, base_params=params,
                  base_cfg=stepper, ic=ic)
    if problems:
        raise ConfigError(problems)
    return RunConfig(domain=domain, params=params, stepper=stepper, ic=ic,
                     sweep=sweep, **values["output"])


def format_config(cfg: RunConfig) -> str:
    """Serialize a config so that parsing it back yields an equal config.

    The format has no quoting, so an ``out_dir`` that holds ``#`` or a line
    break, or that starts or ends with whitespace, cannot be written back;
    it raises ValueError rather than name another directory.
    """
    d = cfg.out_dir
    if "#" in d or d != d.strip() or len(d.splitlines()) > 1:
        raise ValueError(f"out_dir {d!r} cannot be written to a config: it holds "
                         f"'#' or a line break, or starts or ends with whitespace")

    def fmt(val) -> str:
        if val is None:
            return "auto"
        if isinstance(val, bool):
            return "on" if val else "off"
        if isinstance(val, tuple):
            return ", ".join(fmt(v) for v in val)
        if isinstance(val, float):
            return repr(val)
        if isinstance(val, enum.Enum):
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
