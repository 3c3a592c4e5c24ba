"""Strict key-value run configuration.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments, blank
lines ignored. Each section builds one object (``[model]`` a ModelParams,
``[stepper]`` a StepperConfig, ...), and each of its keys sets one field of
it: the field gives the key its name, its place in the section, its type and
its default, which a key left out takes. Unknown sections or keys and
duplicated keys are hard errors, and every error carries its line number.
Lists are comma-separated, booleans are ``on``/``off``, ``auto`` is a
float key's None and an enum key takes one of its member values.
"""

from __future__ import annotations

import enum
import functools
import inspect
import math
import typing
from dataclasses import dataclass

from .grid import Domain
from .ic import ICSpec
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
    """Each section's object; a sweep runs this config over ``sweep``'s grid.
    The one rule across sections: a linear-family model requires p = 0, in
    every cell too, so its swept p must be ``(0.0,)``."""

    domain: Domain
    params: ModelParams
    stepper: StepperConfig
    ic: ICSpec
    sweep: SweepSpec
    out_dir: str = "out"

    def __post_init__(self):
        if (self.params.phi_family is PhiFamily.LINEAR
                and self.sweep.p_values != (0.0,)):
            raise ValueError(f"p_values must be 0.0 under phi_family = linear, "
                             f"got {self.sweep.p_values}")


def _finite(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError("must be finite")
    return val


def _onoff(text: str) -> bool:
    low = text.lower()
    if low not in ("on", "off"):
        raise ValueError("expected 'on' or 'off'")
    return low == "on"


def _choice(kind: type[enum.Enum], text: str) -> enum.Enum:
    options = [member.value for member in kind]
    if text not in options:
        raise ValueError(f"expected one of {', '.join(options)}")
    return kind(text)


def _list(parse):
    return lambda text: tuple(parse(part.strip()) for part in text.split(","))


# The field types that have a text form, each with its parser; an enum
# field takes one of its member values.
_PARSERS = {
    int: int,
    str: str,
    float: _finite,
    float | None: lambda text: None if text.lower() == "auto" else _finite(text),
    tuple[float, ...]: _list(_finite),
    tuple[int, ...]: _list(int),
    bool: _onoff,
}


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


# The object each section builds, in the order format_config writes them.
_SECTIONS = {"domain": _domain, "model": ModelParams, "stepper": StepperConfig,
             "ic": ICSpec, "output": RunConfig, "sweep": SweepSpec}


def _parser(hint):
    """The parser of a field type that has a text form, else None."""
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return functools.partial(_choice, hint)
    return _PARSERS.get(hint)


def _keys(ctor) -> dict:
    """key -> parser for each parameter of ``ctor`` that has a text form, in
    signature order; the others (a RunConfig's domain, ...) are not keys."""
    hints = typing.get_type_hints(ctor)
    parsers = {key: _parser(hints[key]) for key in inspect.signature(ctor).parameters}
    return {key: parse for key, parse in parsers.items() if parse is not None}


# section -> key -> parser, resolved once
_SCHEMA = {section: _keys(ctor) for section, ctor in _SECTIONS.items()}


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config text; raises ConfigError."""
    problems: list[tuple[int, str]] = []
    # section -> key -> its value, and the line that set it
    values: dict[str, dict[str, object]] = {s: {} for s in _SCHEMA}
    lines: dict[str, dict[str, int]] = {s: {} for s in _SCHEMA}
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
        if key in lines[section]:
            problems.append(
                (lineno, f"duplicate key '{key}' in section [{section}] "
                         f"(first set on line {lines[section][key]})"))
            continue
        lines[section][key] = lineno
        try:
            values[section][key] = _SCHEMA[section][key](val)
        except ValueError as exc:
            problems.append((lineno, f"bad value for '{key}': {exc}"))
    if problems:
        raise ConfigError(problems)

    def build(section: str, **parts):
        try:
            return _SECTIONS[section](**values[section], **parts)
        except ValueError as exc:
            # constraint messages start with the offending key: name its
            # line, in any section, if set, else the section's last (0: none)
            first = str(exc).split()[0] if str(exc) else ""
            owner = next((s for s in (section, *lines) if first in lines[s]), section)
            at = lines[owner]
            ln = at.get(first, max(at.values(), default=0))
            problems.append((ln, f"[{owner}] {exc}"))
            return None

    # [output] builds the RunConfig, which holds every other section's object
    domain, params, stepper, ic, sweep = (
        build(section) for section in ("domain", "model", "stepper", "ic", "sweep"))
    cfg = None if problems else build("output", domain=domain, params=params,
                                      stepper=stepper, ic=ic, sweep=sweep)
    if problems:
        raise ConfigError(problems)
    return cfg


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
        out.extend(f"{key} = {fmt(getattr(owners[section], key))}" for key in keys)
        out.append("")
    return "\n".join(out)
