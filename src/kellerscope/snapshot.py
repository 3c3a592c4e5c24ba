"""Binary state snapshots for bit-exact checkpoint and resume.

Layout: an ASCII header

    KSSNAP1 dim=<d> nx=<nx> ny=<ny> t=<hex-float> steps=<n>\\n

(1D writes ny=1; the newline is followed by space padding up to the next
multiple of 64 bytes, so a header that fits takes exactly 64), then the u
field and the v field as row-major little-endian IEEE-754 doubles. Time is
stored as a hex float so a resumed run continues from the exact same bits.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .grid import Domain, Field
from .stepper import RunStatus, SimState

HEADER_BYTES = 64
_MAGIC = "KSSNAP1"


class SnapshotError(ValueError):
    pass


def _hex_time(t: float) -> str:
    """float.hex() with trailing mantissa zeros trimmed (value-preserving)."""
    hx = float(t).hex()
    mantissa, _, exp = hx.partition("p")
    if "." in mantissa:
        mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{mantissa}p{exp}"


def _grid_tokens(d: Domain) -> str:
    """The header's grid tokens for ``d``: ``dim=<d> nx=<nx> ny=<ny>``,
    with ny=1 in 1D."""
    nx, ny = d.cells + (1,) * (2 - d.dim)
    return f"dim={d.dim} nx={nx} ny={ny}"


def write_snapshot(state: SimState, path: str) -> None:
    """Write ``state`` to ``path`` atomically: into ``path + ".tmp"`` first,
    then renamed over ``path``."""
    header = (f"{_MAGIC} {_grid_tokens(state.domain)} "
              f"t={_hex_time(state.t)} steps={state.steps}\n")
    raw = header.encode("ascii")
    raw += b" " * (-len(raw) % HEADER_BYTES)
    tmp = f"{path}.tmp"   # a failed write leaves the file at ``path`` as it was
    try:
        with open(tmp, "wb") as fh:
            fh.write(raw)
            fh.write(np.ascontiguousarray(state.u.values, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(state.v.values, dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_snapshot(path: str, domain: Domain) -> SimState:
    """Read a snapshot written for ``domain``; returns a Running state.

    Raises SnapshotError on a bad magic, a clock that no run can reach (a
    non-finite or negative ``t``, a negative ``steps``), grid tokens other
    than ``domain``'s own (see :func:`_grid_tokens`), or a short/overlong
    file.
    """
    with open(path, "rb") as fh:
        raw = b""
        while b"\n" not in raw:   # the header line ends in its last block
            block = fh.read(HEADER_BYTES)
            if len(block) < HEADER_BYTES:
                raise SnapshotError(f"truncated header: {len(raw) + len(block)} "
                                    f"bytes and no complete {HEADER_BYTES}-byte block")
            raw += block
            if not raw.startswith(_MAGIC.encode("ascii")):
                raise SnapshotError(f"bad magic: expected {_MAGIC!r}")
        try:
            header = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"header is not ASCII: {exc}") from exc
        tokens = header.split("\n", 1)[0].split()
        if not tokens or tokens[0] != _MAGIC:
            raise SnapshotError(f"bad magic: expected {_MAGIC!r}")
        fields = {}
        for tok in tokens[1:]:
            key, _, val = tok.partition("=")
            fields[key] = val
        try:
            t = float.fromhex(fields["t"])
            steps = int(fields["steps"])
        except (KeyError, ValueError, OverflowError) as exc:
            raise SnapshotError(f"malformed header {header.strip()!r}: {exc}") from exc
        if not (math.isfinite(t) and t >= 0.0) or steps < 0:
            raise SnapshotError(f"impossible clock t={t!r} steps={steps}: a run "
                                f"starts at t=0, steps=0 and counts up")
        grid, want = " ".join(tokens[1:4]), _grid_tokens(domain)
        if grid != want:
            raise SnapshotError(f"snapshot grid does not match the domain: dimension "
                                f"and cells {grid!r} in the file, {want!r} expected")
        count = domain.n_cells
        expected = 2 * count * 8
        payload = fh.read()
    if len(payload) != expected:
        raise SnapshotError(
            f"field payload: expected {expected} bytes, got {len(payload)}")
    data = np.frombuffer(payload, dtype="<f8")
    u = data[:count].reshape(domain.shape).astype(np.float64)
    v = data[count:].reshape(domain.shape).astype(np.float64)
    return SimState(t=t, u=Field(u, domain), v=Field(v, domain),
                    steps=steps, status=RunStatus.RUNNING)
