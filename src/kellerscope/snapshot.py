"""Binary state snapshots for bit-exact checkpoint and resume.

Layout: a 64-byte ASCII header

    KSSNAP1 dim=<d> nx=<nx> ny=<ny> t=<hex-float> steps=<n>\\n

(1D writes ny=1; the newline is followed by space padding up to byte 64),
then the u field and the v field as row-major little-endian IEEE-754
doubles. Time is stored as a hex float so a resumed run continues from the
exact same bits.
"""

from __future__ import annotations

import math

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


def write_snapshot(state: SimState, path: str) -> None:
    d = state.domain
    nx = d.cells[0]
    ny = d.cells[1] if d.dim == 2 else 1
    header = (f"{_MAGIC} dim={d.dim} nx={nx} ny={ny} "
              f"t={_hex_time(state.t)} steps={state.steps}\n")
    raw = header.encode("ascii")
    if len(raw) > HEADER_BYTES:
        raise SnapshotError(
            f"header needs {len(raw)} bytes but the format allows {HEADER_BYTES}; "
            f"grid extents or step counter too large for this snapshot layout"
        )
    raw += b" " * (HEADER_BYTES - len(raw))
    with open(path, "wb") as fh:
        fh.write(raw)
        fh.write(np.ascontiguousarray(state.u.values, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(state.v.values, dtype="<f8").tobytes())


def read_snapshot(path: str, domain: Domain) -> SimState:
    """Read a snapshot written for ``domain``; returns a Running state.

    Raises SnapshotError on a bad magic, an unsupported dimension, a clock
    that no run can reach (a non-finite or negative ``t``, a negative
    ``steps``), a grid mismatch against the expected domain, or a
    short/overlong file.
    """
    with open(path, "rb") as fh:
        raw = fh.read(HEADER_BYTES)
        if len(raw) < HEADER_BYTES:
            raise SnapshotError(
                f"truncated header: expected {HEADER_BYTES} bytes, got {len(raw)}")
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
            dim = int(fields["dim"])
            nx = int(fields["nx"])
            ny = int(fields["ny"])
            t = float.fromhex(fields["t"])
            steps = int(fields["steps"])
        except (KeyError, ValueError, OverflowError) as exc:
            raise SnapshotError(f"malformed header {header.strip()!r}: {exc}") from exc
        if not (math.isfinite(t) and t >= 0.0) or steps < 0:
            raise SnapshotError(f"impossible clock t={t!r} steps={steps}: a run "
                                f"starts at t=0, steps=0 and counts up")
        if dim not in (1, 2):
            raise SnapshotError(f"unsupported dimension {dim}")
        shape = (nx,) if dim == 1 else (nx, ny)
        if dim == 1 and ny != 1:
            raise SnapshotError(f"1D snapshot must carry ny=1, got ny={ny}")
        if dim != domain.dim or shape != domain.shape:
            raise SnapshotError(
                f"snapshot grid dim={dim} shape={shape} does not match expected "
                f"domain dim={domain.dim} shape={domain.shape}")
        count = int(np.prod(shape))
        expected = 2 * count * 8
        payload = fh.read()
    if len(payload) != expected:
        raise SnapshotError(
            f"field payload: expected {expected} bytes, got {len(payload)}")
    data = np.frombuffer(payload, dtype="<f8")
    u = data[:count].reshape(shape).astype(np.float64)
    v = data[count:].reshape(shape).astype(np.float64)
    return SimState(t=t, u=Field(u, domain), v=Field(v, domain),
                    steps=steps, status=RunStatus.RUNNING)
