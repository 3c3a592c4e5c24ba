"""Snapshot format: bit-exact round trips and strict validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellerscope import Domain, Field, RunStatus, SimState
from kellerscope.snapshot import HEADER_BYTES, SnapshotError, read_snapshot, \
    write_snapshot


def random_state(d, rng):
    return SimState(
        t=float(rng.random() * 10.0),
        u=Field(rng.random(d.shape) * 100.0, d),
        v=Field(rng.random(d.shape) * 100.0, d),
        steps=int(rng.integers(0, 10**6)),
    )


def test_round_trip_bit_exact_many(tmp_path):
    rng = np.random.default_rng(123)
    domains = [Domain((1.0,), (7,)), Domain((2.0, 1.0), (5, 9)),
               Domain((1.0, 1.0), (64, 64))]
    path = tmp_path / "state.snap"
    for i in range(1000):
        d = domains[i % len(domains)]
        state = random_state(d, rng)
        write_snapshot(state, str(path))
        back = read_snapshot(str(path), d)
        assert back.t == state.t                      # hex float: bit exact
        assert back.steps == state.steps
        assert np.array_equal(back.u.values, state.u.values)
        assert np.array_equal(back.v.values, state.v.values)
        assert back.status is RunStatus.RUNNING


def test_header_is_64_bytes_and_ascii(tmp_path):
    d = Domain((1.0,), (5,))
    state = SimState(t=0.5, u=Field.constant(d, 1.0), v=Field.constant(d, 2.0))
    path = tmp_path / "s.snap"
    write_snapshot(state, str(path))
    raw = path.read_bytes()
    assert len(raw) == HEADER_BYTES + 2 * 5 * 8
    header = raw[:HEADER_BYTES].decode("ascii")
    assert header.startswith("KSSNAP1 dim=1 nx=5 ny=1 t=0x1p-1 steps=0\n")


def test_truncated_payload_reports_byte_counts(tmp_path):
    d = Domain((1.0,), (6,))
    state = SimState(t=1.0, u=Field.constant(d, 1.0), v=Field.constant(d, 1.0))
    path = tmp_path / "s.snap"
    write_snapshot(state, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(SnapshotError) as err:
        read_snapshot(str(path), d)
    assert "96" in str(err.value) and "88" in str(err.value)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "s.snap"
    path.write_bytes(b"KSSNAP1 dim=1")
    with pytest.raises(SnapshotError):
        read_snapshot(str(path), Domain((1.0,), (4,)))


def test_unsupported_dimension_rejected(tmp_path):
    d = Domain((1.0,), (4,))
    header = "KSSNAP1 dim=3 nx=4 ny=1 t=0x0p+0 steps=0\n"
    raw = header.encode() + b" " * (HEADER_BYTES - len(header)) + b"\0" * 64
    path = tmp_path / "s.snap"
    path.write_bytes(raw)
    with pytest.raises(SnapshotError) as err:
        read_snapshot(str(path), d)
    assert "dimension" in str(err.value)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "s.snap"
    # a first token that only starts with the magic is another format
    for header in (b"NOTSNAP", b"KSSNAP12 dim=1 nx=4 ny=1 t=0x0p+0 steps=0\n"):
        path.write_bytes(header.ljust(HEADER_BYTES) + b"\0" * 64)
        with pytest.raises(SnapshotError) as err:
            read_snapshot(str(path), Domain((1.0,), (4,)))
        assert "bad magic" in str(err.value)


def test_non_ascii_header_rejected(tmp_path):
    path = tmp_path / "s.snap"
    header = "KSSNAP1 dim=1 nx=4 ny=1 t=0x0p+0 steps=0 \u00e9\n".encode("utf-8")
    path.write_bytes(header.ljust(HEADER_BYTES) + b"\0" * 64)
    with pytest.raises(SnapshotError, match="header is not ASCII"):
        read_snapshot(str(path), Domain((1.0,), (4,)))


def test_domain_mismatch_rejected(tmp_path):
    d = Domain((1.0,), (6,))
    state = SimState(t=1.0, u=Field.constant(d, 1.0), v=Field.constant(d, 1.0))
    path = tmp_path / "s.snap"
    write_snapshot(state, str(path))
    with pytest.raises(SnapshotError) as err:
        read_snapshot(str(path), Domain((1.0,), (8,)))
    assert "does not match" in str(err.value)
    with pytest.raises(SnapshotError):
        read_snapshot(str(path), Domain((1.0, 1.0), (6, 6)))


def test_overlong_file_rejected(tmp_path):
    d = Domain((1.0,), (6,))
    state = SimState(t=1.0, u=Field.constant(d, 1.0), v=Field.constant(d, 1.0))
    path = tmp_path / "s.snap"
    write_snapshot(state, str(path))
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(SnapshotError):
        read_snapshot(str(path), d)


@pytest.mark.parametrize("cells,t,steps,header_bytes", [
    ((128, 128), 0.1, 1234567, 128),
    ((640, 480), float.fromhex("0x1.921fb54442d18p-3"), 10**24, 128),
], ids=["128x128", "640x480"])
def test_long_header_pads_to_64_byte_blocks_and_round_trips(tmp_path, cells, t,
                                                            steps, header_bytes):
    # a header past 64 bytes grows by whole blocks instead of being refused
    d = Domain((1.0, 1.0), cells)
    state = random_state(d, np.random.default_rng(5))
    state = SimState(t=t, u=state.u, v=state.v, steps=steps)
    path = tmp_path / "s.snap"
    write_snapshot(state, str(path))
    raw = path.read_bytes()
    assert len(raw) == header_bytes + 2 * d.n_cells * 8
    line, _, pad = raw[:header_bytes].decode("ascii").partition("\n")
    assert len(line) + 1 > HEADER_BYTES and pad == " " * len(pad)
    back = read_snapshot(str(path), d)
    assert back.t == state.t and back.steps == state.steps
    assert np.array_equal(back.u.values, state.u.values)
    assert np.array_equal(back.v.values, state.v.values)


def write_raw(path, header, payload=b""):
    raw = header.encode("ascii")
    path.write_bytes(raw + b" " * (HEADER_BYTES - len(raw)) + payload)


@pytest.mark.parametrize("clock", [
    "t=nan steps=0", "t=inf steps=0", "t=-inf steps=0",
    "t=-0x1p-1 steps=0", "t=0x1p-1 steps=-4", "t=nan steps=-4",
    "t=0x1p99999 steps=0",   # too large for a double
])
def test_impossible_clock_rejected(tmp_path, clock):
    # such a header would otherwise resume: t=nan would run to max_steps
    # and end MaxSteps, t=inf would end Finished without a step
    d = Domain((1.0,), (8,))
    path = tmp_path / "s.snap"
    write_raw(path, f"KSSNAP1 dim=1 nx=8 ny=1 {clock}\n", b"\0" * (2 * 8 * 8))
    with pytest.raises(SnapshotError):
        read_snapshot(str(path), d)


# header tokens: mostly well formed, with the values a corrupt or hand-made
# file could hold
_NUMBER = st.one_of(st.integers(-10, 10), st.integers(), st.just("x"))
_TIME = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(float.hex),
    st.sampled_from(["nan", "-inf", "0x1p99999", "0x", "1e5", "-0x0p+0"]),
)
_TOKENS = st.fixed_dictionaries({
    "magic": st.sampled_from(["KSSNAP1", "KSSNAP2", ""]),
    "dim": st.one_of(st.just(1), _NUMBER),
    "nx": st.one_of(st.just(4), _NUMBER),
    "ny": st.one_of(st.just(1), _NUMBER),
    "t": _TIME,
    "steps": st.one_of(st.integers(0, 10), _NUMBER),
})


@settings(max_examples=150)
@given(tokens=_TOKENS, drop=st.sets(st.sampled_from(["dim", "nx", "ny", "t", "steps"])),
       payload=st.one_of(st.just(b"\0" * 64), st.binary(max_size=80)),
       junk=st.binary(max_size=HEADER_BYTES + 16))
def test_read_snapshot_raises_only_snapshot_error(tmp_path_factory, tokens, drop,
                                                  payload, junk):
    d = Domain((1.0,), (4,))
    header = " ".join([tokens["magic"]] + [f"{k}={tokens[k]}" for k in
                                           ("dim", "nx", "ny", "t", "steps")
                                           if k not in drop]) + "\n"
    path = tmp_path_factory.mktemp("snap") / "s.snap"
    for raw in (header.encode("ascii")[:HEADER_BYTES].ljust(HEADER_BYTES) + payload,
                junk):
        path.write_bytes(raw)
        try:
            state = read_snapshot(str(path), d)
        except SnapshotError:
            continue
        assert math.isfinite(state.t) and state.t >= 0.0
        assert state.steps >= 0
        assert state.u.values.shape == state.v.values.shape == d.shape


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    from kellerscope import snapshot
    d = Domain((1.0, 1.0), (5, 6))
    rng = np.random.default_rng(9)
    path = tmp_path / "final.snap"
    write_snapshot(random_state(d, rng), str(path))
    before = path.read_bytes()
    convert = np.ascontiguousarray
    calls = []

    def fail_on_v(a, dtype=None):
        calls.append(1)
        if len(calls) == 2:   # after the header and u are written
            raise MemoryError("out of memory")
        return convert(a, dtype=dtype)

    monkeypatch.setattr(snapshot.np, "ascontiguousarray", fail_on_v)
    with pytest.raises(MemoryError):
        write_snapshot(random_state(d, rng), str(path))
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["final.snap"]
