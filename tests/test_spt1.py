"""The SPT1 tensor file format of the artifacts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spectral_rnn.spt1 import Spt1Error, read_tensor, write_tensor


def test_spt1_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    for shape in [(4,), (2, 3), (2, 3, 4, 2)]:
        T = rng.standard_normal(shape)
        p = tmp_path / "t.spt1"
        write_tensor(p, T)
        back = read_tensor(p)
        assert back.shape == tuple(shape)
        assert np.array_equal(back, np.asarray(T))


def test_spt1_header_layout(tmp_path):
    p = tmp_path / "t.spt1"
    write_tensor(p, np.array([[1.0, 2.0], [3.0, 4.0]]))
    raw = p.read_bytes()
    assert raw[:4] == b"SPT1"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:16], "little") == 2
    assert int.from_bytes(raw[16:24], "little") == 2
    assert np.frombuffer(raw[24:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_spt1_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.spt1"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_tensor(p)


_SPT1_PROPERTY = settings(max_examples=40)

_tensors = st.lists(st.integers(0, 3), max_size=4).flatmap(
    lambda shape: arrays("<f8", tuple(shape)))


@_SPT1_PROPERTY
@given(_tensors)
def test_spt1_round_trip_property(tmp_path_factory, T):
    """Orders 0-4, zero-size dims and any float bits, NaN payloads included."""
    p = tmp_path_factory.mktemp("spt1") / "t.spt1"
    write_tensor(p, T)
    back = read_tensor(p)
    assert back.shape == T.shape
    assert back.tobytes() == T.tobytes()


@_SPT1_PROPERTY
@given(_tensors)
def test_spt1_rejects_truncation_at_every_offset(tmp_path_factory, T):
    p = tmp_path_factory.mktemp("spt1") / "t.spt1"
    write_tensor(p, T)
    raw = p.read_bytes()
    for cut in range(len(raw)):
        p.write_bytes(raw[:cut])
        with pytest.raises(Spt1Error):
            read_tensor(p)
    p.write_bytes(raw + b"\x00")
    with pytest.raises(Spt1Error):
        read_tensor(p)


def test_spt1_error_is_an_io_error_and_a_value_error(tmp_path):
    """A corrupt dim of 2^47 is a size mismatch, not an allocation attempt."""
    p = tmp_path / "huge.spt1"
    p.write_bytes(b"SPT1" + (1).to_bytes(4, "little") + (2 ** 47).to_bytes(8, "little")
                  + b"\x00" * 16)
    with pytest.raises(Spt1Error, match="expected"):
        read_tensor(p)
    assert issubclass(Spt1Error, OSError) and issubclass(Spt1Error, ValueError)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spt1_io_holds_at_most_one_payload(tmp_path):
    """Writing a C-ordered f8 array copies nothing, and reading allocates
    the returned array and no second payload (a bytes object, a cast)."""
    T = np.random.default_rng(7).standard_normal((6, 200_000))  # 9.6 MB
    p = tmp_path / "x.spt1"
    _, peak = _traced_peak(lambda: write_tensor(p, T))
    assert peak < T.nbytes // 8
    back, peak = _traced_peak(lambda: read_tensor(p))
    assert back.tobytes() == T.tobytes()
    assert peak < T.nbytes + T.nbytes // 8


def test_spt1_writes_the_c_order_bytes_of_any_layout(tmp_path):
    """A Fortran-ordered, strided or big-endian array is written as its
    C-order little-endian values, the bytes tobytes gave."""
    T = np.arange(24.0).reshape(2, 3, 4)
    for view in (np.asfortranarray(T), T[:, ::-1, ::2], T.astype(">f8")):
        p = tmp_path / "t.spt1"
        write_tensor(p, view)
        assert p.read_bytes()[-view.size * 8:] == np.asarray(view, dtype="<f8").tobytes(order="C")
        assert np.array_equal(read_tensor(p), view)
