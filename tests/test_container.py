import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.bandwidth import MLPClassifier
from diarkit.container import (
    FormatError,
    pack_block,
    read_blocks,
    read_sidecar,
    read_typed,
    sidecar_path,
    unpack_blocks,
    write_blocks,
    write_sidecar,
    write_typed,
)
from diarkit.embeddings import EmbeddingSequence, read_embeddings, write_embeddings
from diarkit.reseg import LDAProjection, PosteriorMatrix, WhiteningStats
from diarkit.scoring import PCAModel, PLDAModel


def test_single_block_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(1, 50))
        d = int(rng.integers(1, 30))
        arr = rng.standard_normal((n, d)).astype(np.float32)
        path = tmp_path / f"block{trial}.emb"
        write_blocks(path, [arr])
        (out,) = read_blocks(path, expect=1)
        assert out.dtype == np.float32
        assert np.array_equal(out, arr)


def test_multi_block_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    arrays = [rng.standard_normal((int(rng.integers(1, 8)), 5)).astype(np.float32) for _ in range(4)]
    path = tmp_path / "model.mdl"
    write_blocks(path, arrays)
    out = read_blocks(path)
    assert len(out) == 4
    for a, b in zip(arrays, out):
        assert np.array_equal(a, b)


def test_one_dim_array_becomes_row_vector():
    vec = np.arange(6, dtype=np.float32)
    (out,) = unpack_blocks(pack_block(vec))
    assert out.shape == (1, 6)
    assert np.array_equal(out[0], vec)


def test_float64_is_cast_to_float32():
    arr = np.array([[1.0, 2.0], [3.5, -0.25]])
    (out,) = unpack_blocks(pack_block(arr))
    assert out.dtype == np.float32
    assert np.array_equal(out, arr.astype(np.float32))


def test_bad_magic_reports_offset_zero():
    data = b"XXXX" + pack_block(np.ones((2, 2)))[4:]
    with pytest.raises(FormatError) as err:
        unpack_blocks(data)
    assert err.value.offset == 0
    assert "byte offset 0" in str(err.value)


def test_bad_magic_in_second_block_reports_its_offset():
    first = pack_block(np.ones((2, 3)))
    data = first + b"JUNKJUNKJUNK"
    with pytest.raises(FormatError) as err:
        unpack_blocks(data)
    assert err.value.offset == len(first)


def test_truncated_payload_reports_offset():
    block = pack_block(np.ones((4, 4)))
    with pytest.raises(FormatError) as err:
        unpack_blocks(block[:-8])
    assert err.value.offset == len(block) - 8
    assert "truncated" in str(err.value)


def test_truncated_header_rejected():
    block = pack_block(np.ones((1, 2)))
    with pytest.raises(FormatError):
        unpack_blocks(block[:7])


def test_non_finite_payload_rejected():
    arr = np.ones((3, 3), dtype=np.float32)
    arr[1, 2] = np.nan
    data = b"EMB1" + np.array([3, 3], dtype="<u4").tobytes() + arr.tobytes()
    with pytest.raises(FormatError) as err:
        unpack_blocks(data)
    # offset points at the first bad float: header 12 bytes + 5 floats in
    assert err.value.offset == 12 + 5 * 4


def test_expected_block_count_enforced(tmp_path):
    path = tmp_path / "two.mdl"
    write_blocks(path, [np.ones((1, 1)), np.ones((1, 1))])
    with pytest.raises(FormatError):
        read_blocks(path, expect=1)


def test_three_dim_array_rejected():
    with pytest.raises(ValueError):
        pack_block(np.ones((2, 2, 2)))


def test_sidecar_round_trip(tmp_path):
    path = tmp_path / "x.emb"
    fields = {"recording_id": "rec1", "window_size": repr(1.5), "dim": 32}
    write_sidecar(path, fields)
    assert sidecar_path(path).name == "x.meta"
    out = read_sidecar(path)
    assert out == {"recording_id": "rec1", "window_size": "1.5", "dim": "32"}
    assert float(out["window_size"]) == 1.5


def test_sidecar_value_may_contain_colon(tmp_path):
    path = tmp_path / "x.emb"
    write_sidecar(path, {"note": "a:b:c"})
    assert read_sidecar(path)["note"] == "a:b:c"


def test_sidecar_bad_line_rejected(tmp_path):
    path = tmp_path / "x.emb"
    sidecar_path(path).write_text("just some words\n")
    with pytest.raises(FormatError):
        read_sidecar(path)


def test_float_repr_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "x.emb"
    for _ in range(200):
        value = float(rng.standard_normal() * 10.0 ** float(rng.integers(-6, 6)))
        write_sidecar(path, {"v": repr(value)})
        assert float(read_sidecar(path)["v"]) == value


# -- typed files and embedding files: pinned bytes, damaged copies ---------


def _sample(kind):
    """A fixed object of each file kind, built from float32-representable values."""
    if kind == "pca":
        return PCAModel(
            mean=[0.5, -1.25, 2.0], basis=[[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]], eigenvalues=[2.5, 0.75]
        )
    if kind == "plda":
        return PLDAModel(
            mean=[0.25, -0.5], between=[[2.0, 0.5], [0.5, 1.0]], within=[[1.0, 0.25], [0.25, 0.5]]
        )
    if kind == "mlp":
        return MLPClassifier(
            w1=[[0.5, -0.25, 1.0], [0.0, 0.75, -1.5]],
            b1=[0.125, 0.0, -0.5],
            w2=[[1.0, -1.0], [0.25, 0.5], [-0.75, 2.0]],
            b2=[0.0, 0.25],
        )
    if kind == "whitening":
        return WhiteningStats(mean=np.array([1.5, -0.5]), cholesky=np.array([[1.0, 0.0], [0.5, 2.0]]))
    if kind == "lda":
        return LDAProjection(
            mean=np.array([0.5, 0.25, -1.0]), matrix=np.array([[1.0, 0.5], [-0.25, 0.0], [0.0, 2.0]])
        )
    if kind == "posteriors":
        return PosteriorMatrix(
            "call_7", [[0.75, 0.25], [0.5, 0.5], [0.0, 1.0]], 0.01,
            subsample_factor=10, speakers=("a", "b"), time_offset=1.5,
        )
    return EmbeddingSequence(
        "rec9", np.array([[0.5, -1.0], [0.25, 2.0], [-0.125, 0.0]]), 1.5, 0.75, 3.0
    )


_KINDS = ("pca", "plda", "mlp", "whitening", "lda", "posteriors", "emb")
_LOADERS = {
    "pca": PCAModel.load,
    "plda": PLDAModel.load,
    "mlp": MLPClassifier.load,
    "whitening": WhiteningStats.load,
    "lda": LDAProjection.load,
    "posteriors": PosteriorMatrix.load,
    "emb": read_embeddings,
}
# sha256 of payload bytes followed by sidecar bytes
_DIGESTS = {
    "pca": "5c0d2ef7ae3504fb81a2e14d74cd5e8c24472e346c90b367f41b607bb2152e13",
    "plda": "ca6c5bd3bc89350f41fd74f076acf5b318d8dcf2c732dd698123e8d7e5957b4e",
    "mlp": "46e2303c7bdf92f376e1efe511958925c22b85ab8dec7c0e6b1516421de01092",
    "whitening": "6be642955ee07e2a51e7818ecd426b88c241fae10f1bcbcbb6643c9a05f3d2a6",
    "lda": "92bd12257f8efae0ea8321dbc07c37f96652fc4d0eba516df5b436779ddb6cea",
    "posteriors": "a129b75743c2beb573454f89ca15fe9a6a0686ac6e213a89411884e8e58cfa67",
    "emb": "cf12345932d78b8137cd6f2d0efbfc932acd14b337480b524560228f2d9b5598",
}


def _write(kind, path):
    if kind == "emb":
        write_embeddings(path, _sample(kind))
    else:
        _sample(kind).save(path)


def _files(kind, directory):
    path = Path(directory) / f"{kind}_file.bin"
    _write(kind, path)
    return path, path.read_bytes(), sidecar_path(path).read_bytes()


@pytest.mark.parametrize("kind", _KINDS)
def test_file_bytes_are_pinned(kind, tmp_path):
    path, payload, sidecar = _files(kind, tmp_path)
    assert hashlib.sha256(payload + sidecar).hexdigest() == _DIGESTS[kind]
    back = _LOADERS[kind](path)
    for name, value in vars(_sample(kind)).items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(getattr(back, name), value)
        else:
            assert getattr(back, name) == value


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_files_raise_only_format_error(kind, data):
    with tempfile.TemporaryDirectory() as directory:
        path, payload, sidecar = _files(kind, directory)
        target = path if data.draw(st.booleans(), label="payload") else sidecar_path(path)
        raw = payload if target == path else sidecar
        cut = data.draw(st.integers(0, len(raw) - 1), label="position")
        if data.draw(st.booleans(), label="truncate"):
            damaged = raw[:cut]
        else:
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[cut]), label="byte")
            damaged = raw[:cut] + bytes([byte]) + raw[cut + 1 :]
        target.write_bytes(damaged)
        try:
            _LOADERS[kind](path)
        except FormatError as exc:
            assert path.stem in str(exc)


@pytest.mark.parametrize(
    "kind, line, replacement",
    [
        ("posteriors", "frame_shift: 0.01\n", ""),
        ("posteriors", "frame_shift: 0.01", "frame_shift: fast"),
        ("posteriors", "frame_shift: 0.01", "frame_shift: nan"),
        ("posteriors", "time_offset: 1.5", "time_offset: inf"),
        ("posteriors", "subsample_factor: 10", "subsample_factor: ten"),
        ("posteriors", "speakers: a,b", "speakers: a"),
        ("emb", "recording_id: rec9\n", ""),
        ("emb", "window_size: 1.5", "window_size: wide"),
        ("emb", "window_shift: 0.75", "window_shift: ?"),
        ("emb", "recording_duration: 3.0", "recording_duration: long"),
        ("emb", "recording_duration: 3.0", "recording_duration: 9.0"),
        ("emb", "dim: 2", "dim: two"),
        ("emb", "dim: 2", "dim: 3"),
        ("pca", "dim: 3", "dim: 2"),
        ("plda", "dim: 2", "dim: 7"),
        ("mlp", "dim: 2", "dim: 3"),
        ("whitening", "dim: 2", "dim: 7"),
        ("lda", "dim: 3", "dim: 2"),
        ("pca", "dim: 3", "dim: 3.0"),
        ("whitening", "dim: 2", "dim: two"),
        ("lda", "dim: 3\n", ""),
    ],
)
def test_bad_sidecar_values_raise_format_error_naming_the_file(kind, line, replacement, tmp_path):
    path, _, sidecar = _files(kind, tmp_path)
    assert line.encode() in sidecar
    sidecar_path(path).write_bytes(sidecar.replace(line.encode(), replacement.encode()))
    with pytest.raises(FormatError, match=path.stem):
        _LOADERS[kind](path)


def test_arrays_the_class_rejects_raise_format_error_naming_the_file(tmp_path):
    path = tmp_path / "lopsided.mdl"
    between = np.array([[1.0, 2.0], [0.0, 1.0]])
    write_typed(path, "plda", [np.zeros(2), between, np.eye(2)], arrays="mean,between,within", dim=2)
    with pytest.raises(FormatError, match="lopsided.*between covariance must be symmetric"):
        PLDAModel.load(path)


@pytest.mark.parametrize(
    "kind, arrays",
    [("whitening", [np.zeros(3), np.eye(2)]), ("lda", [np.zeros(3), np.ones((2, 2))])],
)
def test_model_arrays_of_disagreeing_shapes_raise_format_error(kind, arrays, tmp_path):
    path = tmp_path / "mismatched.mdl"
    write_typed(path, kind, arrays, dim=3)
    with pytest.raises(FormatError, match="mismatched.*got shapes"):
        _LOADERS[kind](path)


def test_typed_sidecar_starts_with_type_then_fields_in_order(tmp_path):
    path = tmp_path / "x.mdl"
    write_typed(path, "thing", [np.ones(3)], zeta=1, alpha="b")
    assert sidecar_path(path).read_text() == "type: thing\nzeta: 1\nalpha: b\n"
    with pytest.raises(FormatError, match="expected type other, got 'thing'"):
        read_typed(path, "other", 1, lambda meta, block: block)
    meta, block = read_typed(path, "thing", 1, lambda meta, block: (meta, block))
    assert meta == {"type": "thing", "zeta": "1", "alpha": "b"}
    assert block.dtype == np.float64 and block.shape == (1, 3)
