"""Binary container for embedding matrices and small model files.

A block is a 4-byte ASCII magic ``EMB1``, two little-endian uint32 giving
the row and column counts, then row-major float32 payload.  Metadata lives
in a plain-text sidecar: ``foo.emb`` (or ``foo.mdl``) has ``foo.meta`` of
``key: value`` lines.  Embedding files hold one block and an untyped sidecar
(:mod:`diarkit.embeddings`).  Every other file is typed, written by
:func:`write_typed` and read by :func:`read_typed`: the sidecar's first line
is ``type: <kind>`` and the class's own fields follow in a fixed order.  The
kinds are ``pca`` and ``plda`` (:mod:`~diarkit.scoring`), ``mlp``
(:mod:`~diarkit.bandwidth`), and ``whitening``, ``lda`` and ``posteriors``
(:mod:`~diarkit.reseg`).  On damaged content the loaders raise only
:class:`FormatError`, naming the file.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"EMB1"
_HEADER = struct.Struct("<II")


class FormatError(ValueError):
    """Raised on malformed container files; ``offset`` points at the fault."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@contextmanager
def naming_file(path: str | Path):
    """Re-raise a KeyError, IndexError or ValueError inside as a FormatError naming ``path``."""
    try:
        yield
    except FormatError:
        raise
    except (LookupError, ValueError) as exc:
        raise FormatError(f"{path}: {exc!r}") from exc


def pack_block(array: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(array, dtype="<f4")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"container blocks are 2-D, got shape {array.shape}")
    n, d = arr.shape
    return MAGIC + _HEADER.pack(n, d) + arr.tobytes()


def unpack_blocks(data: bytes, path: str = "<bytes>") -> list[np.ndarray]:
    """Parse consecutive blocks; reject bad magic, truncation, non-finite data."""
    blocks = []
    pos = 0
    while pos < len(data):
        if data[pos : pos + 4] != MAGIC:
            raise FormatError(f"{path}: bad magic {data[pos:pos + 4]!r}", offset=pos)
        if pos + 12 > len(data):
            raise FormatError(f"{path}: truncated block header", offset=pos + 4)
        n, d = _HEADER.unpack_from(data, pos + 4)
        start = pos + 12
        nbytes = n * d * 4
        if start + nbytes > len(data):
            raise FormatError(
                f"{path}: payload truncated, expected {nbytes} bytes", offset=len(data)
            )
        arr = np.frombuffer(data, dtype="<f4", count=n * d, offset=start).reshape(n, d)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise FormatError(
                f"{path}: non-finite value in payload", offset=start + int(bad[0]) * 4
            )
        blocks.append(arr.copy())
        pos = start + nbytes
    return blocks


def write_blocks(path: str | Path, arrays: list[np.ndarray]) -> None:
    Path(path).write_bytes(b"".join(pack_block(a) for a in arrays))


def read_blocks(path: str | Path, expect: int | None = None) -> list[np.ndarray]:
    path = Path(path)
    blocks = unpack_blocks(path.read_bytes(), path=str(path))
    if expect is not None and len(blocks) != expect:
        raise FormatError(f"{path}: expected {expect} blocks, found {len(blocks)}")
    return blocks


def sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".meta")


def write_sidecar(path: str | Path, fields: dict[str, object]) -> None:
    lines = [f"{key}: {value}" for key, value in fields.items()]
    sidecar_path(path).write_text("\n".join(lines) + "\n")


def read_sidecar(path: str | Path) -> dict[str, str]:
    meta = sidecar_path(path)
    with naming_file(meta):
        text = meta.read_text()
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise FormatError(f"{meta}:{lineno}: expected 'key: value', got {raw!r}")
        key, value = line.split(":", 1)
        fields[key.strip()] = value.strip()
    return fields


def write_typed(path: str | Path, kind: str, blocks: list[np.ndarray], **fields) -> None:
    """Write ``blocks``, then a sidecar of ``type: kind`` and ``fields`` in the order given."""
    write_blocks(path, blocks)
    write_sidecar(path, {"type": kind, **fields})


def read_typed(path: str | Path, kind: str, count: int, build, input_dim=None):
    """``build(meta, *blocks)`` for a typed file of ``kind`` holding ``count`` blocks,
    read as float64; an error ``build`` raises on bad content becomes a FormatError.

    With ``input_dim``, a function of the built object, the sidecar's ``dim``
    must be an integer equal to that object's input dimension.
    """
    meta = read_sidecar(path)
    if meta.get("type") != kind:
        raise FormatError(f"{path}: expected type {kind}, got {meta.get('type')!r}")
    blocks = [block.astype(float) for block in read_blocks(path, expect=count)]
    with naming_file(path):
        built = build(meta, *blocks)
        if input_dim is not None and int(meta["dim"]) != input_dim(built):
            raise FormatError(
                f"{path}: sidecar dim {meta['dim']} does not match input dim {input_dim(built)}"
            )
    return built
