"""Binary checkpoint format for trained models.

Layout (all integers little-endian):

    bytes 0..3   magic "CKGR"
    byte  4      version 0x01
    u32 x 7      N_u, M_u, N_i, M_i, d, k, L
    u32 x (L+1)  per-layer widths d_0..d_L
    f64 blocks   user-side graph parameters:
                     entity (N_u x d), relation (M_u x k),
                     projection (M_u x k x d),
                     then per layer l = 1..L: W1, W2, and for l >= 2
                     that layer's attention projections (M_u x k x d_{l-1})
    f64 blocks   item-side graph parameters, same order with N_i/M_i
    u64          metadata length, then that many UTF-8 bytes of JSON
                 (config echo, seed, epoch, aggregator/attention flags)

W2 is always stored; when the aggregator shares one matrix the stored
W2 block is a bitwise copy of W1 and the loader re-aliases them, so
block sizes derive from the header alone.  Saving a just-loaded state
reproduces the file byte for byte.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

from .errors import DimensionConflictError, FormatError
from .model import DualModel
from .propagation import LayerStack, printed_width_problem
from .transr import EmbeddingTable

MAGIC = b"CKGR"
VERSION = 0x01


def _pack_side(table: EmbeddingTable, stack: LayerStack) -> list[bytes]:
    parts = [
        np.ascontiguousarray(table.entity, dtype="<f8").tobytes(),
        np.ascontiguousarray(table.relation, dtype="<f8").tobytes(),
        np.ascontiguousarray(table.projection, dtype="<f8").tobytes(),
    ]
    for l in range(1, stack.n_layers + 1):
        parts.append(np.ascontiguousarray(stack.w1[l - 1], dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(stack.w2[l - 1], dtype="<f8").tobytes())
        if l >= 2:
            parts.append(np.ascontiguousarray(stack.attn[l - 1], dtype="<f8").tobytes())
    return parts


def save(model: DualModel, path, metadata: dict) -> None:
    """Write the model's parameters plus a JSON metadata blob.

    The bytes go to a temporary file in the target's directory, are
    synced to disk and then renamed over the target, so the target is
    always either the previous checkpoint or the complete new one.
    """
    stack = model.stack_u
    dims = stack.dims
    meta = dict(metadata)
    meta["dims"] = list(dims)
    meta["shared_weights"] = bool(stack.shared)
    meta["printed_attention"] = bool(stack.printed_attention)
    meta["slope"] = float(stack.slope)
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")

    header = struct.pack(
        f"<4sB{7 + len(dims)}I",
        MAGIC,
        VERSION,
        model.table_u.n_entities,
        model.table_u.n_relations,
        model.table_i.n_entities,
        model.table_i.n_relations,
        model.table_u.d,
        model.table_u.k,
        stack.n_layers,
        *dims,
    )
    # written beside the target and renamed over it, so a crash leaves the old file whole
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for part in _pack_side(model.table_u, model.stack_u):
                fh.write(part)
            for part in _pack_side(model.table_i, model.stack_i):
                fh.write(part)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.path = path
        self.at = 0

    def take(self, n: int, what: str) -> bytes:
        if self.at + n > len(self.data):
            raise FormatError(
                f"{self.path}: truncated checkpoint — needed {n} bytes for {what} "
                f"at offset {self.at}, file has {len(self.data)}"
            )
        chunk = self.data[self.at: self.at + n]
        self.at += n
        return chunk

    def array(self, shape, what: str) -> np.ndarray:
        n = int(np.prod(shape)) * 8
        return np.frombuffer(self.take(n, what), dtype="<f8").reshape(shape).copy()


def load(path):
    """Read a checkpoint back into (table_u, stack_u, table_i, stack_i, metadata)."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data, path)
    if r.take(4, "magic") != MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0 (not a checkpoint file)")
    version = r.take(1, "version")[0]
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    n_u, m_u, n_i, m_i, d, k, n_layers = struct.unpack("<7I", r.take(28, "header counts"))
    if n_layers < 1 or n_layers > 64:
        raise FormatError(f"{path}: implausible layer count {n_layers} at byte 29")
    dims = list(struct.unpack(f"<{n_layers + 1}I", r.take(4 * (n_layers + 1), "layer widths")))
    if dims[0] != d:
        raise FormatError(f"{path}: first layer width {dims[0]} != entity width {d}")

    def read_side(n, m, tag):
        table = EmbeddingTable(
            entity=r.array((n, d), f"{tag} entities"),
            relation=r.array((m, k), f"{tag} relations"),
            projection=r.array((m, k, d), f"{tag} projections"),
        )
        w1, w2, attn = [], [], [None]
        for l in range(1, n_layers + 1):
            w1.append(r.array((dims[l], dims[l - 1]), f"{tag} W1 layer {l}"))
            w2.append(r.array((dims[l], dims[l - 1]), f"{tag} W2 layer {l}"))
            if l >= 2:
                attn.append(r.array((m, k, dims[l - 1]), f"{tag} attention layer {l}"))
        return table, w1, w2, attn

    table_u, w1_u, w2_u, attn_u = read_side(n_u, m_u, "user-side")
    table_i, w1_i, w2_i, attn_i = read_side(n_i, m_i, "item-side")

    (blob_len,) = struct.unpack("<Q", r.take(8, "metadata length"))
    blob = r.take(blob_len, "metadata")
    if r.at != len(data):
        raise FormatError(f"{path}: {len(data) - r.at} trailing bytes after metadata at offset {r.at}")
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FormatError(f"{path}: unreadable metadata blob: {err}")

    shared = bool(meta.get("shared_weights", True))
    slope = float(meta.get("slope", 0.2))
    printed = bool(meta.get("printed_attention", False))
    if printed and (problem := printed_width_problem(dims, k)):
        raise FormatError(f"{path}: metadata says {problem}")

    def build_stack(w1, w2, attn, tag):
        if shared:
            for l, (a, b) in enumerate(zip(w1, w2), start=1):
                if not np.array_equal(a, b):
                    raise FormatError(
                        f"{path}: metadata says shared aggregator weights but {tag} "
                        f"layer {l} stores differing W1/W2 blocks"
                    )
            w2 = w1
        return LayerStack(list(dims), w1, w2, attn, slope, shared, printed)

    stack_u = build_stack(w1_u, w2_u, attn_u, "user-side")
    stack_i = build_stack(w1_i, w2_i, attn_i, "item-side")
    return table_u, stack_u, table_i, stack_i, meta


def attach(path, kg_u, kg_i, align, loaded=None) -> tuple[DualModel, dict]:
    """Bind a checkpoint to freshly built graphs.

    `loaded` is what `load(path)` returned, for a caller that has read
    the file already; without it the file is read here.
    """
    table_u, stack_u, table_i, stack_i, meta = load(path) if loaded is None else loaded
    checks = [
        ("user-side entities", table_u.n_entities, kg_u.entity_count),
        ("user-side relations", table_u.n_relations, kg_u.relation_count),
        ("item-side entities", table_i.n_entities, kg_i.entity_count),
        ("item-side relations", table_i.n_relations, kg_i.relation_count),
    ]
    bad = [f"{what}: checkpoint {a} vs graph {b}" for what, a, b in checks if a != b]
    if bad:
        raise DimensionConflictError(
            "checkpoint does not match the rebuilt graphs — " + "; ".join(bad)
        )
    return DualModel(kg_u, kg_i, table_u, table_i, stack_u, stack_i, align), meta
