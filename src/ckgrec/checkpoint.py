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
                 (config echo, seed, epoch, aggregator/attention flags,
                 and the sha256 digests of the two graphs the model was
                 trained on)

The block order lives in one function, `_blocks`, which both `save` and
`load` walk.  A block is named as in `DualModel.params()` (`u.entity`,
`u.w1.1`, `i.attn.2`, ...).  W2 is always stored; when the aggregator
shares one matrix, `params()` has no W2, the stored W2 block is a
bitwise copy of W1 and the loader re-aliases them, so block sizes
derive from the header alone.  Saving a just-loaded state reproduces
the file byte for byte.

`attach` binds a checkpoint only to the graphs it was trained on: their
entity and relation counts and, when the file stores them, their
digests must match.  A file without digests attaches on counts alone.
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


def _blocks(counts, d: int, k: int, dims) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every f64 block in file order; `counts` holds (N, M) per side."""
    out = []
    for side, (n, m) in zip(("u", "i"), counts):
        out += [(f"{side}.entity", (n, d)), (f"{side}.relation", (m, k)), (f"{side}.projection", (m, k, d))]
        for l in range(1, len(dims)):
            w = (dims[l], dims[l - 1])
            out += [(f"{side}.w1.{l}", w), (f"{side}.w2.{l}", w)]
            if l >= 2:
                out.append((f"{side}.attn.{l}", (m, k, dims[l - 1])))
    return out


@contextlib.contextmanager
def open_replacing(path, mode: str = "wb", **kwargs):
    """Open a temporary file beside `path`; when the block ends cleanly, sync it and rename it over `path`.

    The target is always either its previous content or the complete new
    one: a failure inside the block, or in the sync or rename, removes
    the temporary file and leaves the target untouched.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save(model: DualModel, path, metadata: dict) -> None:
    """Write the model's parameters plus a JSON metadata blob, crash-safely (`open_replacing`).

    The metadata gains the layer widths, the aggregator and attention
    flags and the digests of the model's two graphs.
    """
    stack = model.stack_u
    dims = stack.dims
    meta = dict(metadata)
    meta["dims"] = list(dims)
    meta["shared_weights"] = bool(stack.shared)
    meta["printed_attention"] = bool(stack.printed_attention)
    meta["slope"] = float(stack.slope)
    meta["graph_digests"] = {"u": model.kg_u.digest(), "i": model.kg_i.digest()}
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")

    counts = [(t.n_entities, t.n_relations) for t in (model.table_u, model.table_i)]
    d, k = model.table_u.d, model.table_u.k
    header = struct.pack(f"<4sB{7 + len(dims)}I", MAGIC, VERSION, *counts[0], *counts[1], d, k, stack.n_layers, *dims)
    params = model.params()
    with open_replacing(path) as fh:
        fh.write(header)
        for block, _ in _blocks(counts, d, k, dims):
            # a shared stack has no W2 of its own: its W1 is stored in that place
            p = params[block] if block in params else params[block.replace(".w2.", ".w1.")]
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)


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
    blocks = {name: r.array(shape, name) for name, shape in _blocks([(n_u, m_u), (n_i, m_i)], d, k, dims)}

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
    digests = meta.get("graph_digests", {"u": "", "i": ""})
    if not (isinstance(digests, dict) and all(isinstance(digests.get(side), str) for side in ("u", "i"))):
        raise FormatError(f"{path}: metadata graph_digests must map u and i to digest strings, got {digests!r}")

    layers = range(1, n_layers + 1)
    sides = []
    for side in ("u", "i"):
        w1 = [blocks[f"{side}.w1.{l}"] for l in layers]
        w2 = [blocks[f"{side}.w2.{l}"] for l in layers]
        if shared:
            for l in layers:
                if not np.array_equal(w1[l - 1], w2[l - 1]):
                    raise FormatError(
                        f"{path}: metadata says shared aggregator weights but the W1/W2 "
                        f"blocks {side}.w1.{l} and {side}.w2.{l} differ"
                    )
            w2 = w1
        attn = [None] + [blocks[f"{side}.attn.{l}"] for l in layers[1:]]
        table = EmbeddingTable(*(blocks[f"{side}.{name}"] for name in ("entity", "relation", "projection")))
        sides += [table, LayerStack(list(dims), w1, w2, attn, slope, shared, printed)]
    return (*sides, meta)


def attach(path, kg_u, kg_i, align, loaded=None) -> tuple[DualModel, dict]:
    """Bind a checkpoint to freshly built graphs.

    `loaded` is what `load(path)` returned, for a caller that has read
    the file already; without it the file is read here.  Graphs whose
    counts, or whose digests when the file stores them, differ from the
    trained ones are a DimensionConflictError.
    """
    table_u, stack_u, table_i, stack_i, meta = load(path) if loaded is None else loaded
    bad = []
    for tag, table, kg in (("user-side", table_u, kg_u), ("item-side", table_i, kg_i)):
        for what, stored, built in (
            ("entities", table.n_entities, kg.entity_count),
            ("relations", table.n_relations, kg.relation_count),
        ):
            if stored != built:
                bad.append(f"{tag} {what}: checkpoint {stored} vs graph {built}")
    if not bad and "graph_digests" in meta:
        for side, tag, kg in (("u", "user-side", kg_u), ("i", "item-side", kg_i)):
            stored, built = meta["graph_digests"][side], kg.digest()
            if stored != built:
                bad.append(f"{tag} graph digest: checkpoint {stored[:16]} vs graph {built[:16]}")
    if bad:
        raise DimensionConflictError(
            "checkpoint does not match the rebuilt graphs — " + "; ".join(bad)
        )
    return DualModel(kg_u, kg_i, table_u, table_i, stack_u, stack_i, align), meta
