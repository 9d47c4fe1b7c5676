"""Binary checkpoint format for trained models.

Layout of version 2 (all integers little-endian):

    bytes 0..3   magic "CKGR"
    byte  4      version 0x02
    u32 x 7      N_u, M_u, N_i, M_i, d, k, L
    u32 x (L+1)  per-layer widths d_0..d_L
    u32 x 3      U users, I items, T training pairs
    f64 blocks   user-side graph parameters:
                     entity (N_u x d), relation (M_u x k),
                     projection (M_u x k x d),
                     then per layer l = 1..L: W1, W2, and for l >= 2
                     that layer's attention projections (M_u x k x d_{l-1})
    f64 blocks   item-side graph parameters, same order with N_i/M_i
    f64 blocks   serving.users (U x 2S) and serving.items (I x 2S), the
                 final user and item matrices, S = d_0 + ... + d_L
    i64 blocks   serving.train_ptr (U+1) and serving.train_items (T):
                 each user's training items as CSR rows
    u64          metadata length, then that many UTF-8 bytes of JSON
                 (config echo, seed, epoch, aggregator/attention flags,
                 the sha256 digests of the two graphs the model was
                 trained on, the user and item tokens by id, and
                 `input_digests`: the sha256 of each input file the
                 config names)

Version 2 is the only version `load` reads.  A file of another version,
or one whose metadata lacks a key `save` writes (a version-2 file
written before graph digests were stored has no `graph_digests`), is a
FormatError: it cannot prove the graphs it was trained on, and the
model has to be trained again.  `load` reads the file once into one
buffer placed so that the first block after the header is 64-byte
aligned; every block is a whole number of 8-byte values, and each comes
back as a writable view of that buffer, not a copy.  The block order
lives in one function, `_blocks`, which both `save` and `load` walk.  A
parameter block is named as in `DualModel.params()` (`u.entity`,
`u.w1.1`, `i.attn.2`, ...).  W2 is always stored; when the aggregator
shares one matrix, `params()` has no W2, the stored W2 block is a
bitwise copy of W1 and the loader re-aliases them, so block sizes
derive from the header alone.  Saving a just-loaded state reproduces
the file byte for byte.

The serving blocks are what `ckgrec recommend` and `ckgrec evaluate`
rank from: a score is the inner product of a user's and an item's final
representations, which depend only on the parameters and the graphs,
and the CSR rows are the training items both exclude, which
`evaluate`'s popularity baseline also counts.  A checkpoint binds to the
world it stores in two steps: `check_keys` compares the values of the
config keys that shape that world (`WORLD_KEYS`) and opens no file, so
it runs before any parse, and `attach` then compares the sha256 of each
input file.  Given graphs instead, `attach` binds only to the graphs the
file was trained on: their entity and relation counts and their digests
must match, and graphs that match give back the stored serving arrays
bit for bit.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import KEY_OF, WORLD_KEYS, stored_type_problem
from .errors import DimensionConflictError, FormatError
from .ingest import INPUT_FILES, input_digests, open_replacing
from .model import DualModel
from .propagation import LayerStack, printed_width_problem
from .transr import EmbeddingTable

MAGIC = b"CKGR"
VERSION = 0x02


@dataclass
class Serving:
    """What `recommend` and `evaluate` rank from.

    The final user and item matrices, each user's training items as CSR
    rows (`train_items[train_ptr[u]:train_ptr[u + 1]]`) and the user and
    item tokens by id.
    """

    users: np.ndarray
    items: np.ndarray
    train_ptr: np.ndarray
    train_items: np.ndarray
    user_tokens: list
    item_tokens: list

    def train_pairs(self) -> np.ndarray:
        """The CSR rows as (user, item) id pairs, user by user."""
        users = np.repeat(np.arange(len(self.users)), np.diff(self.train_ptr))
        return np.stack([users, self.train_items], axis=1)


def serving_of(model: DualModel) -> Serving:
    """The serving arrays of `model`: two forward passes, and the interaction edges of the user-side graph."""
    users, items = model.representations(*model.stitched())
    ptr, train_items = model.align.items_by_user(model.kg_u)
    user_rows, item_rows = model.align.user_side
    tokens = [token for _, token in model.kg_u.entity_names]
    return Serving(users, items, ptr, train_items, tokens[user_rows], tokens[item_rows])


def _blocks(counts, d: int, k: int, dims, serving) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, dtype) of every block in file order.

    `counts` holds (N, M) per side; `serving` is (users, items, training
    pairs).
    """
    out = []
    for side, (n, m) in zip(("u", "i"), counts):
        out += [(f"{side}.entity", (n, d)), (f"{side}.relation", (m, k)), (f"{side}.projection", (m, k, d))]
        for l in range(1, len(dims)):
            w = (dims[l], dims[l - 1])
            out += [(f"{side}.w1.{l}", w), (f"{side}.w2.{l}", w)]
            if l >= 2:
                out.append((f"{side}.attn.{l}", (m, k, dims[l - 1])))
    n_users, n_items, n_train = serving
    width = 2 * sum(dims)
    return [(name, shape, "<f8") for name, shape in out] + [
        ("serving.users", (n_users, width), "<f8"),
        ("serving.items", (n_items, width), "<f8"),
        ("serving.train_ptr", (n_users + 1,), "<i8"),
        ("serving.train_items", (n_train,), "<i8"),
    ]


def save(model: DualModel, path, metadata: dict) -> None:
    """Write the model's parameters, its serving arrays and a JSON metadata blob, crash-safely (`open_replacing`).

    The metadata gains the layer widths, the aggregator and attention
    flags, the digests of the model's two graphs, the user and item
    tokens and, unless `metadata` gives them, the input digests of the
    files its `config` names.
    """
    stack = model.stack_u
    dims = stack.dims
    serving = serving_of(model)
    meta = dict(metadata)
    meta["dims"] = list(dims)
    meta["shared_weights"] = bool(stack.shared)
    meta["printed_attention"] = bool(stack.printed_attention)
    meta["slope"] = float(stack.slope)
    meta["graph_digests"] = {"u": model.kg_u.digest(), "i": model.kg_i.digest()}
    meta["tokens"] = {"users": serving.user_tokens, "items": serving.item_tokens}
    if "input_digests" not in meta:
        meta["input_digests"] = input_digests(meta.get("config") or {})
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")

    counts = [(t.n_entities, t.n_relations) for t in (model.table_u, model.table_i)]
    d, k = model.table_u.d, model.table_u.k
    sizes = (len(serving.users), len(serving.items), len(serving.train_items))
    header = struct.pack(f"<4sB{10 + len(dims)}I", MAGIC, VERSION, *counts[0], *counts[1], d, k, stack.n_layers,
                         *dims, *sizes)
    arrays = {
        **model.params(),
        "serving.users": serving.users,
        "serving.items": serving.items,
        "serving.train_ptr": serving.train_ptr,
        "serving.train_items": serving.train_items,
    }
    with open_replacing(path) as fh:
        fh.write(header)
        for block, _, dtype in _blocks(counts, d, k, dims, sizes):
            # a shared stack has no W2 of its own: its W1 is stored in that place
            p = arrays[block] if block in arrays else arrays[block.replace(".w2.", ".w1.")]
            fh.write(np.ascontiguousarray(p, dtype=dtype).tobytes())
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)


BLOCK_ALIGN = 64  # the load buffer places the first block after the header at this alignment
_FIXED = struct.calcsize("<4sB7I")  # the header up to and including its layer count


def _read_aligned(path) -> memoryview:
    """The whole file, read once into one buffer, placed so the first block after the header is BLOCK_ALIGN-aligned.

    Every block is a whole number of 8-byte values, so every block is then
    8-byte aligned: numpy sends only aligned float64 operands to BLAS, and
    another matmul loop would round a product differently.  The buffer
    holds one byte more than the file's size, so a file that grew while it
    was read shows as trailing bytes, and one that shrank as truncated.
    """
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_FIXED)
        n_layers = struct.unpack_from("<I", prefix, _FIXED - 4)[0] if len(prefix) == _FIXED else 0
        header = _FIXED + 4 * (n_layers + 1) + 12  # the layer widths and the three serving counts follow
        buffer = np.empty(size + 1 + BLOCK_ALIGN, dtype=np.uint8)
        view = memoryview(buffer)[-(buffer.ctypes.data + header) % BLOCK_ALIGN:]
        view[: len(prefix)] = prefix
        got = len(prefix)
        while got < len(view) and (n := fh.readinto(view[got:])):
            got += n
    return view[:got]


class _Reader:
    def __init__(self, data: memoryview, path):
        self.data = data
        self.path = path
        self.at = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.at + n > len(self.data):
            raise FormatError(
                f"{self.path}: truncated checkpoint — needed {n} bytes for {what} "
                f"at offset {self.at}, file has {len(self.data)}"
            )
        chunk = self.data[self.at: self.at + n]
        self.at += n
        return chunk

    def array(self, shape, dtype: str, what: str) -> np.ndarray:
        """A writable view of the next block: no copy of the file's bytes."""
        n = int(np.prod(shape)) * 8
        return np.frombuffer(self.take(n, what), dtype=dtype).reshape(shape)


class Loaded(NamedTuple):
    table_u: EmbeddingTable
    stack_u: LayerStack
    table_i: EmbeddingTable
    stack_i: LayerStack
    meta: dict
    serving: Serving


# every key `save` adds to the metadata; a file without one of them predates this format
METADATA_KEYS = ("dims", "shared_weights", "printed_attention", "slope", "graph_digests", "tokens", "input_digests")


def load(path) -> Loaded:
    """Read a version-2 checkpoint back, with every check on its layout and metadata.

    Every array it returns is an aligned, writable view of the one buffer
    the file was read into (`_read_aligned`).
    """
    data = _read_aligned(path)
    r = _Reader(data, path)
    if r.take(4, "magic") != MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0 (not a checkpoint file)")
    version = r.take(1, "version")[0]
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4; only version {VERSION} is read, "
                          "so train the model again")
    n_u, m_u, n_i, m_i, d, k, n_layers = struct.unpack("<7I", r.take(28, "header counts"))
    if n_layers < 1 or n_layers > 64:
        raise FormatError(f"{path}: implausible layer count {n_layers} at byte 29")
    dims = list(struct.unpack(f"<{n_layers + 1}I", r.take(4 * (n_layers + 1), "layer widths")))
    if dims[0] != d:
        raise FormatError(f"{path}: first layer width {dims[0]} != entity width {d}")
    sizes = struct.unpack("<3I", r.take(12, "serving counts"))
    if sizes[0] + sizes[1] > min(n_u, n_i):
        raise FormatError(f"{path}: {sizes[0]} users and {sizes[1]} items do not fit graphs of "
                          f"{n_u} and {n_i} entities")
    layout = _blocks([(n_u, m_u), (n_i, m_i)], d, k, dims, sizes)
    blocks = {name: r.array(shape, dtype, name) for name, shape, dtype in layout}

    (blob_len,) = struct.unpack("<Q", r.take(8, "metadata length"))
    blob = r.take(blob_len, "metadata")
    if r.at != len(data):
        raise FormatError(f"{path}: {len(data) - r.at} trailing bytes after metadata at offset {r.at}")
    try:
        meta = json.loads(str(blob, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FormatError(f"{path}: unreadable metadata blob: {err}")

    if not isinstance(meta, dict):
        raise FormatError(f"{path}: metadata is not a JSON object")
    if missing := [key for key in METADATA_KEYS if key not in meta]:
        raise FormatError(f"{path}: metadata lacks {', '.join(missing)}, so the file cannot prove the graphs "
                          "it was trained on; train the model again")
    shared, printed, slope = meta["shared_weights"], meta["printed_attention"], meta["slope"]
    if not (isinstance(shared, bool) and isinstance(printed, bool)):
        raise FormatError(f"{path}: metadata shared_weights and printed_attention must be true or false, "
                          f"got {shared!r} and {printed!r}")
    if not (isinstance(slope, float) and 0.0 < slope < 1.0):
        raise FormatError(f"{path}: metadata slope must be a number in (0, 1), got {slope!r}")
    if meta["dims"] != dims:
        raise FormatError(f"{path}: metadata dims {meta['dims']!r} differ from the layer widths {dims} in the header")
    if printed and (problem := printed_width_problem(dims, k)):
        raise FormatError(f"{path}: metadata says {problem}")
    digests = meta["graph_digests"]
    if not (isinstance(digests, dict) and all(isinstance(digests.get(side), str) for side in ("u", "i"))):
        raise FormatError(f"{path}: metadata graph_digests must map u and i to digest strings, got {digests!r}")
    if not (isinstance(inputs := meta["input_digests"], dict) and all(isinstance(v, str) for v in inputs.values())):
        raise FormatError(f"{path}: metadata input_digests must map file keys to digest strings, got {inputs!r}")
    if problem := stored_type_problem(meta.get("config", {})):
        raise FormatError(f"{path}: metadata config {problem}")
    serving = _serving(path, blocks, meta, sizes)

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
    return Loaded(*sides, meta, serving)


def _serving(path, blocks: dict, meta: dict, sizes) -> Serving:
    """The serving blocks and tokens, checked against each other."""
    n_users, n_items, n_train = sizes
    ptr, items = blocks["serving.train_ptr"], blocks["serving.train_items"]
    if ptr[0] != 0 or ptr[-1] != n_train or np.any(np.diff(ptr) < 0):
        raise FormatError(f"{path}: serving.train_ptr is not a row pointer over {n_train} training pairs")
    if len(items) and (items.min() < 0 or items.max() >= n_items):
        raise FormatError(f"{path}: serving.train_items holds ids outside 0..{n_items - 1}")
    tokens = meta.get("tokens")
    wanted = {"users": n_users, "items": n_items}
    if not (isinstance(tokens, dict) and all(
        isinstance(tokens.get(side), list) and len(tokens[side]) == n
        and all(isinstance(t, str) for t in tokens[side]) for side, n in wanted.items()
    )):
        raise FormatError(f"{path}: metadata tokens must list {n_users} user and {n_items} item strings")
    return Serving(blocks["serving.users"], blocks["serving.items"], ptr, items, tokens["users"], tokens["items"])


def check_keys(path, meta: dict, config: dict) -> None:
    """Check that the config dict `config` gives every `WORLD_KEYS` key its value in `meta`; it opens no file."""
    stored = meta.get("config") or {}
    for key in WORLD_KEYS:
        if config.get(key) != stored.get(key):
            raise DimensionConflictError(f"{path} was trained with {KEY_OF[key]}={stored.get(key)!r}, "
                                         f"not {KEY_OF[key]}={config.get(key)!r}")


def attach(path, kg_u=None, kg_i=None, align=None, loaded=None, *, config=None, inputs=None):
    """Bind a checkpoint to the world it is used in: (bound, meta).

    `loaded` is what `load(path)` returned, for a caller that has read
    the file already; without it the file is read here.  Given graphs,
    `bound` is the model over them, and their counts and digests must be
    the trained ones.  Given none, `bound` is the stored `Serving`, and
    `config` (a config dict, whose `WORLD_KEYS` `check_keys` checks
    before any parse) must name the stored input files, each with its
    stored sha256, wherever it lives now; `inputs` holds the sha256 the
    parsers took from the bytes the caller parsed, by config key, and
    only the other files are hashed here.  Any other world is a
    DimensionConflictError that names the first file or graph that
    differs.
    """
    table_u, stack_u, table_i, stack_i, meta, serving = load(path) if loaded is None else loaded
    if kg_u is None:
        inputs = inputs or {}
        inputs = {**input_digests({k: v for k, v in config.items() if k not in inputs}), **inputs}
        trained = meta["input_digests"]
        for name in INPUT_FILES:
            if inputs.get(name) != trained.get(name):
                raise DimensionConflictError(
                    f"{path} was trained on another {name} file: {config.get(name) or 'none given'} has sha256 "
                    f"{inputs.get(name, 'none')[:16]}, the checkpoint stores {trained.get(name, 'none')[:16]}"
                )
        return serving, meta
    bad = []
    for tag, table, kg in (("user-side", table_u, kg_u), ("item-side", table_i, kg_i)):
        for what, stored, built in (
            ("entities", table.n_entities, kg.entity_count),
            ("relations", table.n_relations, kg.relation_count),
        ):
            if stored != built:
                bad.append(f"{tag} {what}: checkpoint {stored} vs graph {built}")
    if not bad:
        for side, tag, kg in (("u", "user-side", kg_u), ("i", "item-side", kg_i)):
            stored, built = meta["graph_digests"][side], kg.digest()
            if stored != built:
                bad.append(f"{tag} graph digest: checkpoint {stored[:16]} vs graph {built[:16]}")
    if bad:
        raise DimensionConflictError(
            "checkpoint does not match the rebuilt graphs — " + "; ".join(bad)
        )
    return DualModel(kg_u, kg_i, table_u, table_i, stack_u, stack_i, align), meta
