"""Run configuration: a flat `key = value` file plus CLI overrides.

The file format is deliberately primitive — UTF-8 lines of `key = value`
with `#` comments — so any tooling can read and write it.  Unknown keys
are rejected, every value is validated on load, and the full resolved
configuration is echoed into run manifests and checkpoints.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .errors import ConfigError

_TRUE = {"true", "yes", "1", "on"}
_FALSE = {"false", "no", "0", "off"}


@dataclass
class RunConfig:
    d: int = 64
    k: int = 64
    layers: int = 2
    dims: tuple = (64, 32, 16)
    lr: float = 0.001
    reg: float = 1e-5
    kg_batch: int = 1024
    cf_batch: int = 1024
    epochs: int = 100
    patience: int = 10
    top_k: int = 10
    seed: int = 0
    slope: float = 0.2
    init_std: float = 0.1
    shared_weights: bool = True
    printed_attention: bool = False
    corrupt_heads: bool = False
    threshold: float = float("-inf")
    min_interactions: int = 0
    train_ratio: float = 0.8
    val_ratio: float = 0.1
    test_ratio: float = 0.1
    id_order: str = "first-seen"
    format: str = "tsv"
    eval_every: int = 1
    interactions: str | None = None
    user_attrs: str | None = None
    item_attrs: str | None = None
    manifest: str | None = None
    out: str | None = None

    @property
    def ratios(self) -> tuple[float, float, float]:
        return (self.train_ratio, self.val_ratio, self.test_ratio)

    def validate(self) -> "RunConfig":
        def require(cond, msg):
            if not cond:
                raise ConfigError(msg)

        require(self.d >= 1 and self.k >= 1, f"embedding widths must be >= 1, got d={self.d} k={self.k}")
        require(1 <= self.layers <= 4, f"layer count must lie in 1..4, got {self.layers}")
        require(0 <= self.lr < math.inf, f"lr must be finite and >= 0, got {self.lr}")
        require(0 <= self.reg < math.inf, f"reg must be finite and >= 0, got {self.reg}")
        require(self.kg_batch >= 1 and self.cf_batch >= 1, "batch sizes must be >= 1")
        require(self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}")
        require(self.patience >= 1, f"patience must be >= 1, got {self.patience}")
        require(self.top_k >= 1, f"top_k must be >= 1, got {self.top_k}")
        require(0.0 < self.slope < 1.0, f"activation slope must lie in (0,1), got {self.slope}")
        require(0 < self.init_std < math.inf, f"init_std must be finite and positive, got {self.init_std}")
        require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        require(not math.isnan(self.threshold), "threshold must be a number, got nan")
        require(self.min_interactions >= 0, "min_interactions must be >= 0")
        require(self.eval_every >= 1, "eval_every must be >= 1")
        require(self.id_order in ("first-seen", "sorted"), f"unknown id_order {self.id_order!r}")
        require(self.format in ("tsv", "csv"), f"unknown format {self.format!r}")
        for r in self.ratios:
            require(r > 0, f"split ratios must be positive, got {self.ratios}")
        require(abs(sum(self.ratios) - 1.0) <= 1e-9, f"split ratios must sum to 1, got {self.ratios}")
        require(all(int(x) > 0 for x in self.dims), f"layer widths must be positive, got {self.dims}")
        if self.printed_attention:
            from .propagation import printed_width_problem, resolve_dims

            problem = printed_width_problem(resolve_dims(self.d, self.dims, self.layers), self.k)
            require(problem is None, problem)
        return self

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


# the keys besides the input files that shape the parsed records, the split
# and the vocabularies: a checkpoint serves only the values it was trained with
WORLD_KEYS = ("format", "threshold", "min_interactions", "train_ratio", "val_ratio", "test_ratio", "seed", "id_order")


# file/flag keys named differently from the RunConfig field they set;
# every other key is the field's own name
KEY_MAP = {
    "aggregator.shared_weights": "shared_weights",
    "attention.printed_form": "printed_attention",
    "split.train": "train_ratio",
    "split.val": "val_ratio",
    "split.test": "test_ratio",
}

_TYPES = {f.name: f.type for f in fields(RunConfig)}
_KEYS = {**{name: name for name in _TYPES if name not in KEY_MAP.values()}, **KEY_MAP}
KEY_OF = {attr: key for key, attr in _KEYS.items()}  # the key a message names for each field
# the JSON value types a stored config may give each kind of field: an int may stand for a float, a bool for no int
_STORED = {"int": {int}, "float": {int, float}, "bool": {bool}, "str": {str}, "str | None": {str, type(None)},
           "tuple": {list}}


def stored_type_problem(config) -> str | None:
    """What keeps a stored config from resolving, naming the first mistyped field; None if nothing does."""
    if type(config) is not dict:
        return f"must be an object, got {config!r}"
    for name, value in config.items():
        kind = _TYPES.get(name)
        if kind and (type(value) not in _STORED[kind] or kind == "tuple" and any(type(x) is not int for x in value)):
            return f"{name} is {value!r}, not of type {kind}"
    return None


def _coerce(attr: str, raw: str):
    kind = _TYPES[attr]
    if attr == "dims":
        try:
            return tuple(int(x) for x in raw.split(",") if x.strip())
        except ValueError:
            raise ConfigError(f"dims must be a comma-separated integer list, got {raw!r}")
    if kind == "bool":
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{KEY_OF[attr]} expects a boolean, got {raw!r}")
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{KEY_OF[attr]} expects an integer, got {raw!r}")
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{KEY_OF[attr]} expects a number, got {raw!r}")
    return raw if raw else None


def read_lines(path, error=ConfigError) -> tuple[list[str], str]:
    """The lines of `path` and the sha256 of its bytes, from one read of the file.

    The lines are `open(path, encoding="utf-8-sig").read().split("\n")`:
    with universal newlines, "\r\n" and a lone "\r" end a line as "\n"
    does, and no other character does, and a leading byte-order mark is
    dropped, so it never joins the first token.  A file that is not
    UTF-8 raises `error`, naming the path and the offset of the first
    bad byte.  The config file and every input parser read through
    here, so the digest a run records is that of the bytes it parsed,
    mark included.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8: byte 0x{data[err.start]:02x} at offset {err.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), hashlib.sha256(data).hexdigest()


def assignments(lines, source: str, comments: bool = True):
    """(line number, key, value) of each `key = value` line, stripped; with `comments`, `#` starts a comment."""
    for lineno, line in enumerate(lines, start=1):
        body = (line.split("#", 1)[0] if comments else line).strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`, got {line.strip()!r}")
        key, _, value = body.partition("=")
        yield lineno, key.strip(), value.strip()


def parse_assignments(lines, source: str, comments: bool = True) -> dict:
    """`key = value` pairs -> attribute dict, rejecting unknown keys (see `assignments`)."""
    out = {}
    for lineno, key, value in assignments(lines, source, comments):
        attr = _KEYS.get(key)
        if attr is None:
            raise ConfigError(f"{source}:{lineno}: unknown configuration key {key!r}")
        out[attr] = _coerce(attr, value)
    return out


def load_config(path=None, overrides=None, base=None) -> RunConfig:
    """Defaults <- `base` <- config file <- override assignments, then validate.

    `base` maps field names to values, such as the config a checkpoint
    echoes: names RunConfig lacks are dropped and `dims` becomes a tuple.
    Overrides are `key=value` strings, later ones winning; a `#` in them
    is part of the value, so a path may hold one.
    """
    values = {k: tuple(v) if k == "dims" else v for k, v in (base or {}).items() if k in _TYPES}
    if path is not None:
        values.update(parse_assignments(read_lines(path)[0], str(path)))
    if overrides:
        values.update(parse_assignments(overrides, "<override>", comments=False))
    return RunConfig(**values).validate()
