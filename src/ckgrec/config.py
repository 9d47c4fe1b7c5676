"""Run configuration: a flat `key = value` file plus CLI overrides.

The file format is deliberately primitive — UTF-8 lines of `key = value`
with `#` comments — so any tooling can read and write it.  Unknown keys
are rejected, every value is validated on load, and the full resolved
configuration is echoed into run manifests and checkpoints.
"""

from __future__ import annotations

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
        require(self.lr >= 0, f"learning rate must be >= 0, got {self.lr}")
        require(self.reg >= 0, f"regularization weight must be >= 0, got {self.reg}")
        require(self.kg_batch >= 1 and self.cf_batch >= 1, "batch sizes must be >= 1")
        require(self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}")
        require(self.patience >= 1, f"patience must be >= 1, got {self.patience}")
        require(self.top_k >= 1, f"top_k must be >= 1, got {self.top_k}")
        require(0.0 < self.slope < 1.0, f"activation slope must lie in (0,1), got {self.slope}")
        require(self.init_std > 0, f"init std must be positive, got {self.init_std}")
        require(self.min_interactions >= 0, "min_interactions must be >= 0")
        require(self.eval_every >= 1, "eval_every must be >= 1")
        require(self.id_order in ("first-seen", "sorted"), f"unknown id_order {self.id_order!r}")
        require(self.format in ("tsv", "csv"), f"unknown format {self.format!r}")
        for r in self.ratios:
            require(r > 0, f"split ratios must be positive, got {self.ratios}")
        require(abs(sum(self.ratios) - 1.0) <= 1e-9, f"split ratios must sum to 1, got {self.ratios}")
        require(all(int(x) > 0 for x in self.dims), f"layer widths must be positive, got {self.dims}")
        if self.printed_attention:
            from .propagation import resolve_dims

            widths = resolve_dims(self.d, self.dims, self.layers)
            require(
                all(w == self.k for w in widths[:-1]),
                "printed attention form requires every layer input width to equal k",
            )
        return self

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


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


def _coerce(attr: str, raw: str):
    raw = raw.strip()
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
        raise ConfigError(f"{attr} expects a boolean, got {raw!r}")
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{attr} expects an integer, got {raw!r}")
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{attr} expects a number, got {raw!r}")
    return raw if raw else None


def parse_assignments(lines, source: str, comments: bool = True) -> dict:
    """`key = value` pairs -> attribute dict, rejecting unknown keys.

    With `comments`, a `#` starts a comment that runs to the end of the line.
    """
    out = {}
    for lineno, line in enumerate(lines, start=1):
        body = (line.split("#", 1)[0] if comments else line).strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`, got {line.strip()!r}")
        key, _, value = body.partition("=")
        key = key.strip()
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
        with open(path, encoding="utf-8") as fh:
            values.update(parse_assignments(fh, str(path)))
    if overrides:
        values.update(parse_assignments(overrides, "<override>", comments=False))
    return RunConfig(**values).validate()
