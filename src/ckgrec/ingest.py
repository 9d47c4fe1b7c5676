"""Input parsing, implicit-feedback preparation, and synthetic data.

Interaction files are plain TSV or CSV, one record per line:

    user<TAB>item<TAB>value[<TAB>timestamp]

where `value` is either a numeric rating or a named interaction type
("like", "favorite", ...).  Attribute triples come as TSV
`head<TAB>relation<TAB>tail` with '#' comment lines.  Malformed lines
are collected with their line numbers rather than aborting the whole
parse, unless strict mode is requested for an interaction file.  A
manifest holds `record_counts` in config syntax; `synth` writes one and
`verify_manifest` checks one.

The synthetic generator builds a latent-factor world: users and items
belong to factor blocks, positives are drawn from a softmax over factor
affinity blended with uniform noise, and each entity carries an
attribute naming its dominant factor.  Everything is deterministic
given the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .config import assignments, read_lines
from .errors import ConfigError, FormatError
from .rng import Rng
from .table import NO_TIME, Interactions

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(eq=False)
class Ratings:
    """Parsed interaction lines, before the implicit transform, as columns.

    `user[r]`, `item[r]` and `value[r]` index `user_tokens`,
    `item_tokens` and `values`; a value is a float rating or a named
    interaction type.  `timestamp[r]` is NO_TIME where the line has none.
    """

    user_tokens: list
    item_tokens: list
    values: list
    user: np.ndarray
    item: np.ndarray
    value: np.ndarray
    timestamp: np.ndarray

    def __len__(self) -> int:
        return len(self.user)


@dataclass(frozen=True)
class ParseIssue:
    line: int
    message: str
    raw: str


@dataclass
class ParseResult:
    records: Ratings
    issues: list[ParseIssue]
    digest: str  # sha256 of the bytes parsed


_SEPARATORS = {"tsv": "\t", "csv": ","}


def _parse_value(token: str) -> float | str:
    try:
        return float(token)
    except ValueError:
        return token


def parse_interactions(path, format: str = "tsv", strict: bool = False) -> ParseResult:
    """Parse an interaction file into Ratings plus an issue list.

    User, item and value tokens are interned as they are read, so each
    distinct value is converted once.  Blank lines are skipped.  In
    strict mode the first malformed line raises; otherwise issues
    accumulate in the result.  A file whose every non-blank line is
    malformed raises either way.  The result carries the sha256 of the
    bytes parsed (`config.read_lines`).
    """
    sep = _SEPARATORS.get(format)
    if sep is None:
        raise ConfigError(f"unknown interaction format {format!r} (expected tsv or csv)")

    users: dict[str, int] = {}
    items: dict[str, int] = {}
    values: dict[str, int] = {}
    user, item, value = [], [], []
    stamped, stamps = [], []  # rows that carry a timestamp, and their timestamps
    issues: list[ParseIssue] = []
    n_lines = 0
    lines, digest = read_lines(path, FormatError)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        n_lines += 1
        fields = [f.strip() for f in line.split(sep)]
        issue = None
        if len(fields) not in (3, 4):
            issue = f"expected 3 or 4 fields, got {len(fields)}"
        elif not fields[0] or not fields[1]:
            issue = "empty user or item id"
        elif not fields[2]:
            issue = "empty value field"
        else:
            if len(fields) == 4:
                try:
                    ts = int(fields[3])
                except ValueError:
                    issue = f"timestamp is not an integer: {fields[3]!r}"
                else:
                    if NO_TIME < ts <= _INT64_MAX:
                        stamped.append(len(user))
                        stamps.append(ts)
                    else:
                        issue = f"timestamp is out of the 64-bit range: {fields[3]!r}"
            if issue is None:
                user.append(users.setdefault(fields[0], len(users)))
                item.append(items.setdefault(fields[1], len(items)))
                value.append(values.setdefault(fields[2], len(values)))
                continue
        if strict:
            raise FormatError(f"{path}:{lineno}: {issue}")
        issues.append(ParseIssue(lineno, issue, line))

    if n_lines > 0 and not user:
        raise FormatError(f"{path}: no valid interaction rows among {n_lines} lines")
    timestamp = np.full(len(user), NO_TIME, dtype=np.int64)
    timestamp[stamped] = stamps
    user, item, value = (np.array(c, dtype=np.int64) for c in (user, item, value))
    ratings = Ratings(list(users), list(items), [_parse_value(t) for t in values], user, item, value, timestamp)
    return ParseResult(ratings, issues, digest)


def parse_attribute_triples(path):
    """Parse TSV `head<TAB>relation<TAB>tail`; '#' lines are comments.

    Duplicate triples are returned as-is; graph construction dedups them
    with a counter.  Returns (triples, issues, sha256 of the bytes parsed).
    """
    triples: list[tuple[str, str, str]] = []
    issues: list[ParseIssue] = []
    lines, digest = read_lines(path, FormatError)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) != 3 or not all(fields):
            issues.append(ParseIssue(lineno, f"expected 3 non-empty tab-separated fields, got {len(fields)}", line))
            continue
        triples.append((fields[0], fields[1], fields[2]))
    return triples, issues, digest


def to_implicit(ratings: Ratings, threshold: float = float("-inf")) -> Interactions:
    """Binarize ratings into an Interactions table.

    Numeric values >= threshold become positives of type "rated"; values
    below are dropped.  Non-numeric tokens pass through as named
    interaction types.  A kept row has exactly one type, one bit set in
    its word.  Never increases the record count.
    """
    names: dict[str, int] = {}
    type_of = np.full(len(ratings.values), -1, dtype=np.int64)
    for v, value in enumerate(ratings.values):
        if not isinstance(value, float):
            type_of[v] = names.setdefault(value, len(names))
        elif value >= threshold:
            type_of[v] = names.setdefault("rated", len(names))
    codes = type_of[ratings.value]
    keep = np.flatnonzero(codes >= 0)
    codes = codes[keep]
    types = np.zeros((len(keep), max(1, -(-len(names) // 64))), dtype=np.uint64)
    types[np.arange(len(keep)), codes >> 6] = np.uint64(1) << (codes & 63).astype(np.uint64)
    return Interactions(
        ratings.user_tokens, ratings.item_tokens, list(names),
        ratings.user[keep], ratings.item[keep], types, ratings.timestamp[keep],
    )


def merge_records(records: Interactions) -> Interactions:
    """One record per (user, item) pair, interaction types unioned.

    Splitting and filtering treat a user-item pair as a single
    interaction even when the file carries one line per fine-grained
    type, so a pair can never straddle the train/test boundary.
    """
    return records.merged()


def filter_min_interactions(records: Interactions, n: int) -> Interactions:
    """Drop every record of users with fewer than n records.  Applied once."""
    if n < 0:
        raise ConfigError(f"minimum interaction count must be >= 0, got {n}")
    if n == 0:
        return records
    counts = np.bincount(records.user, minlength=len(records.user_tokens))
    return records.take(counts[records.user] >= n)


def record_counts(records: Interactions) -> dict[str, int]:
    """The users, items and interactions of merged `records`: the counts a manifest announces."""
    return {"users": len(np.unique(records.user)), "items": len(np.unique(records.item)), "interactions": len(records)}


def verify_manifest(path, actual: dict[str, int]) -> str:
    """Check `record_counts` against the manifest at `path`, `key = value` lines in config syntax.

    Returns the sha256 of the bytes checked.
    """
    announced: dict[str, int] = {}
    lines, digest = read_lines(path, FormatError)
    for lineno, key, value in assignments(lines, str(path)):
        try:
            announced[key] = int(value)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: count is not an integer: {value!r}")
    if unknown := sorted(set(announced) - set(actual)):
        raise FormatError(f"{path}: unknown manifest keys: {', '.join(unknown)}")
    if wrong := [f"{key}: manifest says {n}, parsed {actual[key]}"
                 for key, n in sorted(announced.items()) if n != actual[key]]:
        raise FormatError(f"{path}: count mismatch — " + "; ".join(wrong))
    return digest


INPUT_FILES = ("interactions", "user_attrs", "item_attrs", "manifest")  # config keys that name input files


def input_digests(config: dict) -> dict[str, str]:
    """sha256 of every input file `config` names, keyed by its config key."""
    out = {}
    for name in INPUT_FILES:
        if config.get(name):
            digest = hashlib.sha256()
            with open(config[name], "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            out[name] = digest.hexdigest()
    return out


AFFINITY_SCALE = 6.0  # inverse temperature of the synthetic affinity softmax


@dataclass(frozen=True)
class SynthConfig:
    n_users: int
    n_items: int
    latent_dim: int
    interactions_per_user: int
    attr_entities_per_factor: int = 3
    noise: float = 0.0
    seed: int = 0

    def validate(self) -> "SynthConfig":
        for name in ("n_users", "n_items", "latent_dim", "interactions_per_user", "attr_entities_per_factor"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"synth {name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"synth seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.noise < 1.0:
            raise ConfigError(f"synth noise must lie in [0, 1), got {self.noise}")
        if self.latent_dim > min(self.n_users, self.n_items):
            raise ConfigError("synth latent_dim exceeds the user or item count")
        return self


@dataclass
class SynthTruth:
    """Ground-truth factor assignment behind a generated dataset."""

    user_factor: np.ndarray
    item_factor: np.ndarray


def _blocks(n: int, f: int) -> np.ndarray:
    # contiguous, balanced factor blocks: entity i belongs to factor i*f//n
    return (np.arange(n) * f) // n


def synth_generate(cfg: SynthConfig):
    """Generate (interactions, user_attrs, item_attrs, truth) from a seed.

    Factor affinity is 1 between same-factor user/item pairs and 0
    otherwise; sampling weights are softmax(AFFINITY_SCALE * affinity) blended
    with `noise` of uniform mass.  At noise 0 the off-block weights are
    renormalized away entirely, so every interaction stays inside the
    user's own factor block.
    """
    cfg.validate()
    rng = Rng(cfg.seed, (7001,))
    f = cfg.latent_dim
    user_factor = _blocks(cfg.n_users, f)
    item_factor = _blocks(cfg.n_items, f)

    picked, liked = [], []
    pick_rng = rng.split(1)
    type_rng = rng.split(2)
    for u in range(cfg.n_users):
        affinity = (item_factor == user_factor[u]).astype(np.float64)
        weights = np.exp(AFFINITY_SCALE * (affinity - 1.0))
        if cfg.noise == 0.0:
            weights = weights * (affinity > 0)  # exact block support
        weights = weights / weights.sum()
        if cfg.noise > 0.0:
            weights = (1.0 - cfg.noise) * weights + cfg.noise / cfg.n_items
            weights = weights / weights.sum()
        support = int(np.count_nonzero(weights))
        if cfg.interactions_per_user > support:
            raise ConfigError(
                f"interactions_per_user={cfg.interactions_per_user} exceeds the "
                f"{support} items reachable by user {u} at noise {cfg.noise}"
            )
        picked.append(pick_rng.choice(cfg.n_items, size=cfg.interactions_per_user, replace=False, p=weights))
        liked.append(type_rng.random(cfg.interactions_per_user) < 0.3)
    # every pick is a "view" (bit 0); about 30% are also a "like" (bit 1)
    interactions = Interactions(
        [f"u{u}" for u in range(cfg.n_users)],
        [f"i{i}" for i in range(cfg.n_items)],
        ["view", "like"],
        np.repeat(np.arange(cfg.n_users, dtype=np.int64), cfg.interactions_per_user),
        np.concatenate(picked).astype(np.int64),
        (1 + 2 * np.concatenate(liked)).astype(np.uint64).reshape(-1, 1),
    )

    attr_rng = rng.split(3)
    flip_rng = rng.split(4)

    def attr_links(prefix, factors, relation, tag):
        links = []
        for idx, fac in enumerate(factors.tolist()):
            j = int(attr_rng.integers(cfg.attr_entities_per_factor))
            links.append((f"{prefix}{idx}", relation, f"{tag}_f{fac}_{j}"))
            if cfg.noise > 0.0 and flip_rng.random() < cfg.noise:
                other = int(flip_rng.integers(f))
                jj = int(flip_rng.integers(cfg.attr_entities_per_factor))
                links.append((f"{prefix}{idx}", relation, f"{tag}_f{other}_{jj}"))
        return links

    user_attrs = attr_links("u", user_factor, "group", "g")
    item_attrs = attr_links("i", item_factor, "topic", "t")
    truth = SynthTruth(user_factor=user_factor, item_factor=item_factor)
    return interactions, user_attrs, item_attrs, truth


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


def write_attribute_triples(triples, path) -> None:
    with open_replacing(path, "w", encoding="utf-8", newline="\n") as fh:
        for h, r, t in triples:
            fh.write(f"{h}\t{r}\t{t}\n")


def write_records(records: Interactions, path, format: str = "tsv") -> None:
    """Serialize an Interactions table as an interaction file.

    Each row becomes one line per interaction type, in name order, with
    "rated" written as the rating 1.0 and the timestamp when there is one.
    """
    sep = _SEPARATORS.get(format)
    if sep is None:
        raise ConfigError(f"unknown interaction format {format!r} (expected tsv or csv)")
    sets, group = records.type_sets()
    values = [["1.0" if name == "rated" else name for name in sorted(types)] for types in sets]
    users, items = records.user_tokens, records.item_tokens
    columns = (records.user.tolist(), records.item.tolist(), group.tolist(), records.timestamp.tolist())
    lines = [
        f"{users[u]}{sep}{items[i]}{sep}{v}{'' if t == NO_TIME else sep + str(t)}\n"
        for u, i, g, t in zip(*columns)
        for v in values[g]
    ]
    with open_replacing(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
