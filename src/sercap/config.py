"""Experiment configuration.

One dataclass bundle per run, serialized as a flat ``section.key=value``
text file (comments start with ``#``).  The dataclass fields below are the
only list of what can be configured: a field's file key is
``section.field`` (``experiment.field`` at the top level), four fields
have shorter spellings (``model.layers``, ``loss.lambda``, ``optim.wd``,
``decode.beam``), and one is not a key at all (``decode.stopwords`` is
the shipped list).  The captioner's vocabulary size is not part of the
config: it comes from the vocabulary the run builds.
``apply_settings`` is the one place a ``key=value`` is applied: a file's
lines, ``--set`` overrides and a checkpoint header's config all go
through it.  ``to_manifest`` spells out every effective value so two
machines produce identical manifests for the same config.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

from .decoding import DecodeConfig
from .losses import LossConfig
from .model import ModelConfig
from .optim import OptimConfig


@dataclass
class CorpusConfig:
    grammar_seed: int = 7
    seed: int = 0
    n_train: int = 512
    n_val: int = 64
    n_test: int = 64
    # noise high enough that clips carry a memorizable fingerprint; the
    # overfitting-vs-regularization experiments depend on it
    noise_sigma: float = 2.0
    frames: int = 31  # T

    def validate(self) -> None:
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ValueError("split sizes must be >= 1")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    tokenizer: str = "word"  # word | subword
    subword_vocab_size: int = 512
    n_seeds: int = 5
    batch_size: int = 64
    seed: int = 0
    sbert_agg: str = "mean"

    def validate(self) -> None:
        for section in (self.model, self.loss, self.optim, self.decode, self.corpus):
            section.validate()
        if self.tokenizer not in ("word", "subword"):
            raise ValueError(f"tokenizer must be word or subword, got {self.tokenizer!r}")
        if self.batch_size < 1 or self.n_seeds < 1:
            raise ValueError("batch_size and n_seeds must be >= 1")
        if self.decode.max_len > self.model.max_len:
            raise ValueError("decode.max_len cannot exceed model.max_len")


# fields whose file key is spelled differently, and fields that are not keys
_SPELLING = {"decoder_layers": "layers", "ser_weight": "lambda", "weight_decay": "wd",
             "beam_size": "beam"}
_NOT_KEYS = {"decode.stopwords"}


def _derive_keymap() -> dict[str, tuple[str, str, type]]:
    """File key -> (section attribute, dataclass field, field type), from
    the fields of ``ExperimentConfig`` and its sections; section "" is the
    top level."""
    keymap = {}
    hints = get_type_hints(ExperimentConfig)
    for f in fields(ExperimentConfig):
        section = hints[f.name]
        if not is_dataclass(section):
            keymap[f"experiment.{f.name}"] = ("", f.name, section)
            continue
        section_hints = get_type_hints(section)
        for g in fields(section):
            if f"{f.name}.{g.name}" not in _NOT_KEYS:
                keymap[f"{f.name}.{_SPELLING.get(g.name, g.name)}"] = (f.name, g.name, section_hints[g.name])
    return keymap


_KEYMAP = _derive_keymap()


class ConfigError(ValueError):
    """A config line or ``--set`` override that cannot be applied."""


def parse_config(path: str | Path | None = None, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Defaults, then ``path``'s lines, then ``overrides`` (``key=value``
    strings, as given to ``--set``); validated once at the end."""
    entries = []
    if path is not None:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            if raw.strip() and not raw.strip().startswith("#"):
                entries.append((f"{path}:{lineno}", raw))
    entries += [("--set", raw) for raw in overrides]
    return apply_settings(ExperimentConfig(), entries)


def apply_settings(cfg: ExperimentConfig, entries: Iterable[tuple[str, str]],
                   prefix: str = "") -> ExperimentConfig:
    """Apply ``(source, "key=value")`` entries to ``cfg`` in order, then
    validate it.  With ``prefix``, only keys starting with it are accepted."""
    for source, raw in entries:
        if "=" not in raw:
            raise ConfigError(f"{source}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in raw.split("=", 1))
        if key not in _KEYMAP:
            raise ConfigError(f"{source}: unknown config key {key!r}")
        if not key.startswith(prefix):
            raise ConfigError(f"{source}: only {prefix}* keys can be set here, got {key!r}")
        section, attr, typ = _KEYMAP[key]
        target = cfg if section == "" else getattr(cfg, section)
        try:
            setattr(target, attr, typ(value))  # every key is an int, float or str
        except ValueError as err:
            raise ConfigError(f"{source}: {key}: {err}") from err
    try:
        cfg.validate()
    except ValueError as err:
        raise ConfigError(f"invalid config: {err}") from err
    return cfg


def to_manifest(cfg: ExperimentConfig) -> dict:
    """Every effective value, suitable for JSON with sorted keys."""
    out = {}
    for key, (section, attr, _) in _KEYMAP.items():
        target = cfg if section == "" else getattr(cfg, section)
        out[key] = getattr(target, attr)
    return out


def from_manifest(manifest: dict) -> ExperimentConfig:
    """The config a checkpoint header records, coerced and validated as a
    config file's lines are.  A key this version cannot apply raises
    ``ConfigError`` naming it."""
    # two retired entries of older headers are skipped: the vocabulary
    # size, which the header's vocabulary gives, and an empty stopwords
    # file, which meant the shipped list, the only one now
    entries = [("checkpoint", f"{key}={value}") for key, value in manifest.items()
               if key != "model.vocab_size" and not (key == "decode.stopwords_file" and value == "")]
    return apply_settings(ExperimentConfig(), entries)


def save_manifest(cfg: ExperimentConfig, path: str | Path, extra: dict | None = None) -> None:
    manifest = to_manifest(cfg)
    if extra:
        manifest.update(extra)
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def clone(cfg: ExperimentConfig, **section_updates) -> ExperimentConfig:
    """Deep-copy an experiment config, replacing whole sections or fields."""
    sections = {f.name: replace(getattr(cfg, f.name), **section_updates.pop(f.name, {}))
                for f in fields(cfg) if is_dataclass(getattr(cfg, f.name))}
    return replace(cfg, **sections, **section_updates)
