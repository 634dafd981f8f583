"""Experiment configuration.

One dataclass bundle per run, serialized as a flat ``section.key=value``
text file (comments start with ``#``).  File keys are short names
(``loss.lambda``, ``optim.wd``, ``decode.beam``) that map onto the
dataclass fields below; the command line's ``--set key=value`` overrides
go through the same code as a file's lines; ``to_manifest`` spells out every
effective value so two machines produce identical manifests for the same
config.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

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
class DecodeSettings:
    beam_size: int = 2
    min_len: int = 3
    max_len: int = 30
    stopwords_file: str = ""  # empty = shipped list

    def validate(self) -> None:
        if self.beam_size < 1 or not 1 <= self.min_len <= self.max_len:
            raise ValueError("invalid decode settings")


@dataclass
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    decode: DecodeSettings = field(default_factory=DecodeSettings)
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    tokenizer: str = "word"  # word | subword
    subword_vocab_size: int = 512
    n_seeds: int = 5
    batch_size: int = 64
    seed: int = 0
    sbert_agg: str = "mean"

    def validate(self) -> None:
        # re-run the sections' own checks, which fields set after
        # construction have bypassed
        self.loss.__post_init__()
        self.optim.__post_init__()
        if self.tokenizer not in ("word", "subword"):
            raise ValueError(f"tokenizer must be word or subword, got {self.tokenizer!r}")
        if self.batch_size < 1 or self.n_seeds < 1:
            raise ValueError("batch_size and n_seeds must be >= 1")
        if self.decode.max_len > self.model.max_len:
            raise ValueError("decode.max_len cannot exceed model.max_len")
        self.corpus.validate()
        self.decode.validate()
        # model.vocab_size is data-dependent; validated after vocab build


# file key -> (section attribute, dataclass field); section "" = top level
_KEYMAP: dict[str, tuple[str, str]] = {
    "model.d_model": ("model", "d_model"),
    "model.layers": ("model", "decoder_layers"),
    "model.heads": ("model", "heads"),
    "model.d_ff": ("model", "d_ff"),
    "model.dropout": ("model", "dropout"),
    "model.d_enc": ("model", "d_enc"),
    "model.d_sent": ("model", "d_sent"),
    "model.max_len": ("model", "max_len"),
    "model.sent_layers": ("model", "sent_layers"),
    "model.sent_heads": ("model", "sent_heads"),
    "model.sent_seed": ("model", "sent_seed"),
    "loss.label_smoothing": ("loss", "label_smoothing"),
    "loss.lambda": ("loss", "ser_weight"),
    "loss.beta": ("loss", "beta"),
    "loss.ser_kind": ("loss", "ser_kind"),
    "loss.ser_branch": ("loss", "ser_branch"),
    "optim.lr0": ("optim", "lr0"),
    "optim.beta1": ("optim", "beta1"),
    "optim.beta2": ("optim", "beta2"),
    "optim.eps": ("optim", "eps"),
    "optim.wd": ("optim", "weight_decay"),
    "optim.clip_norm": ("optim", "clip_norm"),
    "optim.epochs": ("optim", "epochs"),
    "decode.beam": ("decode", "beam_size"),
    "decode.min_len": ("decode", "min_len"),
    "decode.max_len": ("decode", "max_len"),
    "decode.stopwords_file": ("decode", "stopwords_file"),
    "corpus.grammar_seed": ("corpus", "grammar_seed"),
    "corpus.seed": ("corpus", "seed"),
    "corpus.n_train": ("corpus", "n_train"),
    "corpus.n_val": ("corpus", "n_val"),
    "corpus.n_test": ("corpus", "n_test"),
    "corpus.noise_sigma": ("corpus", "noise_sigma"),
    "corpus.frames": ("corpus", "frames"),
    "experiment.tokenizer": ("", "tokenizer"),
    "experiment.subword_vocab_size": ("", "subword_vocab_size"),
    "experiment.n_seeds": ("", "n_seeds"),
    "experiment.batch_size": ("", "batch_size"),
    "experiment.seed": ("", "seed"),
    "experiment.sbert_agg": ("", "sbert_agg"),
}


def _field_type(obj, name: str):
    for f in fields(obj):
        if f.name == name:
            return f.type
    raise KeyError(name)


def _coerce(value: str, typ) -> object:
    typ = str(typ)
    if "int" in typ:
        return int(value)
    if "float" in typ:
        return float(value)
    if "bool" in typ:
        return value.lower() in ("1", "true", "yes")
    return value


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
        section, attr = _KEYMAP[key]
        target = cfg if section == "" else getattr(cfg, section)
        try:
            setattr(target, attr, _coerce(value, _field_type(target, attr)))
        except ValueError as err:
            raise ConfigError(f"{source}: {key}: {err}") from err
    try:
        cfg.validate()
    except ValueError as err:
        raise ConfigError(f"invalid config: {err}") from err
    return cfg


def write_config(cfg: ExperimentConfig, path: str | Path) -> None:
    lines = []
    for key, (section, attr) in _KEYMAP.items():
        target = cfg if section == "" else getattr(cfg, section)
        lines.append(f"{key}={getattr(target, attr)}")
    Path(path).write_text("\n".join(lines) + "\n")


def to_manifest(cfg: ExperimentConfig) -> dict:
    """Every effective value, suitable for JSON with sorted keys."""
    out = {}
    for key, (section, attr) in _KEYMAP.items():
        target = cfg if section == "" else getattr(cfg, section)
        out[key] = getattr(target, attr)
    out["model.vocab_size"] = cfg.model.vocab_size
    return out


def from_manifest(manifest: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key, value in manifest.items():
        if key == "model.vocab_size":
            cfg.model.vocab_size = int(value)
            continue
        section, attr = _KEYMAP[key]
        target = cfg if section == "" else getattr(cfg, section)
        setattr(target, attr, value)
    return cfg


def save_manifest(cfg: ExperimentConfig, path: str | Path, extra: dict | None = None) -> None:
    manifest = to_manifest(cfg)
    if extra:
        manifest.update(extra)
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def clone(cfg: ExperimentConfig, **section_updates) -> ExperimentConfig:
    """Deep-copy an experiment config, replacing whole sections or fields."""
    return replace(
        cfg,
        model=replace(cfg.model, **section_updates.pop("model", {})),
        loss=replace(cfg.loss, **section_updates.pop("loss", {})),
        optim=replace(cfg.optim, **section_updates.pop("optim", {})),
        decode=replace(cfg.decode, **section_updates.pop("decode", {})),
        corpus=replace(cfg.corpus, **section_updates.pop("corpus", {})),
        **section_updates,
    )
