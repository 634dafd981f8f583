"""Deterministic synthetic corpus of (feature sequence, caption) pairs.

Each clip activates one to three events from a fixed inventory.  Every
event owns a fixed random feature signature; the clip's feature matrix
is the sum of active signatures over their frame spans plus Gaussian
noise.  Captions are realized from per-event templates with synonym
sets (near-duplicates included on purpose, so embedding-space structure
exists for the regression loss to exploit) and joined by temporal
connectors in span order.  Generated captions are already normalized
and fluency-clean.

Train clips carry one caption; evaluation clips carry five distinct
realizations, mirroring the one-train/five-eval reference convention.
"""
from __future__ import annotations

import json
import os
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .text import normalize

FEATURES_MAGIC = b"SCFB"
FEATURES_VERSION = 1


@dataclass(frozen=True)
class EventSpec:
    name: str
    subjects: tuple[str, ...]
    verbs: tuple[str, ...]


EVENTS: tuple[EventSpec, ...] = (
    EventSpec("dog-bark", ("a dog", "a puppy"), ("barks", "yaps", "woofs")),
    EventSpec("man-speak", ("a man", "a guy"), ("speaks", "talks")),
    EventSpec("woman-speak", ("a woman", "a lady"), ("speaks", "talks")),
    EventSpec("door-squeak", ("a door", "an old door"), ("squeaks", "creaks")),
    EventSpec("car-engine", ("a car", "an engine"), ("hums", "revs", "idles")),
    EventSpec("rain-fall", ("the rain", "a heavy rain"), ("falls", "patters", "pours")),
    EventSpec("bird-sing", ("a bird", "a small bird"), ("sings", "chirps", "tweets")),
    EventSpec("cat-meow", ("a cat", "a kitten"), ("meows", "purrs")),
    EventSpec("baby-cry", ("a baby", "an infant"), ("cries", "wails")),
    EventSpec("clock-tick", ("a clock", "an old clock"), ("ticks", "chimes")),
    EventSpec("horse-trot", ("a horse", "a pony"), ("trots", "clops", "neighs")),
    EventSpec("wind-blow", ("the wind", "a strong wind"), ("blows", "gusts", "howls")),
)

ADVERBS = ("loudly", "softly", "quietly", "faintly", "steadily")
CONNECTORS = ("and", "while", "then")
ADVERB_PROB = 0.35


@dataclass
class CaptionedClip:
    clip_id: str
    features: np.ndarray  # (T, d_enc)
    captions: list[str]
    events: list[str]  # hidden ground truth


class EventGrammar:
    """Event inventory plus fixed feature signatures."""

    def __init__(self, d_enc: int = 64, seed: int = 7, amplitude: float = 3.0):
        self.d_enc = d_enc
        self.amplitude = amplitude
        rng = np.random.default_rng(seed)
        raw = rng.normal(0, 1, (len(EVENTS), d_enc))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        self.signatures = raw * amplitude
        self._check_non_collinear()

    def _check_non_collinear(self) -> None:
        unit = self.signatures / np.linalg.norm(self.signatures, axis=1, keepdims=True)
        gram = np.abs(unit @ unit.T)
        np.fill_diagonal(gram, 0.0)
        if gram.max() > 0.99:
            raise ValueError("event signatures are nearly collinear; use another seed")

    @property
    def n_events(self) -> int:
        return len(EVENTS)

    def realize(self, event_ids: list[int], rng: np.random.Generator) -> str:
        """One caption describing the given events, in order."""
        parts = []
        used_adverbs: set[str] = set()
        for eid in event_ids:
            spec = EVENTS[eid]
            part = f"{spec.subjects[rng.integers(len(spec.subjects))]} " \
                   f"{spec.verbs[rng.integers(len(spec.verbs))]}"
            free = [a for a in ADVERBS if a not in used_adverbs]
            if free and rng.random() < ADVERB_PROB:
                adverb = free[rng.integers(len(free))]
                used_adverbs.add(adverb)
                part += f" {adverb}"
            parts.append(part)
        caption = parts[0]
        for part in parts[1:]:
            caption += f" {CONNECTORS[rng.integers(len(CONNECTORS))]} {part}"
        return caption


def generate_split(
    grammar: EventGrammar,
    seed: int,
    n_clips: int,
    refs_per_clip: int = 1,
    noise_sigma: float = 0.5,
    T: int = 31,
    prefix: str = "clip",
) -> list[CaptionedClip]:
    """Deterministic corpus: same seed, same bytes."""
    if n_clips < 1:
        raise ValueError("n_clips must be >= 1")
    if refs_per_clip not in (1, 5):
        raise ValueError("refs_per_clip must be 1 (train) or 5 (eval)")
    rng = np.random.default_rng([seed, grammar.n_events, T])
    clips = []
    for i in range(n_clips):
        n_events = int(rng.integers(1, 4))
        event_ids = sorted(rng.choice(grammar.n_events, size=n_events, replace=False).tolist())
        starts = rng.integers(0, max(1, T - 8), size=n_events)
        order = np.argsort(starts, kind="stable")
        event_ids = [event_ids[j] for j in order]
        starts = [int(starts[j]) for j in order]

        features = np.zeros((T, grammar.d_enc))
        for eid, start in zip(event_ids, starts):
            length = int(rng.integers(8, T - start + 1))
            features[start : start + length] += grammar.signatures[eid]
        if noise_sigma > 0:
            features += rng.normal(0, noise_sigma, features.shape)

        captions: list[str] = []
        attempts = 0
        while len(captions) < refs_per_clip:
            cap = grammar.realize(event_ids, rng)
            attempts += 1
            if cap not in captions or attempts > 50:
                captions.append(cap)
        clips.append(
            CaptionedClip(
                clip_id=f"{prefix}{i:05d}",
                features=features,
                captions=captions,
                events=[EVENTS[e].name for e in event_ids],
            )
        )
    return clips


def dataset_stats(clips: list[CaptionedClip]) -> dict:
    """Vocabulary size, caption length histogram, event frequencies."""
    if not clips:
        raise ValueError("empty corpus")
    words = Counter()
    lengths = Counter()
    events = Counter()
    for clip in clips:
        for cap in clip.captions:
            toks = cap.split()
            words.update(toks)
            lengths[len(toks)] += 1
        events.update(clip.events)
    return {
        "n_clips": len(clips),
        "vocab_size": len(words),
        "caption_length_histogram": {str(k): lengths[k] for k in sorted(lengths)},
        "event_frequency": dict(sorted(events.items())),
    }


# ---------------------------------------------------------------------------
# on-disk formats: flat binary feature container + captions JSON lines
# ---------------------------------------------------------------------------


def save_features(clips: list[CaptionedClip], path: str | Path) -> None:
    """Header: magic, version, n_clips, T, d_enc (u32 LE); then float64 LE."""
    t, d = clips[0].features.shape
    with Path(path).open("wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(struct.pack("<III I", FEATURES_VERSION, len(clips), t, d))
        for clip in clips:
            if clip.features.shape != (t, d):
                raise ValueError("all clips in a container must share (T, d_enc)")
            fh.write(clip.features.astype("<f8").tobytes())


def read_exact(fh, n: int, path: str | Path, what: str) -> bytes:
    """The next ``n`` bytes of a container; a short read raises a ValueError
    that names the file and ``what`` was being read."""
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"{path}: truncated {what}: expected {n} bytes, got {len(buf)}")
    return buf


def expect_end(fh, path: str | Path) -> None:
    """Raise a ValueError naming the file if bytes follow the last array."""
    extra = os.fstat(fh.fileno()).st_size - fh.tell()
    if extra:
        raise ValueError(f"{path}: {extra} unexpected bytes after the last array")


def load_features(path: str | Path) -> np.ndarray:
    with Path(path).open("rb") as fh:
        magic = fh.read(4)
        if magic != FEATURES_MAGIC:
            raise ValueError(f"{path}: not a feature container")
        version, n, t, d = struct.unpack("<III I", read_exact(fh, 16, path, "header"))
        if version != FEATURES_VERSION:
            raise ValueError(f"unsupported feature container version {version}")
        data = np.frombuffer(read_exact(fh, n * t * d * 8, path, "features"), dtype="<f8")
        expect_end(fh, path)
    return data.reshape(n, t, d).copy()


def save_captions(clips: list[CaptionedClip], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for clip in clips:
            fh.write(json.dumps(
                {"id": clip.clip_id, "captions": clip.captions, "events": clip.events},
                sort_keys=True,
            ) + "\n")


def load_clips(features_path: str | Path, captions_path: str | Path) -> list[CaptionedClip]:
    features = load_features(features_path)
    records = [json.loads(line) for line in Path(captions_path).read_text().splitlines() if line]
    if len(records) != features.shape[0]:
        raise ValueError("caption records do not align with the feature container")
    return [
        CaptionedClip(r["id"], features[i], list(r["captions"]), list(r.get("events", [])))
        for i, r in enumerate(records)
    ]
