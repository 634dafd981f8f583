import numpy as np
import pytest

from sercap import data
from sercap.data import EventGrammar, dataset_stats, generate_split
from sercap.metrics import FluencyLexicons, has_fluency_error
from sercap.text import normalize


@pytest.fixture(scope="module")
def grammar():
    return EventGrammar(d_enc=64, seed=7)


class TestGrammar:
    def test_signatures_non_collinear(self, grammar):
        unit = grammar.signatures / np.linalg.norm(grammar.signatures, axis=1, keepdims=True)
        gram = np.abs(unit @ unit.T)
        np.fill_diagonal(gram, 0)
        assert gram.max() < 0.5

    def test_every_event_has_synonyms(self):
        for spec in data.EVENTS:
            assert len(spec.subjects) >= 2 or len(spec.verbs) >= 2
            assert len(spec.subjects) * len(spec.verbs) >= 2

    def test_realizations_vary(self, grammar):
        rng = np.random.default_rng(0)
        caps = {grammar.realize([0], rng) for _ in range(40)}
        assert len(caps) >= 4


class TestGenerateSplit:
    def test_same_seed_bitwise_identical(self, grammar):
        a = generate_split(grammar, seed=3, n_clips=8, refs_per_clip=5)
        b = generate_split(grammar, seed=3, n_clips=8, refs_per_clip=5)
        for x, y in zip(a, b):
            assert x.features.tobytes() == y.features.tobytes()
            assert x.captions == y.captions
            assert x.events == y.events

    def test_different_seed_differs(self, grammar):
        a = generate_split(grammar, seed=3, n_clips=8)
        b = generate_split(grammar, seed=4, n_clips=8)
        assert any(x.captions != y.captions for x, y in zip(a, b))

    def test_noise_free_single_event_exact_signature(self, grammar):
        clips = generate_split(grammar, seed=11, n_clips=30, noise_sigma=0.0)
        singles = [c for c in clips if len(c.events) == 1]
        assert singles
        names = [s.name for s in data.EVENTS]
        for clip in singles:
            sig = grammar.signatures[names.index(clip.events[0])]
            for row in clip.features:
                assert (
                    np.array_equal(row, sig) or np.array_equal(row, np.zeros_like(sig))
                )

    def test_shapes_and_defaults(self, grammar):
        clips = generate_split(grammar, seed=0, n_clips=4, refs_per_clip=5, T=31)
        for c in clips:
            assert c.features.shape == (31, 64)
            assert len(c.captions) == 5
            assert 1 <= len(c.events) <= 3

    def test_eval_refs_distinct_when_possible(self, grammar):
        clips = generate_split(grammar, seed=5, n_clips=20, refs_per_clip=5)
        distinct = sum(len(set(c.captions)) == 5 for c in clips)
        assert distinct >= 18  # near-duplicates allowed only as a fallback

    def test_captions_already_normalized(self, grammar):
        clips = generate_split(grammar, seed=6, n_clips=20, refs_per_clip=5)
        for c in clips:
            for cap in c.captions:
                assert normalize(cap) == cap

    def test_captions_fluency_clean(self, grammar):
        lex = FluencyLexicons.default()
        clips = generate_split(grammar, seed=8, n_clips=40, refs_per_clip=5)
        for c in clips:
            for cap in c.captions:
                assert not has_fluency_error(cap, lex), cap

    def test_validation(self, grammar):
        with pytest.raises(ValueError):
            generate_split(grammar, seed=0, n_clips=0)
        with pytest.raises(ValueError):
            generate_split(grammar, seed=0, n_clips=1, refs_per_clip=3)


class TestLearnability:
    def test_linear_probe_over_95_percent(self, grammar):
        """Mean-pooled noise-free features linearly predict the event set."""
        clips = generate_split(grammar, seed=13, n_clips=120, noise_sigma=0.0)
        names = [s.name for s in data.EVENTS]
        x = np.stack([c.features.mean(axis=0) for c in clips])
        y = np.zeros((len(clips), len(names)))
        for i, c in enumerate(clips):
            for e in c.events:
                y[i, names.index(e)] = 1.0
        w, *_ = np.linalg.lstsq(np.hstack([x, np.ones((len(x), 1))]), y, rcond=None)
        pred = (np.hstack([x, np.ones((len(x), 1))]) @ w) > 0.5
        accuracy = (pred == (y > 0.5)).mean()
        assert accuracy > 0.95


class TestStats:
    def test_single_clip_histogram(self, grammar):
        clips = generate_split(grammar, seed=2, n_clips=1)
        stats = dataset_stats(clips)
        assert stats["n_clips"] == 1
        assert sum(stats["caption_length_histogram"].values()) == 1

    def test_deterministic_per_seed(self, grammar):
        s1 = dataset_stats(generate_split(grammar, seed=9, n_clips=16))
        s2 = dataset_stats(generate_split(grammar, seed=9, n_clips=16))
        assert s1 == s2

    def test_vocab_size_matches_build_vocab(self, grammar):
        from sercap.text import build_vocab

        clips = generate_split(grammar, seed=10, n_clips=32)
        stats = dataset_stats(clips)
        vocab = build_vocab([c.captions[0] for c in clips], kind="word")
        assert stats["vocab_size"] == vocab.size - 4  # specials excluded

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dataset_stats([])


class TestFeatureContainer:
    def test_roundtrip(self, grammar, tmp_path):
        clips = generate_split(grammar, seed=14, n_clips=6, refs_per_clip=5)
        fpath, cpath = tmp_path / "f.bin", tmp_path / "c.jsonl"
        data.save_features(clips, fpath)
        data.save_captions(clips, cpath)
        loaded = data.load_clips(fpath, cpath)
        for a, b in zip(clips, loaded):
            assert a.clip_id == b.clip_id
            assert a.features.tobytes() == b.features.tobytes()
            assert a.captions == b.captions
            assert a.events == b.events

    def test_header_contents(self, grammar, tmp_path):
        clips = generate_split(grammar, seed=1, n_clips=3, T=31)
        fpath = tmp_path / "f.bin"
        data.save_features(clips, fpath)
        raw = fpath.read_bytes()
        assert raw[:4] == b"SCFB"
        import struct

        version, n, t, d = struct.unpack("<IIII", raw[4:20])
        assert (version, n, t, d) == (1, 3, 31, 64)
        assert len(raw) == 20 + 3 * 31 * 64 * 8

    def test_truncated_or_overlong_container_names_file(self, grammar, tmp_path):
        fpath = tmp_path / "f.bin"
        data.save_features(generate_split(grammar, seed=2, n_clips=2), fpath)
        raw = fpath.read_bytes()
        fpath.write_bytes(raw[:-1])
        with pytest.raises(ValueError, match="truncated features") as err:
            data.load_features(fpath)
        assert str(fpath) in str(err.value)
        fpath.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError, match="after the last array") as err:
            data.load_features(fpath)
        assert str(fpath) in str(err.value)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            data.load_features(p)
