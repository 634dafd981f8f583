import string

import pytest
from hypothesis import given, strategies as st

from sercap import text
from sercap.text import BOS_ID, EOS_ID, UNK_ID, Vocabulary


class TestNormalize:
    def test_lowercase_and_punct(self):
        assert text.normalize("A Dog Barks!") == "a dog barks"

    def test_apostrophes_erased(self):
        assert text.normalize("it's loud, very loud.") == "its loud very loud"

    def test_empty(self):
        assert text.normalize("") == ""

    def test_whitespace_collapse(self):
        assert text.normalize("a   dog\t barks \n") == "a dog barks"

    @given(st.text(max_size=60))
    def test_idempotent(self, s):
        once = text.normalize(s)
        assert text.normalize(once) == once

    @given(st.text(alphabet=string.punctuation, min_size=1, max_size=20))
    def test_pure_punctuation_vanishes(self, s):
        # string.punctuation mixes P* and S* categories; P* must all go
        out = text.normalize(s)
        import unicodedata

        assert not any(unicodedata.category(c).startswith("P") for c in out)


@pytest.fixture
def word_vocab():
    return text.build_vocab(["a dog barks", "a man speaks", "a dog yaps"], kind="word")


class TestWordTokenizer:
    def test_framing(self, word_vocab):
        ids = text.word_tokenize("a dog barks", word_vocab)
        assert ids[0] == BOS_ID and ids[-1] == EOS_ID
        assert len(ids) == 5
        assert all(i != UNK_ID for i in ids)

    def test_oov_maps_to_unk(self, word_vocab):
        ids = text.word_tokenize("a zebra barks", word_vocab)
        assert ids[2] == UNK_ID

    def test_roundtrip(self, word_vocab):
        for s in ["a dog barks", "a man speaks a dog yaps"]:
            ids = text.word_tokenize(s, word_vocab)
            assert text.word_detokenize(ids, word_vocab) == s


class TestBuildVocab:
    def test_frequency_then_lexicographic(self):
        v = text.build_vocab(["a a b"], kind="word", min_count=1)
        assert v.id_to_token[4:] == ["a", "b"]

    def test_min_count_filters(self):
        v = text.build_vocab(["a a b"], kind="word", min_count=2)
        assert v.id_to_token[4:] == ["a"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            text.build_vocab([], kind="word")
        with pytest.raises(ValueError):
            text.build_vocab(["!!!"], kind="word")

    def test_shuffle_invariant(self):
        caps = ["a dog barks", "a man speaks loudly", "rain falls", "a dog yaps"]
        v1 = text.build_vocab(caps, kind="word")
        v2 = text.build_vocab(list(reversed(caps)), kind="word")
        assert v1.id_to_token == v2.id_to_token
        s1 = text.build_vocab(caps, kind="subword", target_size=64)
        s2 = text.build_vocab(list(reversed(caps)), kind="subword", target_size=64)
        assert s1.id_to_token == s2.id_to_token

    def test_specials_reserved(self, word_vocab):
        assert word_vocab.id_to_token[:4] == list(text.SPECIAL_TOKENS)
        assert word_vocab.size >= 5


class TestSubword:
    def test_whole_word_piece(self):
        v = text.build_vocab(["dog dog dog"], kind="subword", target_size=64)
        ids = text.subword_tokenize("dog", v)
        assert len(ids) == 3  # bos, dog, eos
        assert v.id_to_token[ids[1]] == "dog"

    def test_greedy_longest_match(self):
        v = Vocabulary(
            kind="subword",
            id_to_token=list(text.SPECIAL_TOKENS) + ["bark", "##ing", "b", "##a", "##r", "##k", "##i", "##n", "##g"],
        )
        ids = text.subword_tokenize("barking", v)
        pieces = [v.id_to_token[i] for i in ids[1:-1]]
        assert pieces == ["bark", "##ing"]

    def test_unsegmentable_char_to_unk(self):
        v = Vocabulary(kind="subword", id_to_token=list(text.SPECIAL_TOKENS) + ["a"])
        ids = text.subword_tokenize("ab", v)
        assert ids[1:-1] == [UNK_ID]

    def test_roundtrip_over_corpus(self):
        caps = [
            "a dog barks loudly",
            "a man speaks while a dog yaps",
            "rain falls and wind blows",
            "birds chirping in the trees",
        ]
        v = text.build_vocab(caps, kind="subword", target_size=128)
        for c in caps:
            ids = text.subword_tokenize(c, v)
            assert text.subword_detokenize(ids, v) == c

    @given(st.integers(0, 2**16))
    def test_roundtrip_random_sentences(self, seed):
        import random

        rng = random.Random(seed)
        words = ["dog", "barks", "man", "speaks", "rain", "falls", "a", "the"]
        caps = [" ".join(rng.choices(words, k=rng.randint(1, 6))) for _ in range(4)]
        v = text.build_vocab(caps, kind="subword", target_size=96)
        for c in caps:
            assert text.subword_detokenize(text.subword_tokenize(c, v), v) == c


class TestStopwords:
    def test_nonempty_lowercase(self):
        sw = text.load_stopwords()
        assert len(sw) > 100
        assert all(w == w.lower() for w in sw)

    def test_common_members(self):
        sw = text.load_stopwords()
        for w in ("a", "the", "and", "is", "while"):
            assert w in sw
