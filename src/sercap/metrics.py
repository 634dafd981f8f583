"""Captioning evaluation metrics.

CIDEr-D is computed from scratch (TF-IDF weighted n-gram cosine with a
Gaussian length penalty, n=1..4, sigma=6, scaled by 10).  The sentence
similarity metric uses the frozen sentence encoder through a supplied
``embedder``: callable on one caption, and with a ``vectors`` method that
embeds a list of captions in one call (``harness.SentenceEmbedder``).
Fluency errors are rule-based over shipped word lists; FENSE divides the
similarity score by 10 when any rule fires.
SPICE is never computed here: per-item scores may be supplied from an
external file, otherwise SPIDEr is simply absent from the report.
"""
from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .text import load_wordlist, normalize

ARTICLES = frozenset({"a", "an", "the"})


@dataclass
class EvalItem:
    candidate: str
    references: list[str]

    def __post_init__(self):
        if not self.references:
            raise ValueError("an eval item needs at least one reference")
        if not normalize(self.candidate):
            raise ValueError("candidate is empty after normalization")


@dataclass
class FluencyLexicons:
    verbs: frozenset[str]
    adverbs: frozenset[str]
    conjunctions: frozenset[str]
    prepositions: frozenset[str]
    stopwords: frozenset[str]

    @classmethod
    def default(cls) -> "FluencyLexicons":
        return cls(
            verbs=load_wordlist("verbs"),
            adverbs=load_wordlist("adverbs"),
            conjunctions=load_wordlist("conjunctions"),
            prepositions=load_wordlist("prepositions"),
            stopwords=load_wordlist("stopwords"),
        )


@dataclass
class MetricReport:
    """Corpus-level scores plus per-item breakdowns.

    ``spice`` and ``spider`` stay None unless external SPICE scores were
    supplied; they are never fabricated.
    """

    cider_d: float | None = None
    spice: float | None = None
    spider: float | None = None
    sbert: float | None = None
    flu_err: float | None = None
    fense: float | None = None
    n_words: float | None = None  # integer count; fold-averaged reports may be fractional
    per_item: dict[str, list[float]] = field(default_factory=dict)

    def to_dict(self, decimals: int = 6) -> dict:
        def r(x):
            return None if x is None else round(float(x), decimals)

        return {
            "cider_d": r(self.cider_d),
            "spice": r(self.spice),
            "spider": r(self.spider),
            "sbert": r(self.sbert),
            "flu_err": r(self.flu_err),
            "fense": r(self.fense),
            "n_words": self.n_words,
            "per_item": {k: [r(x) for x in v] for k, v in self.per_item.items()},
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def _metric_tokens(text: str) -> list[str]:
    return normalize(text).split()


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def cider_d(items: list[EvalItem], n_max: int = 4, sigma: float = 6.0) -> tuple[float, list[float]]:
    """Consensus metric over TF-IDF n-gram vectors.

    Candidate counts are clipped by the reference counts in the cosine
    numerator; document frequency counts each item whose reference set
    contains the n-gram, floored at 1 inside the log.
    """
    if not items:
        raise ValueError("empty evaluation set")
    cands = [_metric_tokens(it.candidate) for it in items]
    refs = [[_metric_tokens(r) for r in it.references] for it in items]
    if any(not rl for rl in refs):
        raise ValueError("empty reference set")

    df: Counter = Counter()
    for rlist in refs:
        seen = set()
        for r in rlist:
            for n in range(1, n_max + 1):
                seen.update(_ngram_counts(r, n))
        df.update(seen)
    log_n = math.log(len(items))

    def tfidf(tokens: list[str]):
        vecs, norms = [], []
        for n in range(1, n_max + 1):
            vec = {}
            sq = 0.0
            for ng, tf in _ngram_counts(tokens, n).items():
                w = tf * (log_n - math.log(max(1.0, df[ng])))
                vec[ng] = w
                sq += w * w
            vecs.append(vec)
            norms.append(math.sqrt(sq))
        return vecs, norms

    per_item = []
    for c_tok, rlist in zip(cands, refs):
        cv, cn = tfidf(c_tok)
        acc = np.zeros(n_max)
        for r_tok in rlist:
            rv, rn = tfidf(r_tok)
            penalty = math.exp(-((len(c_tok) - len(r_tok)) ** 2) / (2.0 * sigma**2))
            for ni in range(n_max):
                if cn[ni] == 0.0 or rn[ni] == 0.0:
                    continue
                num = sum(
                    min(w, rv[ni][ng]) * rv[ni][ng]
                    for ng, w in cv[ni].items()
                    if ng in rv[ni]
                )
                acc[ni] += (num / (cn[ni] * rn[ni])) * penalty
        per_item.append(float((acc / len(rlist)).mean() * 10.0))
    return float(np.mean(per_item)), per_item


def spider(cider_per_item: list[float], spice_per_item: list[float]) -> tuple[float, list[float]]:
    """Arithmetic mean of CIDEr-D and SPICE, per item then corpus."""
    if len(cider_per_item) != len(spice_per_item):
        raise ValueError("SPICE scores do not align with the evaluation items")
    per_item = [(c + s) / 2.0 for c, s in zip(cider_per_item, spice_per_item)]
    return float(np.mean(per_item)), per_item


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def sbert_metric(items: list[EvalItem], embedder, agg: str = "mean") -> tuple[float, list[float]]:
    """Cosine similarity between candidate and reference sentence embeddings.

    ``embedder.vectors`` maps a list of captions to their fixed-size
    vectors; it is called once, with every candidate and reference of
    ``items``, so an encoder-backed embedder can run them as one batch.
    Per item the similarities against the references are aggregated by
    ``agg`` (mean by default, max available as a switch).
    """
    if agg not in ("mean", "max"):
        raise ValueError("agg must be 'mean' or 'max'")
    vectors = iter(embedder.vectors([t for it in items for t in (it.candidate, *it.references)]))
    per_item = []
    for it in items:
        c = next(vectors)
        sims = [_cosine(c, next(vectors)) for _ in it.references]
        per_item.append(float(max(sims) if agg == "max" else np.mean(sims)))
    return float(np.mean(per_item)), per_item


def fluency_errors(candidate: str, lexicons: FluencyLexicons | None = None) -> dict[str, bool]:
    """Rule-based fluency flags for one normalized caption.

    incomplete_sentence: under three words, or trailing connector/article.
    repeated_event: a content bigram (no stopwords) occurring twice.
    repeated_adverb: the same adverb twice within a four-token window.
    missing_verb: no token from the verb lexicon.
    missing_conjunction: two separated verb clauses with no conjunction
    between them (adjacent verbs count as one clause).
    """
    lex = lexicons or FluencyLexicons.default()
    words = _metric_tokens(candidate)

    incomplete = len(words) < 3 or (
        bool(words) and words[-1] in (lex.conjunctions | lex.prepositions | ARTICLES)
    )

    content_bigrams = Counter(
        (a, b)
        for a, b in zip(words, words[1:])
        if a not in lex.stopwords and b not in lex.stopwords
    )
    repeated_event = any(c >= 2 for c in content_bigrams.values())

    repeated_adverb = False
    positions: dict[str, list[int]] = {}
    for i, w in enumerate(words):
        if w in lex.adverbs:
            prior = positions.setdefault(w, [])
            if prior and i - prior[-1] < 4:
                repeated_adverb = True
            prior.append(i)

    verb_pos = [i for i, w in enumerate(words) if w in lex.verbs]
    missing_verb = not verb_pos

    missing_conjunction = False
    for i, j in zip(verb_pos, verb_pos[1:]):
        if j - i == 1:
            continue  # auxiliary + verb, one clause
        if not any(w in lex.conjunctions for w in words[i + 1 : j]):
            missing_conjunction = True
            break

    return {
        "incomplete_sentence": incomplete,
        "repeated_event": repeated_event,
        "repeated_adverb": repeated_adverb,
        "missing_verb": missing_verb,
        "missing_conjunction": missing_conjunction,
    }


def has_fluency_error(candidate: str, lexicons: FluencyLexicons | None = None) -> bool:
    return any(fluency_errors(candidate, lexicons).values())


def fense_compose(sbert_scores: list[float], flagged: list[bool]) -> tuple[float, list[float]]:
    """FENSE per item: the similarity score, divided by 10 when flagged."""
    if len(sbert_scores) != len(flagged):
        raise ValueError("scores and flags must align")
    per_item = [s / 10.0 if f else s for s, f in zip(sbert_scores, flagged)]
    return float(np.mean(per_item)), per_item


def unique_words(candidates: list[str]) -> int:
    """Number of distinct word tokens across all candidates."""
    seen: set[str] = set()
    for c in candidates:
        seen.update(_metric_tokens(c))
    return len(seen)


def evaluate_corpus(
    items: list[EvalItem],
    embedder=None,
    lexicons: FluencyLexicons | None = None,
    spice_per_item: list[float] | None = None,
    sbert_agg: str = "mean",
) -> MetricReport:
    """Full metric sweep over an evaluation set."""
    report = MetricReport()
    report.cider_d, cider_items = cider_d(items)
    report.per_item["cider_d"] = cider_items
    if spice_per_item is not None:
        report.spice = float(np.mean(spice_per_item))
        report.per_item["spice"] = list(spice_per_item)
        report.spider, spider_items = spider(cider_items, spice_per_item)
        report.per_item["spider"] = spider_items
    lex = lexicons or FluencyLexicons.default()
    flags = [has_fluency_error(it.candidate, lex) for it in items]
    report.flu_err = float(np.mean([1.0 if f else 0.0 for f in flags]))
    report.per_item["flu_err"] = [1.0 if f else 0.0 for f in flags]
    if embedder is not None:
        report.sbert, sbert_items = sbert_metric(items, embedder, agg=sbert_agg)
        report.per_item["sbert"] = sbert_items
        report.fense, fense_items = fense_compose(sbert_items, flags)
        report.per_item["fense"] = fense_items
    report.n_words = unique_words([it.candidate for it in items])
    return report


def cross_reference(
    items: list[EvalItem],
    embedder=None,
    lexicons: FluencyLexicons | None = None,
    n_refs: int = 5,
) -> MetricReport:
    """Leave-one-out human-agreement protocol.

    For fold i, reference i of every item becomes the candidate and the
    remaining references stay ground truth; the report is the mean over
    folds.  Items without exactly ``n_refs`` references are dropped with
    a warning.
    """
    usable = [it for it in items if len(it.references) == n_refs]
    skipped = len(items) - len(usable)
    if skipped:
        warnings.warn(f"cross_reference: skipped {skipped} items without {n_refs} references")
    if not usable:
        raise ValueError(f"cross_reference needs items with exactly {n_refs} references")

    folds = []
    for i in range(n_refs):
        fold_items = [
            EvalItem(
                candidate=it.references[i],
                references=[r for j, r in enumerate(it.references) if j != i],
            )
            for it in usable
        ]
        folds.append(evaluate_corpus(fold_items, embedder=embedder, lexicons=lexicons))

    def mean_over(attr):
        vals = [getattr(f, attr) for f in folds]
        return None if any(v is None for v in vals) else float(np.mean(vals))

    out = MetricReport(
        cider_d=mean_over("cider_d"),
        sbert=mean_over("sbert"),
        flu_err=mean_over("flu_err"),
        fense=mean_over("fense"),
        n_words=float(np.mean([f.n_words for f in folds])),
    )
    for key in folds[0].per_item:
        stacked = np.array([f.per_item[key] for f in folds])
        out.per_item[key] = [float(x) for x in stacked.mean(axis=0)]
    return out
