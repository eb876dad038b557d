"""Latent Dirichlet Allocation via collapsed Gibbs sampling.

The paper clusters 17k Linux tickets with LDA (Blei et al. 2003), sweeping
7-14 topics and settling on ten (Table 2). We implement the standard
collapsed Gibbs sampler (Griffiths & Steyvers 2004) from scratch:

    p(z_i = k | rest) ∝ (n_wk + β) / (n_k + Vβ) · (n_dk + α)

plus fold-in inference for classifying *new* tickets, per-topic top words
(the Table 2 output), UMass topic coherence (used by the topic-count
ablation), and held-out perplexity.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class LDA:
    """Collapsed-Gibbs LDA.

    Attributes (after :meth:`fit`):
        topic_word_counts: (K, V) token assignment counts.
        doc_topic_counts: (D, K) per-document topic counts.
        topic_counts: (K,) total tokens per topic.
    """

    def __init__(self, n_topics: int = 10, alpha: float = 0.5,
                 beta: float = 0.01, n_iter: int = 120, seed: int = 0):
        if n_topics < 2:
            raise ValueError("need at least two topics")
        self.n_topics = n_topics
        self.alpha = alpha
        self.beta = beta
        self.n_iter = n_iter
        self.seed = seed
        self.vocab_size = 0
        self.topic_word_counts: Optional[np.ndarray] = None
        self.doc_topic_counts: Optional[np.ndarray] = None
        self.topic_counts: Optional[np.ndarray] = None
        self._fitted = False

    # ------------------------------------------------------------------

    def fit(self, docs: Sequence[Sequence[int]], vocab_size: int) -> "LDA":
        """Run the Gibbs sampler over encoded documents."""
        rng = np.random.default_rng(self.seed)
        K, V = self.n_topics, vocab_size
        self.vocab_size = V
        n_docs = len(docs)

        # flatten for cache-friendly sweeps
        doc_ids: List[int] = []
        word_ids: List[int] = []
        for d, doc in enumerate(docs):
            for w in doc:
                doc_ids.append(d)
                word_ids.append(w)
        doc_ids_arr = np.asarray(doc_ids, dtype=np.int32)
        word_ids_arr = np.asarray(word_ids, dtype=np.int32)
        n_tokens = len(word_ids_arr)

        z_arr = rng.integers(0, K, size=n_tokens, dtype=np.int32)
        nwk_arr = np.zeros((K, V), dtype=np.float64)
        ndk_arr = np.zeros((n_docs, K), dtype=np.float64)
        nk_arr = np.zeros(K, dtype=np.float64)
        np.add.at(nwk_arr, (z_arr, word_ids_arr), 1.0)
        np.add.at(ndk_arr, (doc_ids_arr, z_arr), 1.0)
        np.add.at(nk_arr, z_arr, 1.0)

        # The sweep runs on Python floats: with K <= 14 topics, dispatching
        # ~15 numpy calls per token costs far more than the arithmetic.
        # Each weight is the same IEEE expression as the vectorised form
        # (n_wk+β)/(n_k+Vβ)·(n_dk+α), the running sum matches np.cumsum's
        # sequential accumulation, and bisect_left is
        # searchsorted(side="left"), so the counts are bit-identical.
        nwk = nwk_arr.T.tolist()  # one row of K counts per word
        ndk = ndk_arr.tolist()    # one row of K counts per document
        nk = nk_arr.tolist()
        z = z_arr.tolist()
        topics = range(K)
        cumulative = [0.0] * K
        alpha, beta = self.alpha, self.beta
        v_beta = V * beta
        for _ in range(self.n_iter):
            uniforms = rng.random(n_tokens).tolist()
            for i, w, d, u in zip(range(n_tokens), word_ids, doc_ids,
                                  uniforms):
                word_row = nwk[w]
                doc_row = ndk[d]
                k_old = z[i]
                word_row[k_old] -= 1.0
                doc_row[k_old] -= 1.0
                nk[k_old] -= 1.0
                total = 0.0
                for k in topics:
                    total += ((word_row[k] + beta) / (nk[k] + v_beta)
                              * (doc_row[k] + alpha))
                    cumulative[k] = total
                k_new = bisect_left(cumulative, u * total)
                z[i] = k_new
                word_row[k_new] += 1.0
                doc_row[k_new] += 1.0
                nk[k_new] += 1.0

        self.topic_word_counts = np.array(nwk, dtype=np.float64).reshape(
            V, K).T.copy()
        self.doc_topic_counts = np.array(ndk, dtype=np.float64).reshape(
            n_docs, K)
        self.topic_counts = np.array(nk, dtype=np.float64)
        self._fitted = True
        return self

    # ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("LDA model is not fitted")

    def topic_word_distribution(self) -> np.ndarray:
        """(K, V) matrix of p(word | topic)."""
        self._require_fitted()
        num = self.topic_word_counts + self.beta
        return num / num.sum(axis=1, keepdims=True)

    def doc_topic_distribution(self) -> np.ndarray:
        """(D, K) matrix of p(topic | doc) for the training corpus."""
        self._require_fitted()
        num = self.doc_topic_counts + self.alpha
        return num / num.sum(axis=1, keepdims=True)

    def top_words(self, topic: int, vocab: Sequence[str],
                  n: int = 20) -> List[str]:
        """The Table 2 output: most likely words of one topic."""
        self._require_fitted()
        order = np.argsort(-self.topic_word_counts[topic])
        return [vocab[i] for i in order[:n]]

    def infer(self, doc: Sequence[int], n_iter: int = 30,
              seed: int = 1) -> np.ndarray:
        """Fold-in Gibbs: topic distribution of an unseen document."""
        self._require_fitted()
        rng = np.random.default_rng(seed)
        doc_arr = np.asarray([w for w in doc if w < self.vocab_size],
                             dtype=np.int32)
        K = self.n_topics
        if doc_arr.size == 0:
            return np.full(K, 1.0 / K)
        z = rng.integers(0, K, size=doc_arr.size, dtype=np.int32)
        ndk = np.bincount(z, minlength=K).astype(np.float64)
        v_beta = self.vocab_size * self.beta
        phi_num = self.topic_word_counts + self.beta  # fixed during fold-in
        phi_den = self.topic_counts + v_beta
        for _ in range(n_iter):
            for i in range(doc_arr.size):
                w = doc_arr[i]
                ndk[z[i]] -= 1.0
                probs = phi_num[:, w] / phi_den * (ndk + self.alpha)
                cumulative = np.cumsum(probs)
                k_new = int(np.searchsorted(cumulative,
                                            rng.random() * cumulative[-1]))
                z[i] = k_new
                ndk[k_new] += 1.0
        dist = ndk + self.alpha
        return dist / dist.sum()

    def classify(self, doc: Sequence[int], n_iter: int = 30) -> int:
        """Most likely topic of an unseen document."""
        return int(np.argmax(self.infer(doc, n_iter=n_iter)))

    # ------------------------------------------------------------------
    # quality metrics
    # ------------------------------------------------------------------

    def coherence(self, docs: Sequence[Sequence[int]], top_n: int = 10) -> float:
        """Mean UMass coherence over topics (closer to 0 is better)."""
        self._require_fitted()
        doc_sets = [set(doc) for doc in docs if doc]
        doc_count: Dict[int, int] = {}
        for s in doc_sets:
            for w in s:
                doc_count[w] = doc_count.get(w, 0) + 1
        scores = []
        for k in range(self.n_topics):
            top = list(np.argsort(-self.topic_word_counts[k])[:top_n])
            score = 0.0
            pairs = 0
            for i in range(1, len(top)):
                for j in range(i):
                    wi, wj = int(top[i]), int(top[j])
                    co = sum(1 for s in doc_sets if wi in s and wj in s)
                    denom = doc_count.get(wj, 0)
                    if denom:
                        score += math.log((co + 1.0) / denom)
                        pairs += 1
            if pairs:
                scores.append(score / pairs)
        return float(np.mean(scores)) if scores else float("-inf")

    def perplexity(self, docs: Sequence[Sequence[int]]) -> float:
        """Held-out perplexity under fold-in topic mixtures."""
        self._require_fitted()
        phi = self.topic_word_distribution()
        log_likelihood = 0.0
        n_tokens = 0
        for doc in docs:
            doc = [w for w in doc if w < self.vocab_size]
            if not doc:
                continue
            theta = self.infer(doc)
            for w in doc:
                log_likelihood += math.log(float(theta @ phi[:, w]) + 1e-12)
            n_tokens += len(doc)
        if n_tokens == 0:
            return float("inf")
        return math.exp(-log_likelihood / n_tokens)


def sweep_topic_counts(docs: Sequence[Sequence[int]], vocab_size: int,
                       candidates: Sequence[int] = tuple(range(7, 15)),
                       n_iter: int = 60, seed: int = 0
                       ) -> List[Tuple[int, float]]:
    """The paper's 7..14 sweep; returns ``(k, coherence)`` per candidate."""
    results = []
    for k in candidates:
        model = LDA(n_topics=k, n_iter=n_iter, seed=seed).fit(docs, vocab_size)
        results.append((k, model.coherence(docs)))
    return results
