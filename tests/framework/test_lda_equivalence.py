"""LDA.fit is bit-identical to the vectorised numpy Gibbs sweep.

``reference_fit`` below is the numpy formulation of the collapsed Gibbs
sampler that ``LDA.fit`` replaced with a plain-float sweep. It is kept
here, frozen, as the oracle: both consume the same random draws and do
the same IEEE operations in the same order, so the count arrays must be
equal element for element, not merely close.
"""

import hashlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework import LDA
from repro.workload.storm import train_storm_classifier

# sha256 of train_storm_classifier(seed=7): the bytes of topic_word_counts,
# doc_topic_counts and topic_counts, then the sorted topic->class map as
# JSON. Computed with the numpy sweep; any change to training shows here.
STORM_SEED7_DIGEST = (
    "3dc7f7a22e7e2a2231d82f9a571f3e214d26a29f550538d3a40046132accb78c")


def reference_fit(docs, vocab_size, n_topics, alpha, beta, n_iter, seed):
    """The numpy Gibbs sweep, one vector expression per token update."""
    rng = np.random.default_rng(seed)
    K, V = n_topics, vocab_size
    doc_ids, word_ids = [], []
    for d, doc in enumerate(docs):
        for w in doc:
            doc_ids.append(d)
            word_ids.append(w)
    doc_ids_arr = np.asarray(doc_ids, dtype=np.int32)
    word_ids_arr = np.asarray(word_ids, dtype=np.int32)
    n_tokens = len(word_ids_arr)
    z = rng.integers(0, K, size=n_tokens, dtype=np.int32)
    nwk = np.zeros((K, V), dtype=np.float64)
    ndk = np.zeros((len(docs), K), dtype=np.float64)
    nk = np.zeros(K, dtype=np.float64)
    np.add.at(nwk, (z, word_ids_arr), 1.0)
    np.add.at(ndk, (doc_ids_arr, z), 1.0)
    np.add.at(nk, z, 1.0)
    v_beta = V * beta
    for _ in range(n_iter):
        uniforms = rng.random(n_tokens)
        for i in range(n_tokens):
            w = word_ids_arr[i]
            d = doc_ids_arr[i]
            k_old = z[i]
            nwk[k_old, w] -= 1.0
            ndk[d, k_old] -= 1.0
            nk[k_old] -= 1.0
            probs = (nwk[:, w] + beta) / (nk + v_beta) * (ndk[d] + alpha)
            cumulative = np.cumsum(probs)
            k_new = int(np.searchsorted(cumulative,
                                        uniforms[i] * cumulative[-1]))
            z[i] = k_new
            nwk[k_new, w] += 1.0
            ndk[d, k_new] += 1.0
            nk[k_new] += 1.0
    return nwk, ndk, nk


def assert_identical(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.flags["C_CONTIGUOUS"] == expected.flags["C_CONTIGUOUS"]
    assert np.array_equal(actual, expected)


@st.composite
def corpora(draw):
    vocab_size = draw(st.integers(1, 30))
    docs = draw(st.lists(
        st.lists(st.integers(0, vocab_size - 1), max_size=15), max_size=12))
    return docs, vocab_size


@settings(max_examples=60, deadline=None)
@given(corpus=corpora(),
       n_topics=st.integers(2, 14),
       alpha=st.floats(0.01, 2.0),
       beta=st.floats(0.001, 1.0),
       n_iter=st.integers(0, 5),
       seed=st.integers(0, 2**32 - 1))
def test_fit_matches_numpy_sweep(corpus, n_topics, alpha, beta, n_iter, seed):
    docs, vocab_size = corpus
    model = LDA(n_topics=n_topics, alpha=alpha, beta=beta, n_iter=n_iter,
                seed=seed).fit(docs, vocab_size)
    nwk, ndk, nk = reference_fit(docs, vocab_size, n_topics, alpha, beta,
                                 n_iter, seed)
    assert_identical(model.topic_word_counts, nwk)
    assert_identical(model.doc_topic_counts, ndk)
    assert_identical(model.topic_counts, nk)


def test_storm_classifier_digest_is_pinned():
    classifier = train_storm_classifier(seed=7)
    model = classifier.model
    digest = hashlib.sha256()
    for counts in (model.topic_word_counts, model.doc_topic_counts,
                   model.topic_counts):
        digest.update(counts.tobytes())
    digest.update(json.dumps(sorted(classifier.topic_to_class.items()))
                  .encode())
    assert digest.hexdigest() == STORM_SEED7_DIGEST
