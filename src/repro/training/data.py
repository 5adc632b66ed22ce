"""Synthetic token streams for training and benchmarking.

The paper's throughput/memory results are data-independent, so a
synthetic corpus preserves everything the experiments measure.  Two
generators are provided: uniform random tokens (throughput work) and a
learnable Markov stream whose next token depends on the current one — a
tiny model's loss drops measurably within a few steps, which the
end-to-end training tests rely on.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..errors import ConfigError


class UniformTokens:
    """I.i.d. uniform tokens; maximal-entropy stream (loss stays ~log V)."""

    def __init__(self, vocab_size: int, seq_length: int, seed: int = 0):
        if vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2")
        self.vocab_size = vocab_size
        self.seq_length = seq_length
        self._rng = np.random.default_rng(seed)

    def batch(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Token ids and next-token targets, both ``(s, b)`` int64."""
        tokens = self._rng.integers(
            0, self.vocab_size, size=(self.seq_length + 1, batch_size), dtype=np.int64)
        return tokens[:-1], tokens[1:]

    def batches(self, batch_size: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        while True:
            yield self.batch(batch_size)


#: Dirichlet concentration of each transition row: well below 1, so a
#: row puts most of its mass on a few successors
MARKOV_CONCENTRATION = 0.05
#: Poisson mean of a packed document's length, in tokens
MEAN_DOC_LENGTH = 12


class MarkovTokens:
    """First-order Markov chain with a peaked transition matrix.

    Each row of the transition matrix concentrates most probability on a
    few successors, so the optimal cross-entropy is far below ``log V``
    and a small model visibly learns within tens of steps.
    """

    def __init__(self, vocab_size: int, seq_length: int, seed: int = 0):
        if vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2")
        self.vocab_size = vocab_size
        self.seq_length = seq_length
        self._rng = np.random.default_rng(seed)
        alpha = np.full(vocab_size, MARKOV_CONCENTRATION)
        self.transitions = self._rng.dirichlet(alpha, size=vocab_size)

    def _walk(self, length: int, batch_size: int) -> np.ndarray:
        out = np.empty((length, batch_size), dtype=np.int64)
        state = self._rng.integers(0, self.vocab_size, size=batch_size)
        for i in range(length):
            out[i] = state
            nxt = np.empty(batch_size, dtype=np.int64)
            for j, s in enumerate(state):
                nxt[j] = self._rng.choice(self.vocab_size, p=self.transitions[s])
            state = nxt
        return out

    def batch(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        tokens = self._walk(self.seq_length + 1, batch_size)
        return tokens[:-1], tokens[1:]

    def batches(self, batch_size: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        while True:
            yield self.batch(batch_size)

    def entropy_rate(self) -> float:
        """Mean per-token entropy of the chain — the loss floor (nats)."""
        row_entropy = -np.sum(
            self.transitions * np.log(self.transitions + 1e-12), axis=1)
        # Stationary distribution via power iteration.
        pi = np.full(self.vocab_size, 1.0 / self.vocab_size)
        for _ in range(200):
            pi = pi @ self.transitions
        return float(pi @ row_entropy)


class PackedDocuments:
    """Markov documents packed into fixed-length rows with EOS separators
    and loss masks.

    Mimics the pretraining data pipeline: variable-length documents are
    concatenated with an ``eos`` token between them; the tail of a row is
    padding, and the returned loss mask is 0.0 on padding targets so they
    do not contribute to the loss (see ``loss_mask`` in
    :func:`repro.tensor.functions.cross_entropy`).
    """

    def __init__(self, vocab_size: int, seq_length: int, seed: int = 0):
        if vocab_size < 3:
            raise ConfigError("vocab_size must be >= 3 (needs EOS + pad)")
        self.vocab_size = vocab_size
        self.seq_length = seq_length
        self.eos = vocab_size - 1
        self.pad = 0
        self._rng = np.random.default_rng(seed)
        self._chain = MarkovTokens(vocab_size - 1, seq_length, seed=seed + 1)

    def _document(self) -> np.ndarray:
        length = max(1, int(self._rng.poisson(MEAN_DOC_LENGTH)))
        tokens, _ = self._chain.batch(1)
        doc = tokens[:length, 0] % (self.vocab_size - 1)
        return np.concatenate([doc, [self.eos]])

    def batch(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, targets, loss_mask)``, each ``(seq_length, batch)``;
        the mask zeroes padding-target positions."""
        s = self.seq_length
        ids = np.full((s + 1, batch_size), self.pad, dtype=np.int64)
        real = np.zeros((s + 1, batch_size), dtype=bool)
        for j in range(batch_size):
            fill = 0
            while fill < s + 1:
                doc = self._document()
                take = min(len(doc), s + 1 - fill)
                ids[fill:fill + take, j] = doc[:take]
                real[fill:fill + take, j] = True
                fill += take
                if self._rng.random() < 0.3:   # leave some rows part-padded
                    break
        targets = ids[1:]
        mask = real[1:].astype(np.float64)
        return ids[:-1], targets, mask
