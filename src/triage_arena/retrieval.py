"""Minimal retrieval layer: chunking, embedding, exact top-k cosine search.

Tokens are whitespace-delimited words. The index is an exact cosine
scan, never an approximate structure; corpora here are small and
determinism matters more than speed. Two embedder backends exist: a
deterministic hashing embedder for tests and offline runs, and a client
for a remote JSON embedding endpoint. Both return a 1-D float array.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .model import TransportError

__all__ = [
    "DocumentChunk",
    "RetrievalResult",
    "Embedder",
    "HashingEmbedder",
    "RemoteEmbedder",
    "RemoteEmbedderError",
    "VectorIndex",
    "chunk_document",
    "index_corpus",
    "retrieve",
    "load_corpus_dir",
]

DEFAULT_CHUNK_SIZE = 512
DEFAULT_OVERLAP = 64
DEFAULT_DIM = 768
PAGE_TOKEN_ESTIMATE = 350  # used when a document has no form-feed page breaks


@dataclass(frozen=True)
class DocumentChunk:
    doc_id: str
    page_hint: int
    text: str
    ordinal: int


@dataclass(frozen=True)
class RetrievalResult:
    chunks: tuple[tuple[DocumentChunk, float], ...]
    query_text: str
    k: int

    def __post_init__(self):
        scores = [s for _, s in self.chunks]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("retrieval scores must be nonincreasing")
        if len(self.chunks) > self.k:
            raise ValueError("more chunks than k")

    @property
    def page_hints(self) -> list[int]:
        return [c.page_hint for c, _ in self.chunks]

    def to_json(self) -> dict:
        return {
            "query": self.query_text,
            "k": self.k,
            "pages": self.page_hints,
            "chunks": [
                {"doc_id": c.doc_id, "ordinal": c.ordinal, "score": s}
                for c, s in self.chunks
            ],
        }


def chunk_document(
    text: str,
    doc_id: str = "doc",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = DEFAULT_OVERLAP,
) -> list[DocumentChunk]:
    """Sliding-window chunks of whitespace tokens with the given overlap.

    Stride is chunk_size - overlap; the final partial chunk is kept.
    Page hints come from form-feed breaks when present, otherwise from a
    fixed tokens-per-page estimate.
    """
    if not chunk_size > overlap >= 0:
        raise ValueError("require chunk_size > overlap >= 0")
    tokens = text.split()
    if not tokens:
        return []

    # Map token index -> page, from form feeds if the document has them.
    # Form feeds are whitespace, so splitting on them first and then on
    # general whitespace yields the same token sequence as text.split().
    if "\f" in text:
        page_of_token = []
        for page, section in enumerate(text.split("\f")):
            page_of_token.extend([page] * len(section.split()))
    else:
        page_of_token = [i // PAGE_TOKEN_ESTIMATE for i in range(len(tokens))]

    stride = chunk_size - overlap
    chunks = []
    start = 0
    ordinal = 0
    while start < len(tokens):
        window = tokens[start : start + chunk_size]
        chunks.append(
            DocumentChunk(
                doc_id=doc_id,
                page_hint=page_of_token[start],
                text=" ".join(window),
                ordinal=ordinal,
            )
        )
        if start + chunk_size >= len(tokens):
            break
        start += stride
        ordinal += 1
    return chunks


class Embedder(Protocol):
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


def _stable_bucket(token: str, dim: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dim


class HashingEmbedder:
    """Deterministic test embedder: token unigrams and bigrams hashed into
    a fixed-dimension count vector, L2-normalized."""

    def __init__(self, dim: int = DEFAULT_DIM):
        self.dim = dim
        self.calls = 0
        # Unigram buckets, bounded by the vocabulary. Bigrams are hashed
        # per occurrence: their number grows with the square of it.
        self._unigram_buckets: dict[str, int] = {}

    def embed(self, text: str) -> np.ndarray:
        self.calls += 1
        dim = self.dim
        memo = self._unigram_buckets
        tokens = text.lower().split()
        for tok in set(tokens):
            if tok not in memo:
                memo[tok] = _stable_bucket(tok, dim)
        buckets = [memo[tok] for tok in tokens]
        blake2b, from_bytes = hashlib.blake2b, int.from_bytes
        buckets += [
            from_bytes(blake2b(f"{a} {b}".encode("utf-8"), digest_size=8).digest(), "big") % dim
            for a, b in zip(tokens, tokens[1:])
        ]
        # Integer counts: the sum of squares is exact in any order, and
        # sqrt and / round correctly, so the vector is the same however
        # it is summed.
        vec = np.bincount(np.array(buckets, dtype=np.intp), minlength=dim).astype(float)
        norm = math.sqrt(vec @ vec)
        if norm > 0:
            vec /= norm
        return vec


class RemoteEmbedderError(TransportError):
    pass


class RemoteEmbedder:
    """Client for a JSON embedding endpoint (model name configurable).

    POSTs {"model": ..., "input": [text]} and reads
    response["data"][0]["embedding"]. Retries transport errors, 429 and
    5xx responses up to the retry budget.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        dim: int = DEFAULT_DIM,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.5,
    ):
        from .transport import JsonEndpoint  # loaded only where a transport is used

        self.endpoint = endpoint
        self.model = model
        self.dim = dim
        self._transport = JsonEndpoint(
            endpoint, timeout=timeout, retries=retries, backoff=backoff, error=RemoteEmbedderError
        )

    def embed(self, text: str) -> np.ndarray:
        body = self._transport.post({"model": self.model, "input": [text]})
        try:
            vec = np.array([float(v) for v in body["data"][0]["embedding"]])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise RemoteEmbedderError(f"malformed embedding response body: {exc!r}") from exc
        if len(vec) != self.dim:
            raise RemoteEmbedderError(f"embedding dim {len(vec)} != configured {self.dim}")
        return vec


class VectorIndex:
    """Chunks and their (N, dim) embedding matrix, read-only once built.

    The row norms are computed here, once, so that each query is one
    matrix-vector product against stored arrays.
    """

    def __init__(self, dim: int, chunks: Sequence[DocumentChunk] = (), rows: Sequence = ()):
        self.dim = dim
        self.chunks: tuple[DocumentChunk, ...] = tuple(chunks)
        # A float array is taken as is, not copied, and frozen below.
        self.matrix = np.asarray(rows, dtype=float).reshape(len(self.chunks), dim)
        self.norms = np.linalg.norm(self.matrix, axis=1)
        self.matrix.flags.writeable = False
        self.norms.flags.writeable = False

    def __len__(self) -> int:
        return len(self.chunks)


def index_corpus(chunks: list[DocumentChunk], embedder: Embedder) -> VectorIndex:
    """Embed every chunk into a cosine index.

    The first chunk whose embedding raises stops the build with a
    TransportError naming that chunk, so a dead endpoint costs one
    chunk's retries, not every chunk's. Vectors of the wrong dimension
    are reported together, per chunk with their doc ids.
    """
    matrix = np.empty((len(chunks), embedder.dim))
    mismatches = []
    for i, chunk in enumerate(chunks):
        try:
            vec = embedder.embed(chunk.text)
        except Exception as exc:
            raise TransportError(f"embedding {chunk.doc_id}#{chunk.ordinal} failed: {exc}") from exc
        if len(vec) != embedder.dim:
            mismatches.append(f"{chunk.doc_id}#{chunk.ordinal}: dim {len(vec)} != {embedder.dim}")
            continue
        matrix[i] = vec
    if mismatches:
        raise RuntimeError("embedding dimension mismatch: " + "; ".join(mismatches))
    return VectorIndex(embedder.dim, chunks, matrix)


SCORE_DECIMALS = 12


def retrieve(index: VectorIndex, query: str, embedder: Embedder, k: int = 5) -> RetrievalResult:
    """Exact top-k cosine retrieval with a deterministic tie-break.

    Scores every chunk (no approximate shortcuts). Scores are quantized
    to SCORE_DECIMALS places so that mathematically tied chunks stay
    tied regardless of float summation order, then ties are broken by
    (doc_id, ordinal).
    """
    if len(index) == 0:
        raise ValueError("cannot retrieve from an empty index")
    if k < 1:
        raise ValueError("k must be at least 1")
    qvec = np.asarray(embedder.embed(query), dtype=float)
    qnorm = float(np.linalg.norm(qvec))
    dots = index.matrix @ qvec
    denom = index.norms * qnorm
    scores = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
    scores = np.round(scores, SCORE_DECIMALS).tolist()
    order = sorted(
        range(len(index)),
        key=lambda i: (-scores[i], index.chunks[i].doc_id, index.chunks[i].ordinal),
    )
    top = order[:k]
    return RetrievalResult(
        chunks=tuple((index.chunks[i], scores[i]) for i in top),
        query_text=query,
        k=k,
    )


def load_corpus_dir(
    path: str | Path,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = DEFAULT_OVERLAP,
) -> list[DocumentChunk]:
    """Chunk every .txt file in a directory, sorted by filename."""
    chunks = []
    for file in sorted(Path(path).glob("*.txt")):
        text = file.read_text(encoding="utf-8")
        chunks.extend(chunk_document(text, doc_id=file.stem, chunk_size=chunk_size, overlap=overlap))
    return chunks
