"""Minimal retrieval layer: chunking, embedding, exact top-k cosine search.

Tokens are whitespace-delimited words. The index is an exact cosine
scan, never an approximate structure; corpora here are small and
determinism matters more than speed. Two embedder backends exist: a
deterministic hashing embedder for tests and offline runs, and a client
for a remote JSON embedding endpoint. Both return a 1-D float array; the
index takes its dimension from the first one it is given.

Documents are chunked in windows of CHUNK_SIZE tokens that overlap by
OVERLAP, and `retrieve` returns the TOP_K best chunks. These are fixed
settings, read when each function runs.
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

CHUNK_SIZE = 512
OVERLAP = 64
TOP_K = 5
DEFAULT_DIM = 768  # buckets of the hashing embedder
EMBED_TIMEOUT = 30.0  # seconds per embedding request
PAGE_TOKEN_ESTIMATE = 350  # used when a document has no form-feed page breaks
# rows per block of VectorIndex's norms, 768 KB of temporary product at
# DEFAULT_DIM; at 1,000 rows the blocks take about 0.2 ms more than one call
_NORM_ROWS = 128


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


def chunk_document(text: str, doc_id: str = "doc") -> list[DocumentChunk]:
    """Sliding-window chunks of CHUNK_SIZE whitespace tokens.

    Stride is CHUNK_SIZE - OVERLAP; the final partial chunk is kept.
    Page hints come from form-feed breaks when present, otherwise from a
    fixed tokens-per-page estimate.
    """
    chunk_size = CHUNK_SIZE
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

    stride = chunk_size - OVERLAP
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
    def embed(self, text: str) -> np.ndarray: ...


def _stable_bucket(token: str, dim: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dim


class HashingEmbedder:
    """Deterministic test embedder: token unigrams and bigrams hashed into
    a count vector of DEFAULT_DIM buckets, L2-normalized."""

    def __init__(self):
        self._dim = DEFAULT_DIM
        self.calls = 0
        # Unigram buckets, bounded by the vocabulary. Bigrams are hashed
        # per occurrence: their number grows with the square of it.
        self._unigram_buckets: dict[str, int] = {}

    def embed(self, text: str) -> np.ndarray:
        self.calls += 1
        dim = self._dim
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
    response["data"][0]["embedding"], of whatever length the model gives.
    Retries transport errors, 429 and 5xx responses up to the transport's
    retry budget.
    """

    def __init__(self, endpoint: str, model: str):
        from .transport import JsonEndpoint  # loaded only where a transport is used

        self.endpoint = endpoint
        self.model = model
        self._transport = JsonEndpoint(endpoint, timeout=EMBED_TIMEOUT, error=RemoteEmbedderError)

    def embed(self, text: str) -> np.ndarray:
        body = self._transport.post({"model": self.model, "input": [text]})
        try:
            vec = np.array([float(v) for v in body["data"][0]["embedding"]])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise RemoteEmbedderError(f"malformed embedding response body: {exc!r}") from exc
        return vec


class VectorIndex:
    """Chunks and their (N, dim) embedding matrix, read-only once built.

    The row norms are computed here, once, so that each query is one
    matrix-vector product against stored arrays.
    """

    def __init__(self, chunks: Sequence[DocumentChunk] = (), matrix: np.ndarray | None = None):
        self.chunks: tuple[DocumentChunk, ...] = tuple(chunks)
        # A float array is taken as is, not copied, and frozen below.
        self.matrix = np.empty((0, 0)) if matrix is None else np.asarray(matrix, dtype=float)
        self.dim = self.matrix.shape[1]
        # Row blocks keep norm's temporary product to _NORM_ROWS rows, not
        # the whole matrix; each row's norm is the same float either way.
        self.norms = np.empty(len(self.matrix))
        for start in range(0, len(self.matrix), _NORM_ROWS):
            rows = slice(start, start + _NORM_ROWS)
            self.norms[rows] = np.linalg.norm(self.matrix[rows], axis=1)
        self.matrix.flags.writeable = False
        self.norms.flags.writeable = False

    def __len__(self) -> int:
        return len(self.chunks)


def index_corpus(chunks: list[DocumentChunk], embedder: Embedder) -> VectorIndex:
    """Embed every chunk into a cosine index.

    The first chunk whose embedding raises stops the build with a
    TransportError naming that chunk, so a dead endpoint costs one
    chunk's retries, not every chunk's. The first vector sets the
    index's dimension and must not be empty; every later vector of
    another length is reported, together, per chunk with its doc id.
    """
    matrix = None
    mismatches = []
    for i, chunk in enumerate(chunks):
        try:
            vec = embedder.embed(chunk.text)
        except Exception as exc:
            raise TransportError(f"embedding {chunk.doc_id}#{chunk.ordinal} failed: {exc}") from exc
        if matrix is None:
            if len(vec) == 0:
                raise TransportError(f"embedding {chunk.doc_id}#{chunk.ordinal} is empty")
            # allocated once: one row per chunk, as wide as the first vector
            matrix = np.empty((len(chunks), len(vec)))
        dim = matrix.shape[1]
        if len(vec) != dim:
            mismatches.append(f"{chunk.doc_id}#{chunk.ordinal}: dim {len(vec)} != {dim}")
            continue
        matrix[i] = vec
    if mismatches:
        raise TransportError("embedding dimension mismatch: " + "; ".join(mismatches))
    return VectorIndex(chunks, matrix)


SCORE_DECIMALS = 12


def retrieve(index: VectorIndex, query: str, embedder: Embedder) -> RetrievalResult:
    """Exact top-TOP_K cosine retrieval with a deterministic tie-break.

    Scores every chunk (no approximate shortcuts). Scores are quantized
    to SCORE_DECIMALS places so that mathematically tied chunks stay
    tied regardless of float summation order, then ties are broken by
    (doc_id, ordinal).
    """
    if len(index) == 0:
        raise ValueError("cannot retrieve from an empty index")
    qvec = np.asarray(embedder.embed(query), dtype=float)
    if len(qvec) != index.dim:
        raise ValueError(f"query vector has {len(qvec)} dimensions, the index {index.dim}")
    qnorm = float(np.linalg.norm(qvec))
    dots = index.matrix @ qvec
    denom = index.norms * qnorm
    scores = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
    scores = np.round(scores, SCORE_DECIMALS).tolist()
    order = sorted(
        range(len(index)),
        key=lambda i: (-scores[i], index.chunks[i].doc_id, index.chunks[i].ordinal),
    )
    k = TOP_K
    return RetrievalResult(
        chunks=tuple((index.chunks[i], scores[i]) for i in order[:k]),
        query_text=query,
        k=k,
    )


def load_corpus_dir(path: str | Path) -> list[DocumentChunk]:
    """Chunk every .txt file in a directory, sorted by filename."""
    chunks = []
    for file in sorted(Path(path).glob("*.txt")):
        chunks.extend(chunk_document(file.read_text(encoding="utf-8"), doc_id=file.stem))
    return chunks
