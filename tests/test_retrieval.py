from __future__ import annotations

import hashlib
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triage_arena.model import TransportError, canonical_json
from triage_arena.retrieval import (
    DocumentChunk,
    HashingEmbedder,
    RemoteEmbedder,
    RemoteEmbedderError,
    VectorIndex,
    chunk_document,
    index_corpus,
    load_corpus_dir,
    retrieve,
)


def words(n: int, rng: np.random.Generator, vocab_prefix: str = "w") -> str:
    return " ".join(f"{vocab_prefix}{int(rng.integers(0, 500))}" for _ in range(n))


class TestChunking:
    def test_exact_fit_single_chunk(self):
        text = " ".join(f"t{i}" for i in range(512))
        chunks = chunk_document(text)
        assert len(chunks) == 1
        assert chunks[0].ordinal == 0

    def test_960_tokens_two_windows(self):
        tokens = [f"t{i}" for i in range(960)]
        chunks = chunk_document(" ".join(tokens))
        assert len(chunks) == 2
        assert chunks[0].text.split() == tokens[0:512]
        assert chunks[1].text.split() == tokens[448:960]

    def test_empty_text_gives_empty_list(self):
        assert chunk_document("") == []
        assert chunk_document("   \n  ") == []

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            chunk_document("a b c", chunk_size=10, overlap=10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=2500), st.integers(min_value=0, max_value=7))
    def test_reconstruction(self, n_tokens, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        tokens = [f"t{int(rng.integers(0, 300))}" for _ in range(n_tokens)]
        chunks = chunk_document(" ".join(tokens), chunk_size=64, overlap=16)
        rebuilt = []
        for i, chunk in enumerate(chunks):
            chunk_tokens = chunk.text.split()
            rebuilt.extend(chunk_tokens if i == 0 else chunk_tokens[16:])
        assert rebuilt == tokens

    def test_page_hints_from_form_feeds(self):
        text = "a b c \f d e \f f"
        chunks = chunk_document(text, chunk_size=1, overlap=0)
        assert [c.page_hint for c in chunks] == [0, 0, 0, 1, 1, 2]


def reference_embed(text: str, dim: int) -> np.ndarray:
    """The hashing embedder as a plain per-token loop over a list."""

    def bucket(token: str) -> int:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % dim

    vec = [0.0] * dim
    tokens = text.lower().split()
    for tok in tokens:
        vec[bucket(tok)] += 1.0
    for a, b in zip(tokens, tokens[1:]):
        vec[bucket(a + " " + b)] += 1.0
    norm = math.sqrt(sum(v * v for v in vec))
    if norm > 0:
        vec = [v / norm for v in vec]
    return np.array(vec)


_WORDS = ["Equal", "equal", "EQUAL", "concern", "worst-off", "Straße", "naïve", "患者", "ÉCOLE", "x"]
_TEXTS = st.one_of(
    st.just(""),
    st.text(alphabet=" \t\n\r\f\v\u00a0\u2003", max_size=20),
    st.lists(st.sampled_from(_WORDS), max_size=60).map(" ".join),
    st.lists(st.sampled_from(_WORDS[:3]), min_size=2, max_size=30).map("  ".join),
    st.text(max_size=200),
)


class TestHashingEmbedder:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_TEXTS, min_size=1, max_size=4), st.sampled_from([8, 64, 768]))
    def test_bit_identical_to_reference_loop(self, texts, dim):
        embedder = HashingEmbedder(dim=dim)
        # every text twice: the second pass reads the unigram memo
        for n, text in enumerate(texts + texts, start=1):
            got = embedder.embed(text)
            expected = reference_embed(text, dim)
            assert got.dtype == expected.dtype and got.shape == (dim,)
            assert got.tobytes() == expected.tobytes()
            assert embedder.calls == n

    def test_deterministic(self):
        e = HashingEmbedder()
        assert np.array_equal(e.embed("equal concern and respect"), e.embed("equal concern and respect"))

    def test_self_cosine_is_one(self):
        e = HashingEmbedder()
        v = e.embed("the worst off patient comes first")
        assert sum(x * x for x in v) == pytest.approx(1.0)

    def test_disjoint_vocabulary_nearly_orthogonal(self):
        e = HashingEmbedder()
        a = e.embed(" ".join(f"alpha{i}" for i in range(40)))
        b = e.embed(" ".join(f"beta{i}" for i in range(40)))
        cosine = sum(x * y for x, y in zip(a, b))
        assert cosine < 0.1


class TestIndex:
    def test_empty_corpus_empty_index(self):
        index = index_corpus([], HashingEmbedder())
        assert len(index) == 0

    def test_embedder_failure_reports_doc_id(self):
        class Broken:
            dim = 8

            def embed(self, text):
                raise RuntimeError("boom")

        chunks = [DocumentChunk(doc_id="mydoc", page_hint=0, text="hello", ordinal=0)]
        with pytest.raises(RuntimeError, match="mydoc#0"):
            index_corpus(chunks, Broken())

    def test_wrong_dimension_listed_for_every_chunk(self):
        class Short:
            dim = 8

            def embed(self, text):
                return np.ones(7)

        chunks = [
            DocumentChunk(doc_id="first", page_hint=0, text="hello", ordinal=0),
            DocumentChunk(doc_id="second", page_hint=0, text="world", ordinal=3),
        ]
        with pytest.raises(RuntimeError) as excinfo:
            index_corpus(chunks, Short())
        message = str(excinfo.value)
        assert "first#0: dim 7 != 8" in message
        assert "second#3: dim 7 != 8" in message

    def test_self_retrieval_ranks_first(self):
        rng = np.random.Generator(np.random.Philox(3))
        texts = [words(20, rng, vocab_prefix=f"v{i}_") for i in range(100)]
        chunks = [
            DocumentChunk(doc_id=f"doc{i}", page_hint=0, text=t, ordinal=0)
            for i, t in enumerate(texts)
        ]
        embedder = HashingEmbedder()
        index = index_corpus(chunks, embedder)
        for i, text in enumerate(texts):
            result = retrieve(index, text, embedder, k=1)
            assert result.chunks[0][0].doc_id == f"doc{i}"


class TestRetrieve:
    def test_k_saturation_returns_everything_sorted(self):
        rng = np.random.Generator(np.random.Philox(4))
        chunks = [
            DocumentChunk(doc_id=f"d{i}", page_hint=0, text=words(15, rng), ordinal=0)
            for i in range(5)
        ]
        embedder = HashingEmbedder()
        index = index_corpus(chunks, embedder)
        result = retrieve(index, words(10, rng), embedder, k=50)
        assert len(result.chunks) == 5
        scores = [s for _, s in result.chunks]
        assert scores == sorted(scores, reverse=True)

    def test_identical_query_scores_one(self):
        rng = np.random.Generator(np.random.Philox(5))
        texts = [words(25, rng) for _ in range(10)]
        chunks = [
            DocumentChunk(doc_id=f"d{i}", page_hint=0, text=t, ordinal=0)
            for i, t in enumerate(texts)
        ]
        embedder = HashingEmbedder()
        index = index_corpus(chunks, embedder)
        result = retrieve(index, texts[3], embedder, k=1)
        assert result.chunks[0][0].doc_id == "d3"
        assert result.chunks[0][1] == pytest.approx(1.0)

    def test_tied_scores_break_by_doc_id_then_ordinal(self):
        chunks = [
            DocumentChunk(doc_id=d, page_hint=0, text="same words here", ordinal=o)
            for d, o in (("b", 0), ("a", 1), ("a", 0))
        ]
        embedder = HashingEmbedder()
        result = retrieve(index_corpus(chunks, embedder), "same words", embedder, k=3)
        assert [(c.doc_id, c.ordinal) for c, _ in result.chunks] == [("a", 0), ("a", 1), ("b", 0)]

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            retrieve(VectorIndex(dim=8), "query", HashingEmbedder(dim=8))

    def test_matches_brute_force_scan(self):
        # module-scale version of the exactness check (200 chunks, 20 queries)
        rng = np.random.Generator(np.random.Philox(6))
        chunks = [
            DocumentChunk(doc_id=f"d{i:03d}", page_hint=i, text=words(18, rng), ordinal=i)
            for i in range(200)
        ]
        embedder = HashingEmbedder()
        index = index_corpus(chunks, embedder)
        for q in range(20):
            query = words(8, rng)
            qvec = np.array(embedder.embed(query))
            expected = []
            for chunk, emb in zip(index.chunks, index.matrix):
                v = np.array(emb)
                denom = float(np.linalg.norm(v)) * float(np.linalg.norm(qvec))
                score = round(float(v @ qvec / denom), 12) if denom else 0.0
                expected.append((score, chunk.doc_id, chunk.ordinal))
            expected.sort(key=lambda t: (-t[0], t[1], t[2]))
            got = retrieve(index, query, embedder, k=5)
            assert [c.doc_id for c, _ in got.chunks] == [d for _, d, _ in expected[:5]]

    def test_sample_corpus_loads(self):
        from importlib import resources

        corpus_dir = resources.files("triage_arena").joinpath("data/sample_corpus")
        chunks = load_corpus_dir(str(corpus_dir), chunk_size=64, overlap=16)
        assert len(chunks) >= 6
        assert {c.doc_id for c in chunks} >= {"aggregate_welfare", "worst_off_first"}


class TestPinnedOutputs:
    """sha256 values computed before the index held one embedding matrix:
    scores reach transcripts and order the excerpts in chat prompts, so
    results and saved bytes must stay bit-identical."""

    @pytest.fixture
    def sample(self):
        from importlib import resources

        data = resources.files("triage_arena").joinpath("data")
        chunks = load_corpus_dir(str(data.joinpath("sample_corpus")), chunk_size=64, overlap=16)
        queries = json.loads(data.joinpath("queries.json").read_text(encoding="utf-8"))
        embedder = HashingEmbedder()
        return index_corpus(chunks, embedder), embedder, queries["round_keywords"]

    def test_round_query_results(self, sample):
        index, embedder, queries = sample
        results = [retrieve(index, q, embedder, k=5).to_json() for q in queries]
        digest = hashlib.sha256(canonical_json(results).encode("utf-8")).hexdigest()
        assert digest == "66200207880559b63ec500f59195e4d96ebd1c36600e13efcf45b7368c504523"

    def test_index_matrix_bytes(self, sample):
        index, _, _ = sample
        encoded = json.dumps(index.matrix.tolist()).encode("utf-8")
        assert hashlib.sha256(encoded).hexdigest() == "22e94881caa40454611e89673be7f9b810cb18fa2200a00f1e2abe4397698357"


class _EmbedHandler(BaseHTTPRequestHandler):
    fail_times = 0
    fail_status = 500
    calls = 0

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if cls.calls <= cls.fail_times:
            self.send_response(cls.fail_status)
            self.end_headers()
            return
        vec = [float(len(payload["input"][0]))] + [0.0] * 7
        body = json.dumps({"data": [{"embedding": vec}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    _EmbedHandler.fail_times = 0
    _EmbedHandler.fail_status = 500
    _EmbedHandler.calls = 0
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestRemoteEmbedder:
    def test_round_trip(self, embed_server):
        embedder = RemoteEmbedder(endpoint=embed_server, model="m", dim=8, backoff=0)
        vec = embedder.embed("hello world")
        assert vec[0] == float(len("hello world"))

    def test_retries_then_succeeds(self, embed_server):
        _EmbedHandler.fail_times = 2
        embedder = RemoteEmbedder(endpoint=embed_server, model="m", dim=8, retries=2, backoff=0)
        assert len(embedder.embed("x")) == 8

    def test_rate_limit_retried(self, embed_server):
        _EmbedHandler.fail_times = 1
        _EmbedHandler.fail_status = 429
        embedder = RemoteEmbedder(endpoint=embed_server, model="m", dim=8, retries=1, backoff=0)
        assert len(embedder.embed("x")) == 8
        assert _EmbedHandler.calls == 2

    def test_exhausted_retries_raise(self, embed_server):
        _EmbedHandler.fail_times = 10
        embedder = RemoteEmbedder(endpoint=embed_server, model="m", dim=8, retries=1, backoff=0)
        with pytest.raises(RemoteEmbedderError):
            embedder.embed("x")

    def test_dead_endpoint_stops_the_index_at_the_first_chunk(self, embed_server):
        _EmbedHandler.fail_times = 1000
        _EmbedHandler.fail_status = 503
        chunks = load_corpus_dir(resources.files("triage_arena").joinpath("data/sample_corpus"))
        assert len(chunks) == 6
        embedder = RemoteEmbedder(endpoint=embed_server, model="m", dim=8, retries=2, backoff=0)
        with pytest.raises(TransportError, match=f"embedding {chunks[0].doc_id}#0 failed"):
            index_corpus(chunks, embedder)
        assert _EmbedHandler.calls == 3
