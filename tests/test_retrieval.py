from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triage_arena import fanout, retrieval
from triage_arena.cli import main
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

from conftest import no_child_left


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

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=2500), st.integers(min_value=0, max_value=7))
    def test_reconstruction(self, n_tokens, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        tokens = [f"t{int(rng.integers(0, 300))}" for _ in range(n_tokens)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retrieval, "CHUNK_SIZE", 64)
            mp.setattr(retrieval, "OVERLAP", 16)
            chunks = chunk_document(" ".join(tokens))
        rebuilt = []
        for i, chunk in enumerate(chunks):
            chunk_tokens = chunk.text.split()
            rebuilt.extend(chunk_tokens if i == 0 else chunk_tokens[16:])
        assert rebuilt == tokens

    def test_page_hints_from_form_feeds(self, monkeypatch):
        monkeypatch.setattr(retrieval, "CHUNK_SIZE", 1)
        monkeypatch.setattr(retrieval, "OVERLAP", 0)
        text = "a b c \f d e \f f"
        chunks = chunk_document(text)
        assert [c.page_hint for c in chunks] == [0, 0, 0, 1, 1, 2]


def reference_chunk_document(text: str, doc_id: str = "doc") -> list[DocumentChunk]:
    """chunk_document as it was when it built each record inside the
    window loop, with the token list alive."""
    chunk_size = retrieval.CHUNK_SIZE
    tokens = text.split()
    if not tokens:
        return []
    if "\f" in text:
        page_of_token = []
        for page, section in enumerate(text.split("\f")):
            page_of_token.extend([page] * len(section.split()))
    else:
        page_of_token = [i // retrieval.PAGE_TOKEN_ESTIMATE for i in range(len(tokens))]
    stride = chunk_size - retrieval.OVERLAP
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


# str.split() whitespace, form feed apart: it also breaks pages
_SEPARATORS = [" ", "\n", "\r\n", "\t", "\x0b", "\x1c", "\x85", "\u3000"]
# around the window edges: one window, two, three, and several
_TOKEN_COUNTS = [0, 1, 447, 448, 449, 511, 512, 513, 959, 960, 961, 1999, 2000, 2001]


@st.composite
def _documents(draw):
    """A document of a drawn token count whose gaps mix the separators,
    singly and in runs, and break pages with form feeds when drawn."""
    n_tokens = draw(st.sampled_from(_TOKEN_COUNTS))
    form_feeds = draw(st.booleans())
    runs = st.lists(st.sampled_from(_SEPARATORS + ["\f"] * form_feeds), min_size=1, max_size=3)
    palette = draw(st.lists(runs.map("".join), min_size=1, max_size=6))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**16))))
    gaps = [palette[int(i)] for i in rng.integers(0, len(palette), n_tokens + 1)]
    if form_feeds:  # at least one page break, wherever the palette put them
        gaps[int(rng.integers(0, n_tokens + 1))] += "\f"
    words = [f"w{int(i)}" for i in rng.integers(0, 300, n_tokens)]
    return gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:]))


class TestChunkingMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(_documents())
    def test_same_chunks_as_the_in_loop_build(self, text):
        def rows(chunks):
            return [(c.doc_id, c.ordinal, c.page_hint, c.text) for c in chunks]

        assert rows(chunk_document(text, doc_id="d")) == rows(reference_chunk_document(text, doc_id="d"))

    # (PAGE_TOKEN_ESTIMATE, CHUNK_SIZE, OVERLAP): the fixed settings, and
    # small ones under which a document crosses many page and window edges
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(350, 512, 64), (3, 8, 2), (5, 7, 0), (4, 12, 5), (1, 2, 1)]), st.data())
    def test_page_hints_around_page_and_stride_multiples(self, sizes, data):
        page, size, overlap = sizes
        multiple = data.draw(st.sampled_from([page, size - overlap]))
        n_tokens = max(1, data.draw(st.integers(1, 7)) * multiple + data.draw(st.sampled_from([-1, 0, 1])))
        gaps = [" "] * (n_tokens + 1)
        # form feeds before, between and after tokens, several in a row
        # making empty pages, or none
        for i in data.draw(st.lists(st.integers(0, n_tokens), max_size=2 * n_tokens // page + 3)):
            gaps[i] += "\f"
        text = gaps[0] + "".join(f"w{i}{gap}" for i, gap in enumerate(gaps[1:]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retrieval, "PAGE_TOKEN_ESTIMATE", page)
            mp.setattr(retrieval, "CHUNK_SIZE", size)
            mp.setattr(retrieval, "OVERLAP", overlap)
            assert chunk_document(text) == reference_chunk_document(text)

    @pytest.mark.parametrize("n_tokens", _TOKEN_COUNTS)
    @pytest.mark.parametrize("sep", ["\u3000\x85", " \f\r\n"])
    def test_every_window_edge(self, n_tokens, sep):
        text = sep.join(f"t{i}" for i in range(n_tokens))
        assert chunk_document(text) == reference_chunk_document(text)


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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retrieval, "DEFAULT_DIM", dim)
            embedder = HashingEmbedder()
        # every text twice: the second pass reads the unigram memo
        for text in texts + texts:
            got = embedder.embed(text)
            expected = reference_embed(text, dim)
            assert got.dtype == expected.dtype and got.shape == (dim,)
            assert got.tobytes() == expected.tobytes()

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
        assert index.norms.shape == (0,)

    def test_embedder_failure_reports_doc_id(self):
        class Broken:
            def embed(self, text):
                raise RuntimeError("boom")

        chunks = [DocumentChunk(doc_id="mydoc", page_hint=0, text="hello", ordinal=0)]
        with pytest.raises(RuntimeError, match="mydoc#0"):
            index_corpus(chunks, Broken())

    def test_wrong_dimension_listed_for_every_chunk(self):
        class Short:
            """8 dimensions for the first chunk, 7 for the rest."""

            def embed(self, text):
                return np.ones(8 if text == "anchor" else 7)

        chunks = [
            DocumentChunk(doc_id="anchor", page_hint=0, text="anchor", ordinal=0),
            DocumentChunk(doc_id="first", page_hint=0, text="hello", ordinal=0),
            DocumentChunk(doc_id="second", page_hint=0, text="world", ordinal=3),
        ]
        with pytest.raises(TransportError) as excinfo:
            index_corpus(chunks, Short())
        message = str(excinfo.value)
        assert "anchor#0" not in message
        assert "first#0: dim 7 != 8" in message
        assert "second#3: dim 7 != 8" in message

    @pytest.mark.parametrize("rows", [0, 1, 127, 128, 129, 255, 256, 257, 1000])
    def test_norms_match_one_norm_call_bit_for_bit(self, rows):
        rng = np.random.Generator(np.random.Philox(rows))
        matrix = rng.normal(0, 1, size=(rows, 768))
        matrix[rows // 2 : rows // 2 + 1] *= 1e200  # overflows to inf either way
        want = np.linalg.norm(matrix, axis=1)
        norms = VectorIndex((), matrix).norms
        assert norms.dtype == want.dtype and norms.shape == want.shape == (rows,)
        assert norms.tobytes() == want.tobytes()

    def test_building_allocates_under_2mb_beyond_the_matrix(self):
        # one norm call over 1,000 x 768 allocates about 6 MB here
        matrix = np.random.Generator(np.random.Philox(1)).normal(0, 1, size=(1000, 768))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            VectorIndex((), matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 2 * 2**20

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
            result = retrieve(index, text, embedder)
            assert result.chunks[0][0].doc_id == f"doc{i}"


class TestWorkers:
    """index_corpus over forked workers gives the one-worker build's
    bytes and errors, and leaves no child behind."""

    N_CHUNKS = 41  # 40 rows after the width-setting first, in shares of 4+

    @pytest.fixture
    def chunks(self):
        rng = np.random.Generator(np.random.Philox(8))
        return [
            DocumentChunk(doc_id=f"d{i // 7}", page_hint=i, text=words(30 + i, rng), ordinal=i % 7)
            for i in range(self.N_CHUNKS)
        ]

    @staticmethod
    def serial(chunks):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fanout, "_workers", lambda n: 1)
            return index_corpus(chunks, HashingEmbedder())

    @staticmethod
    def error_of(chunks, embedder):
        with pytest.raises(TransportError) as excinfo:
            index_corpus(chunks, embedder)
        return str(excinfo.value)

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_same_bytes_as_the_serial_build(self, chunks, cpus, n_cpus):
        want = self.serial(chunks)
        forked = cpus(n_cpus)
        embedder = HashingEmbedder()
        index = index_corpus(chunks, embedder)
        assert len(forked) == n_cpus - 1
        assert index.matrix.tobytes() == want.matrix.tobytes()
        assert index.norms.tobytes() == want.norms.tobytes()
        assert index.chunks == tuple(chunks) == want.chunks
        assert no_child_left()

    def test_failed_children_are_redone_by_the_caller(self, chunks, cpus, monkeypatch):
        want = self.serial(chunks)
        forked = cpus(3)
        me, embed = os.getpid(), HashingEmbedder.embed

        def embed_in_caller_only(self, text):
            if os.getpid() != me:
                raise RuntimeError("child down")
            return embed(self, text)

        monkeypatch.setattr(HashingEmbedder, "embed", embed_in_caller_only)
        embedder = HashingEmbedder()
        index = index_corpus(chunks, embedder)
        assert len(forked) == 2
        assert index.matrix.tobytes() == want.matrix.tobytes()
        assert index.norms.tobytes() == want.norms.tobytes()
        assert no_child_left()

    def test_failed_fork_is_embedded_by_the_caller(self, chunks, cpus, monkeypatch):
        want = self.serial(chunks)
        cpus(3)

        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        index = index_corpus(chunks, HashingEmbedder())
        assert index.matrix.tobytes() == want.matrix.tobytes()

    @pytest.mark.parametrize("bad", [3, 17, 40])  # in the caller's share, a child's, the last
    def test_an_error_is_the_serial_builds(self, chunks, cpus, monkeypatch, bad):
        embed = HashingEmbedder.embed

        def embed_failing_on_bad(self, text):
            if text == chunks[bad].text:
                raise RuntimeError("boom")
            return embed(self, text)

        monkeypatch.setattr(HashingEmbedder, "embed", embed_failing_on_bad)
        cpus(1)
        want = self.error_of(chunks, HashingEmbedder())
        assert want == f"embedding {chunks[bad].doc_id}#{chunks[bad].ordinal} failed: boom"
        forked = cpus(3)
        assert self.error_of(chunks, HashingEmbedder()) == want
        assert len(forked) == 2
        assert no_child_left()

    def test_interrupt_in_the_caller_kills_and_reaps_every_child(self, chunks, cpus, monkeypatch):
        forked = cpus(3)
        me, embed = os.getpid(), HashingEmbedder.embed

        def embed_hanging_children(self, text):
            if os.getpid() != me:
                time.sleep(20)  # then the child fails
                raise RuntimeError("child hung")
            if text == chunks[5].text:
                raise KeyboardInterrupt
            return embed(self, text)

        monkeypatch.setattr(HashingEmbedder, "embed", embed_hanging_children)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            index_corpus(chunks, HashingEmbedder())
        assert time.monotonic() - start < 10  # the children were killed, not awaited
        assert len(forked) == 2
        assert no_child_left()

    class Remote(RemoteEmbedder):
        def embed(self, text):
            return HashingEmbedder().embed(text)

    class Hashing(HashingEmbedder):
        pass

    @pytest.mark.parametrize(
        "n_cpus, n_chunks, make",
        [
            (1, N_CHUNKS, HashingEmbedder),
            (3, 7, HashingEmbedder),  # under 2 workers x 4 chunks
            (3, N_CHUNKS, lambda: TestWorkers.Remote(endpoint="http://127.0.0.1:9/embed", model="m")),
            (3, N_CHUNKS, lambda: TestWorkers.Hashing()),
        ],
        ids=["one-cpu", "few-chunks", "remote-embedder", "hashing-subclass"],
    )
    def test_never_forks(self, chunks, cpus, monkeypatch, n_cpus, n_chunks, make):
        want = self.serial(chunks[:n_chunks])
        cpus(n_cpus)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        index = index_corpus(chunks[:n_chunks], make())
        assert index.matrix.tobytes() == want.matrix.tobytes()

    def test_never_forks_beside_another_thread(self, chunks, cpus, monkeypatch):
        want = self.serial(chunks)
        cpus(3)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            index = index_corpus(chunks, HashingEmbedder())
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert index.matrix.tobytes() == want.matrix.tobytes()


class TestRetrieve:
    def test_k_saturation_returns_everything_sorted(self):
        rng = np.random.Generator(np.random.Philox(4))
        chunks = [
            DocumentChunk(doc_id=f"d{i}", page_hint=0, text=words(15, rng), ordinal=0)
            for i in range(3)
        ]
        embedder = HashingEmbedder()
        index = index_corpus(chunks, embedder)
        result = retrieve(index, words(10, rng), embedder)
        assert result.k == 5
        assert len(result.chunks) == 3
        scores = [s for _, s in result.chunks]
        assert scores == sorted(scores, reverse=True)

    def test_identical_query_scores_one(self, monkeypatch):
        monkeypatch.setattr(retrieval, "TOP_K", 1)
        rng = np.random.Generator(np.random.Philox(5))
        texts = [words(25, rng) for _ in range(10)]
        chunks = [
            DocumentChunk(doc_id=f"d{i}", page_hint=0, text=t, ordinal=0)
            for i, t in enumerate(texts)
        ]
        embedder = HashingEmbedder()
        index = index_corpus(chunks, embedder)
        result = retrieve(index, texts[3], embedder)
        assert len(result.chunks) == 1 and result.k == 1
        assert result.chunks[0][0].doc_id == "d3"
        assert result.chunks[0][1] == pytest.approx(1.0)

    def test_tied_scores_break_by_doc_id_then_ordinal(self):
        chunks = [
            DocumentChunk(doc_id=d, page_hint=0, text="same words here", ordinal=o)
            for d, o in (("b", 0), ("a", 1), ("a", 0))
        ]
        embedder = HashingEmbedder()
        result = retrieve(index_corpus(chunks, embedder), "same words", embedder)
        assert [(c.doc_id, c.ordinal) for c, _ in result.chunks] == [("a", 0), ("a", 1), ("b", 0)]

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            retrieve(VectorIndex(), "query", HashingEmbedder())

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
            got = retrieve(index, query, embedder)
            assert [c.doc_id for c, _ in got.chunks] == [d for _, d, _ in expected[:5]]

    def test_sample_corpus_loads(self, monkeypatch):
        from importlib import resources

        monkeypatch.setattr(retrieval, "CHUNK_SIZE", 64)
        monkeypatch.setattr(retrieval, "OVERLAP", 16)
        corpus_dir = resources.files("triage_arena").joinpath("data/sample_corpus")
        chunks = load_corpus_dir(str(corpus_dir))
        assert len(chunks) >= 6
        assert {c.doc_id for c in chunks} >= {"aggregate_welfare", "worst_off_first"}


class TestPinnedOutputs:
    """sha256 values of the sample corpus at 512/64 chunking and top-5
    retrieval, computed before the index took its dimension from the
    embedder: scores reach transcripts and order the excerpts in chat
    prompts, so results and saved bytes must stay bit-identical."""

    @pytest.fixture
    def sample(self):
        from importlib import resources

        data = resources.files("triage_arena").joinpath("data")
        chunks = load_corpus_dir(str(data.joinpath("sample_corpus")))
        queries = json.loads(data.joinpath("queries.json").read_text(encoding="utf-8"))
        embedder = HashingEmbedder()
        return index_corpus(chunks, embedder), embedder, queries["round_keywords"]

    def test_round_query_results(self, sample):
        index, embedder, queries = sample
        results = [retrieve(index, q, embedder).to_json() for q in queries]
        digest = hashlib.sha256(canonical_json(results).encode("utf-8")).hexdigest()
        assert digest == "613f7bfa3294954c01cc0aac58ada6945733bbb701e0dc9a38ad7a8eaf252d56"

    def test_index_matrix_bytes(self, sample):
        index, _, _ = sample
        encoded = json.dumps(index.matrix.tolist()).encode("utf-8")
        assert hashlib.sha256(encoded).hexdigest() == "659478d25f5ebe9d8d8ccdafd5ba5fe7ed4e06563ae0b2e98cb77e8e7303a50d"


class _EmbedHandler(BaseHTTPRequestHandler):
    """Answers the length of the input text in the first of `dims[i]`
    coordinates on its i-th successful answer; the last entry repeats."""

    fail_times = 0
    fail_status = 500
    calls = 0
    dims = [8]

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if cls.calls <= cls.fail_times:
            self.send_response(cls.fail_status)
            self.end_headers()
            return
        answered = cls.calls - cls.fail_times
        dim = cls.dims[min(answered, len(cls.dims)) - 1]
        vec = ([float(len(payload["input"][0]))] + [0.0] * dim)[:dim]
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
    _EmbedHandler.dims = [8]
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestRemoteEmbedder:
    def test_round_trip(self, embed_server):
        embedder = RemoteEmbedder(endpoint=embed_server, model="m")
        vec = embedder.embed("hello world")
        assert vec[0] == float(len("hello world"))

    def test_retries_then_succeeds(self, embed_server, transport_retries):
        _EmbedHandler.fail_times = 2
        transport_retries(2)
        embedder = RemoteEmbedder(endpoint=embed_server, model="m")
        assert len(embedder.embed("x")) == 8

    def test_rate_limit_retried(self, embed_server, transport_retries):
        _EmbedHandler.fail_times = 1
        _EmbedHandler.fail_status = 429
        transport_retries(1)
        embedder = RemoteEmbedder(endpoint=embed_server, model="m")
        assert len(embedder.embed("x")) == 8
        assert _EmbedHandler.calls == 2

    def test_exhausted_retries_raise(self, embed_server, transport_retries):
        _EmbedHandler.fail_times = 10
        transport_retries(1)
        embedder = RemoteEmbedder(endpoint=embed_server, model="m")
        with pytest.raises(RemoteEmbedderError):
            embedder.embed("x")

    def test_dead_endpoint_stops_the_index_at_the_first_chunk(self, embed_server, transport_retries):
        _EmbedHandler.fail_times = 1000
        _EmbedHandler.fail_status = 503
        transport_retries(2)
        chunks = load_corpus_dir(resources.files("triage_arena").joinpath("data/sample_corpus"))
        assert len(chunks) == 6
        embedder = RemoteEmbedder(endpoint=embed_server, model="m")
        with pytest.raises(TransportError, match=f"embedding {chunks[0].doc_id}#0 failed"):
            index_corpus(chunks, embedder)
        assert _EmbedHandler.calls == 3


class TestEmbeddingDimension:
    """The index is as wide as the embedding service's vectors."""

    @pytest.fixture
    def sample_chunks(self):
        return load_corpus_dir(resources.files("triage_arena").joinpath("data/sample_corpus"))

    def test_run_retrieves_with_16_dimension_vectors(self, embed_server, tmp_path, monkeypatch):
        _EmbedHandler.dims = [16]
        monkeypatch.setenv("TRIAGE_ARENA_EMBED_ENDPOINT", embed_server)
        monkeypatch.setenv("TRIAGE_ARENA_EMBED_MODEL", "m")
        corpus = str(resources.files("triage_arena").joinpath("data/sample_corpus"))
        cohorts, out = tmp_path / "cohorts", tmp_path / "run"
        assert main(["gen-cohorts", "--seed", "3", "--batch", "2", "--out", str(cohorts)]) == 0
        argv = ["run", "--cohorts", str(cohorts), "--framework", "Rawlsian", "--corpus-dir", corpus, "--out", str(out)]
        assert main(argv) == 0
        transcripts = sorted(out.glob("transcript_*.json"))
        assert len(transcripts) == 2
        for path in transcripts:
            logs = json.loads(path.read_text(encoding="utf-8"))["retrieval_logs"]
            assert len(logs) == 3
            assert all(log["k"] == 5 and len(log["chunks"]) == 5 for log in logs)

    def test_vector_length_change_at_the_third_chunk_is_listed(self, embed_server, sample_chunks):
        _EmbedHandler.dims = [16, 16, 12, 16]
        with pytest.raises(TransportError, match="embedding dimension mismatch") as excinfo:
            index_corpus(sample_chunks, RemoteEmbedder(endpoint=embed_server, model="m"))
        third = sample_chunks[2]
        assert str(excinfo.value).endswith(f"mismatch: {third.doc_id}#{third.ordinal}: dim 12 != 16")

    def test_query_of_another_length_names_both(self, embed_server, sample_chunks):
        _EmbedHandler.dims = [16] * len(sample_chunks) + [8]
        embedder = RemoteEmbedder(endpoint=embed_server, model="m")
        index = index_corpus(sample_chunks, embedder)
        with pytest.raises(ValueError, match="^query vector has 8 dimensions, the index 16$"):
            retrieve(index, "worst off", embedder)

    def test_empty_first_vector_is_an_error(self, embed_server, sample_chunks):
        _EmbedHandler.dims = [0]
        first = sample_chunks[0]
        with pytest.raises(TransportError, match=f"^embedding {first.doc_id}#0 is empty$"):
            index_corpus(sample_chunks, RemoteEmbedder(endpoint=embed_server, model="m"))
