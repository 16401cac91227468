import hashlib
import json
import threading

import numpy as np
import pytest

from clsd.errors import DataError, ProviderError
from clsd.providers import (
    DEFAULT_LEXICAL_DIM,
    ChatParams,
    EmbeddingCache,
    EmbeddingVector,
    LexicalEmbedder,
    ProviderConfig,
    ServiceEmbedder,
    _auth_headers,
    _lexical_bucket,
    _PermanentProviderError,
    chat_complete,
    embed_batch,
    lexical_dim,
    lexical_embed,
    make_translator,
    translate_batch,
)

from conftest import FROZEN_LEXICAL_COSINE_ABCD_ABCE


def embedding_config(**overrides) -> ProviderConfig:
    defaults = dict(
        kind="embedding",
        endpoint="https://svc.test/v1/embeddings",
        model_id="emb-1",
        max_batch=2,
        max_inflight=1,
        retry_attempts=3,
        retry_base_ms=1,
    )
    defaults.update(overrides)
    return ProviderConfig(**defaults)


class RecordingTransport:
    """Scripted transport: records payloads, plays back queued responses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, endpoint, payload):
        with self._lock:
            self.calls.append((endpoint, payload))
            response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        if callable(response):
            return response(payload)
        return response


def echo_embeddings(dim=4):
    # Deterministic fake backend: one distinct unit vector per input.
    def respond(payload):
        data = []
        for i, text in enumerate(payload["input"]):
            values = [0.0] * dim
            values[hash(text) % dim] = 1.0
            data.append({"index": i, "embedding": values})
        return {"data": data}

    return respond


class TestValueTypes:
    def test_embedding_vector_must_be_1d(self):
        with pytest.raises(DataError):
            EmbeddingVector(values=np.zeros((2, 2)), backend_id="b", model_id="m")

    def test_embedding_vector_rejects_non_finite(self):
        with pytest.raises(DataError):
            EmbeddingVector(
                values=np.array([1.0, np.nan]), backend_id="b", model_id="m"
            )

    def test_embedding_vector_is_read_only(self):
        vec = EmbeddingVector(values=np.ones(3), backend_id="b", model_id="m")
        assert vec.dim == 3
        with pytest.raises(ValueError):
            vec.values[0] = 5.0

    def test_chat_params_defaults(self):
        params = ChatParams()
        assert params.temperature == 1.0
        assert params.top_p == 1.0

    @pytest.mark.parametrize("kwargs", [{"temperature": -0.1}, {"top_p": 0.0}, {"top_p": 1.5}])
    def test_chat_params_bounds(self, kwargs):
        with pytest.raises(DataError):
            ChatParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "oracle"},
            {"max_batch": 0},
            {"max_inflight": 0},
            {"retry_attempts": 0},
        ],
    )
    def test_provider_config_bounds(self, kwargs):
        with pytest.raises(DataError):
            embedding_config(**kwargs)


class TestLexicalEmbedder:
    def test_unit_norm(self):
        vec = lexical_embed("Der Nasdaq verzeichnete die schlechteste Woche.")
        assert np.linalg.norm(vec.values) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = lexical_embed("gleicher Text", 64)
        b = lexical_embed("gleicher Text", 64)
        assert np.array_equal(a.values, b.values)

    def test_identical_texts_cosine_one(self):
        a = lexical_embed("Hallo Welt")
        b = lexical_embed("Hallo Welt")
        assert float(a.values @ b.values) == pytest.approx(1.0, abs=1e-12)

    def test_case_insensitive(self):
        a = lexical_embed("HALLO Welt")
        b = lexical_embed("hallo welt")
        assert np.array_equal(a.values, b.values)

    def test_disjoint_gram_texts_cosine_zero(self):
        left, right = "aaaa", "zzzz"

        def grams(text):
            padded = "\x00" + text + "\x00"
            return {padded[i : i + 3] for i in range(len(padded) - 2)}

        # Guard the premise: the two gram sets may not share hash buckets.
        buckets_l = {_lexical_bucket(g, DEFAULT_LEXICAL_DIM) for g in grams(left)}
        buckets_r = {_lexical_bucket(g, DEFAULT_LEXICAL_DIM) for g in grams(right)}
        assert not (buckets_l & buckets_r)
        a, b = lexical_embed(left), lexical_embed(right)
        assert float(a.values @ b.values) == pytest.approx(0.0, abs=1e-12)

    def test_abcd_abce_half_overlap(self):
        # Oracle route: cosine in raw gram space, valid because the six grams
        # involved land in six distinct buckets of the 512-dim table.
        def gram_counts(text):
            padded = "\x00" + text + "\x00"
            counts = {}
            for i in range(len(padded) - 2):
                g = padded[i : i + 3]
                counts[g] = counts.get(g, 0) + 1
            return counts

        ca, cb = gram_counts("abcd"), gram_counts("abce")
        all_grams = set(ca) | set(cb)
        assert len({_lexical_bucket(g, 512) for g in all_grams}) == len(all_grams)
        dot = sum(ca.get(g, 0) * cb.get(g, 0) for g in all_grams)
        norm = (sum(v * v for v in ca.values()) * sum(v * v for v in cb.values())) ** 0.5
        oracle = dot / norm
        assert oracle == FROZEN_LEXICAL_COSINE_ABCD_ABCE

        a, b = lexical_embed("abcd", 512), lexical_embed("abce", 512)
        assert float(a.values @ b.values) == pytest.approx(oracle, abs=1e-12)

    def test_empty_text_is_a_unit_vector(self):
        vec = lexical_embed("", 16)
        assert np.linalg.norm(vec.values) == pytest.approx(1.0)

    def test_small_dim_rejected(self):
        with pytest.raises(DataError):
            lexical_embed("x", 4)
        with pytest.raises(DataError):
            LexicalEmbedder(dim=7)

    def test_lexical_endpoint_needs_no_transport(self):
        cfg = embedding_config(endpoint="lexical:32")
        vectors = LexicalEmbedder(lexical_dim(cfg.endpoint)).embed(["eins", "zwei"])
        assert [v.dim for v in vectors] == [32, 32]
        assert vectors[0].backend_id == "lexical"

    def test_lexical_dim_parses_specs(self):
        assert lexical_dim("lexical:32") == 32
        assert lexical_dim("lexical") == DEFAULT_LEXICAL_DIM
        assert lexical_dim("lexical:") == DEFAULT_LEXICAL_DIM
        for other in ("https://svc.test/v1/embeddings", "identity:", "lexicalx:8"):
            assert lexical_dim(other) is None
        for bad in ("lexical:abc", "lexical:-8", "lexical:8.5"):
            with pytest.raises(DataError, match="bad lexical spec"):
                lexical_dim(bad)

    def test_embedder_object_metadata(self):
        emb = LexicalEmbedder(dim=64)
        assert (emb.backend_id, emb.model_id) == ("lexical", "char3gram-64")
        vectors = emb.embed(["a", "b"])
        assert [v.dim for v in vectors] == [64, 64]


class TestEmbedBatch:
    def test_chunking_and_payload_shape(self):
        transport = RecordingTransport([echo_embeddings()] * 3)
        texts = ["t1", "t2", "t3", "t4", "t5"]
        vectors = embed_batch(embedding_config(), texts, transport=transport)
        assert len(vectors) == 5
        assert len(transport.calls) == 3
        endpoint, payload = transport.calls[0]
        assert endpoint == "https://svc.test/v1/embeddings"
        assert set(payload) == {"model", "input"}
        assert payload["model"] == "emb-1"
        assert [p["input"] for _, p in transport.calls] == [
            ["t1", "t2"],
            ["t3", "t4"],
            ["t5"],
        ]

    def test_shuffled_response_indices_reordered(self):
        def respond(payload):
            data = [
                {"index": i, "embedding": [float(i + 1), 0.0]}
                for i in range(len(payload["input"]))
            ]
            return {"data": list(reversed(data))}

        transport = RecordingTransport([respond])
        vectors = embed_batch(
            embedding_config(max_batch=8), ["a", "b", "c"], transport=transport
        )
        assert [v.values[0] for v in vectors] == [1.0, 2.0, 3.0]

    def test_duplicates_requested_once(self):
        transport = RecordingTransport([echo_embeddings()])
        vectors = embed_batch(
            embedding_config(max_batch=8), ["a", "b", "a"], transport=transport
        )
        assert transport.calls[0][1]["input"] == ["a", "b"]
        assert np.array_equal(vectors[0].values, vectors[2].values)

    def test_missing_index_rejected(self):
        transport = RecordingTransport(
            [{"data": [{"index": 0, "embedding": [1.0]}, {"index": 0, "embedding": [2.0]}]}]
        )
        with pytest.raises(ProviderError, match="misses an index"):
            embed_batch(embedding_config(), ["a", "b"], transport=transport)

    def test_wrong_entry_count_rejected(self):
        transport = RecordingTransport([{"data": [{"index": 0, "embedding": [1.0]}]}] * 3)
        with pytest.raises(ProviderError, match="1 entries for 2 inputs"):
            embed_batch(embedding_config(), ["a", "b"], transport=transport)

    def test_dimension_mismatch_rejected(self):
        def respond(payload):
            data = [
                {"index": i, "embedding": [1.0] * (2 + i)}
                for i in range(len(payload["input"]))
            ]
            return {"data": data}

        transport = RecordingTransport([respond])
        with pytest.raises(ProviderError, match="dimension mismatch"):
            embed_batch(embedding_config(max_batch=8), ["a", "b"], transport=transport)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            embed_batch(embedding_config(), [])

    def test_kind_checked(self):
        cfg = ProviderConfig(kind="chat", endpoint="e", model_id="m")
        with pytest.raises(DataError):
            embed_batch(cfg, ["a"])

    def test_concurrent_chunks_preserve_order(self):
        transport = RecordingTransport([echo_embeddings()] * 8)
        cfg = embedding_config(max_batch=1, max_inflight=4)
        texts = [f"text-{i}" for i in range(8)]
        vectors = embed_batch(cfg, texts, transport=transport)
        solo = [
            embed_batch(embedding_config(max_batch=8), [t], transport=RecordingTransport([echo_embeddings()]))[0]
            for t in texts
        ]
        for got, expected in zip(vectors, solo):
            assert np.array_equal(got.values, expected.values)


class TestRetries:
    def test_transient_failures_then_success(self):
        transport = RecordingTransport(
            [ProviderError("503"), ProviderError("503"), echo_embeddings()]
        )
        vectors = embed_batch(embedding_config(max_batch=8), ["a"], transport=transport)
        assert len(vectors) == 1
        assert len(transport.calls) == 3

    def test_exhaustion_raises_giving_up(self):
        transport = RecordingTransport([ProviderError("503")] * 3)
        with pytest.raises(ProviderError, match="giving up after 3 attempts"):
            embed_batch(embedding_config(max_batch=8), ["a"], transport=transport)
        assert len(transport.calls) == 3

    def test_permanent_error_not_retried(self):
        transport = RecordingTransport([_PermanentProviderError("400 bad request")] * 3)
        with pytest.raises(ProviderError, match="400"):
            embed_batch(embedding_config(max_batch=8), ["a"], transport=transport)
        assert len(transport.calls) == 1


class TestEmbeddingCache:
    def test_round_trip_and_manifest(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "cache")
        assert cache.get("b", "m", "text") is None
        cache.put("b", "m", "text", np.array([1.0, 2.0]))
        assert np.array_equal(cache.get("b", "m", "text"), [1.0, 2.0])
        lines = (tmp_path / "cache" / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["key"] == EmbeddingCache.key("b", "m", "text")
        assert entry["text_sha256"] == hashlib.sha256(b"text").hexdigest()

    def test_second_put_is_a_no_op(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "cache")
        cache.put("b", "m", "text", np.array([1.0]))
        cache.put("b", "m", "text", np.array([9.0]))
        assert np.array_equal(cache.get("b", "m", "text"), [1.0])

    def test_key_separates_backend_model_text(self):
        keys = {
            EmbeddingCache.key("b1", "m", "t"),
            EmbeddingCache.key("b2", "m", "t"),
            EmbeddingCache.key("b1", "m2", "t"),
            EmbeddingCache.key("b1", "m", "t2"),
        }
        assert len(keys) == 4

    def test_embed_batch_serves_second_call_from_cache(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "cache")
        cfg = embedding_config(max_batch=8)
        first = embed_batch(
            cfg, ["a", "b"], cache=cache, transport=RecordingTransport([echo_embeddings()])
        )
        # No queued responses: any request would pop from an empty list.
        second = embed_batch(cfg, ["a", "b"], cache=cache, transport=RecordingTransport([]))
        for x, y in zip(first, second):
            assert np.array_equal(x.values, y.values)


class TestChatComplete:
    def chat_config(self, endpoint="https://svc.test/v1/chat"):
        return ProviderConfig(
            kind="chat", endpoint=endpoint, model_id="chat-1", retry_base_ms=1
        )

    def test_replay_matches_last_user_message(self, tmp_path):
        replay = tmp_path / "replies.jsonl"
        replay.write_text(
            json.dumps({"key": "Wie spät ist es?", "content": "Es ist drei Uhr."})
            + "\n",
            encoding="utf-8",
        )
        cfg = self.chat_config(endpoint=f"replay:{replay}")
        reply = chat_complete(cfg, [("user", "Wie spät ist es?")])
        assert reply == "Es ist drei Uhr."

    def test_replay_unknown_prompt(self, tmp_path):
        replay = tmp_path / "replies.jsonl"
        replay.write_text(json.dumps({"key": "a", "content": "b"}) + "\n")
        cfg = self.chat_config(endpoint=f"replay:{replay}")
        with pytest.raises(ProviderError, match="no replay entry"):
            chat_complete(cfg, [("user", "etwas anderes")])

    def test_payload_carries_sampling_params(self):
        transport = RecordingTransport(
            [{"choices": [{"message": {"content": "Antwort"}}]}]
        )
        reply = chat_complete(
            self.chat_config(), [("user", "Frage")], transport=transport
        )
        assert reply == "Antwort"
        _, payload = transport.calls[0]
        assert payload["model"] == "chat-1"
        assert payload["temperature"] == 1.0
        assert payload["top_p"] == 1.0
        assert payload["messages"] == [{"role": "user", "content": "Frage"}]

    def test_custom_params_forwarded(self):
        transport = RecordingTransport([{"choices": [{"message": {"content": "ok"}}]}])
        chat_complete(
            self.chat_config(),
            [("user", "f")],
            params=ChatParams(temperature=0.2, top_p=0.9),
            transport=transport,
        )
        _, payload = transport.calls[0]
        assert (payload["temperature"], payload["top_p"]) == (0.2, 0.9)

    def test_blank_completion_rejected(self):
        transport = RecordingTransport([{"choices": [{"message": {"content": "  "}}]}])
        with pytest.raises(ProviderError, match="empty completion"):
            chat_complete(self.chat_config(), [("user", "f")], transport=transport)

    def test_malformed_response_rejected(self):
        transport = RecordingTransport([{"choices": []}] * 3)
        with pytest.raises(ProviderError, match="malformed chat response"):
            chat_complete(self.chat_config(), [("user", "f")], transport=transport)

    def test_kind_checked(self):
        with pytest.raises(DataError):
            chat_complete(embedding_config(), [("user", "f")])


class TestTranslateBatch:
    def translation_config(self, endpoint="https://svc.test/v1/translate", **kw):
        return ProviderConfig(
            kind="translation",
            endpoint=endpoint,
            model_id="mt-1",
            max_batch=kw.pop("max_batch", 2),
            retry_base_ms=1,
            **kw,
        )

    def test_identity_scheme(self):
        cfg = self.translation_config(endpoint="identity:")
        assert translate_batch(cfg, ["un", "deux"], "fr", "en") == ["un", "deux"]

    def test_same_language_rejected(self):
        cfg = self.translation_config(endpoint="identity:")
        with pytest.raises(DataError):
            translate_batch(cfg, ["x"], "fr", "fr")
        with pytest.raises(DataError):
            make_translator(cfg)(["x"], "fr", "fr")

    def test_chunked_payloads(self):
        def respond(payload):
            return {"translations": [t.upper() for t in payload["texts"]]}

        transport = RecordingTransport([respond] * 3)
        out = translate_batch(
            self.translation_config(), ["a", "b", "c", "d", "e"], "fr", "en",
            transport=transport,
        )
        assert out == ["A", "B", "C", "D", "E"]
        assert len(transport.calls) == 3
        _, payload = transport.calls[0]
        assert set(payload) == {"model", "src", "tgt", "texts"}
        assert (payload["src"], payload["tgt"]) == ("fr", "en")

    def test_count_mismatch_rejected(self):
        transport = RecordingTransport([{"translations": ["only one"]}])
        with pytest.raises(ProviderError, match="count mismatch"):
            translate_batch(
                self.translation_config(), ["a", "b"], "fr", "en", transport=transport
            )

    def test_make_translator_binds_config(self):
        cfg = self.translation_config(endpoint="identity:")
        translate = make_translator(cfg)
        assert translate(["bon"], "fr", "en") == ["bon"]

    def test_kind_checked(self):
        with pytest.raises(DataError):
            translate_batch(embedding_config(), ["x"], "fr", "en")


class TestAuth:
    def test_missing_key_env_raises(self, monkeypatch):
        monkeypatch.delenv("CLSD_TEST_KEY", raising=False)
        cfg = embedding_config(api_key_env="CLSD_TEST_KEY")
        with pytest.raises(ProviderError, match="CLSD_TEST_KEY"):
            _auth_headers(cfg)

    def test_bearer_header_built(self, monkeypatch):
        monkeypatch.setenv("CLSD_TEST_KEY", "secret-token")
        cfg = embedding_config(api_key_env="CLSD_TEST_KEY")
        assert _auth_headers(cfg) == {"Authorization": "Bearer secret-token"}

    def test_no_key_env_means_no_header(self):
        assert _auth_headers(embedding_config()) == {}


class TestServiceEmbedder:
    def test_metadata_and_embed(self):
        cfg = embedding_config(max_batch=8)
        emb = ServiceEmbedder(cfg, transport=RecordingTransport([echo_embeddings()]))
        assert emb.backend_id == cfg.endpoint
        assert emb.model_id == "emb-1"
        assert len(emb.embed(["x", "y"])) == 2
