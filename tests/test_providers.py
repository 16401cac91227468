import ast
import hashlib
import json
import os
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest

import clsd
from clsd import providers
from clsd.errors import DataError, ProviderError
from clsd.evaluator import pivot_dataset
from clsd.generator import GenerationConfig, generate_dataset, generate_instance
from clsd.providers import (
    DEFAULT_LEXICAL_DIM,
    MAX_LEXICAL_DIM,
    ChatParams,
    EmbeddingCache,
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
from clsd.records import (
    ClsdInstance,
    ParallelPair,
    Sentence,
    load_clsd_dataset,
    save_clsd_dataset,
)

from conftest import FROZEN_LEXICAL_COSINE_ABCD_ABCE, http_reply


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
    def test_embed_batch_returns_one_read_only_matrix(self):
        transport = RecordingTransport([echo_embeddings(dim=3)] * 2)
        matrix = embed_batch(embedding_config(), ["a", "b", "c"], transport=transport)
        assert (matrix.shape, matrix.dtype) == ((3, 3), np.float64)
        with pytest.raises(ValueError):
            matrix[0, 0] = 5.0

    def test_lexical_embedder_returns_one_read_only_matrix(self):
        matrix = LexicalEmbedder(16).embed(["eins", "zwei", ""])
        assert (matrix.shape, matrix.dtype) == ((3, 16), np.float64)
        with pytest.raises(ValueError):
            matrix[0, 0] = 5.0

    def test_lexical_embed_returns_a_read_only_row(self):
        row = lexical_embed("eins", 16)
        assert row.shape == (16,)
        with pytest.raises(ValueError):
            row[0] = 5.0

    def test_chat_params_defaults(self):
        params = ChatParams()
        assert params.temperature == 1.0
        assert params.top_p == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"temperature": -0.1}, {"top_p": 0.0}, {"top_p": 1.5}]
        + [{key: value} for key in ("temperature", "top_p") for value in (nan, inf, -inf)],
    )
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
            {"retry_base_ms": -100},
        ],
    )
    def test_provider_config_bounds(self, kwargs):
        with pytest.raises(DataError):
            embedding_config(**kwargs)


# Vectors of lexical_embed over these texts, hashed: SHA-256 of the
# concatenated little-endian float64 bytes, recorded with the per-gram loop
# (one hash and one += 1.0 per gram) that the batched embedder replaced.
PINNED_TEXTS = (
    "",
    "a",
    "ab",
    "Der Nasdaq verzeichnete die schlechteste Woche seit vier Jahren.",
    "DER NASDAQ verzeichnete die schlechteste Woche seit vier Jahren.",
    "Le Nasdaq a connu sa pire semaine depuis quatre ans.",
    "aaaaaaaaaaaaaaaaaaaaaaaa",
    "»Hallo,« sagte sie. 1,5 % — ½ ⅓ Ⅻ",
    "日本語のテキストと中文文本",
    "emoji \U0001F600 and math \U0001D538\U0001D539ℂ \U0010FFFF",
    "İstanbul ǅ ß ẞ Σσς",
    "tab\tnew\nline  spaces",
    "x" * 300 + " end",
)
PINNED_SHA256 = {
    8: "5b0e3fe8de870f4785bbcdc1a2807265abd30c14a813168d6339096d01411d7b",
    128: "f0f93bc82c3c9379d6d40a1e3c9c4e2593916126dbc9a1470a238e8a91d5f02f",
    512: "a9ed632fa02e8b8fb150144468806c608550e92c98f4f5878f27e9d8d7c2635f",
}


class TestLexicalEmbedder:
    @pytest.mark.parametrize("dim", sorted(PINNED_SHA256))
    def test_vectors_pinned_by_sha256(self, dim):
        digest = hashlib.sha256()
        for text in PINNED_TEXTS:
            digest.update(lexical_embed(text, dim).astype("<f8").tobytes())
        assert digest.hexdigest() == PINNED_SHA256[dim]

    @pytest.mark.parametrize("dim", sorted(PINNED_SHA256))
    def test_batch_equals_one_text_calls(self, dim):
        # one call shares its gram memo across texts, repeated ones included
        texts = [*PINNED_TEXTS, *reversed(PINNED_TEXTS)]
        batched = LexicalEmbedder(dim).embed(texts)
        single = [lexical_embed(t, dim) for t in texts]
        assert [v.tobytes() for v in batched] == [v.tobytes() for v in single]

    def test_unit_norm(self):
        vec = lexical_embed("Der Nasdaq verzeichnete die schlechteste Woche.")
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = lexical_embed("gleicher Text", 64)
        b = lexical_embed("gleicher Text", 64)
        assert np.array_equal(a, b)

    def test_identical_texts_cosine_one(self):
        a = lexical_embed("Hallo Welt")
        b = lexical_embed("Hallo Welt")
        assert float(a @ b) == pytest.approx(1.0, abs=1e-12)

    def test_case_insensitive(self):
        a = lexical_embed("HALLO Welt")
        b = lexical_embed("hallo welt")
        assert np.array_equal(a, b)

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
        assert float(a @ b) == pytest.approx(0.0, abs=1e-12)

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
        assert float(a @ b) == pytest.approx(oracle, abs=1e-12)

    def test_empty_text_is_a_unit_vector(self):
        vec = lexical_embed("", 16)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_small_dim_rejected(self):
        with pytest.raises(DataError):
            lexical_embed("x", 4)
        with pytest.raises(DataError):
            LexicalEmbedder(dim=7)

    def test_lexical_endpoint_needs_no_transport(self):
        cfg = embedding_config(endpoint="lexical:32")
        embedder = LexicalEmbedder(lexical_dim(cfg.endpoint))
        assert embedder.embed(["eins", "zwei"]).shape == (2, 32)
        assert embedder.backend_id == "lexical"

    def test_lexical_dim_parses_specs(self):
        assert lexical_dim("lexical:32") == 32
        assert lexical_dim("lexical:0065536") == MAX_LEXICAL_DIM == 65536
        assert lexical_dim("lexical") == DEFAULT_LEXICAL_DIM
        assert lexical_dim("lexical:") == DEFAULT_LEXICAL_DIM
        for other in ("https://svc.test/v1/embeddings", "identity:", "lexicalx:8"):
            assert lexical_dim(other) is None
        for bad in ("lexical:abc", "lexical:-8", "lexical:8.5", "lexical:65537"):
            with pytest.raises(DataError, match="bad lexical spec"):
                lexical_dim(bad)

    def test_embedder_object_metadata(self):
        emb = LexicalEmbedder(dim=64)
        assert (emb.backend_id, emb.model_id) == ("lexical", "char3gram-64")
        assert emb.embed(["a", "b"]).shape == (2, 64)


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
        assert [v[0] for v in vectors] == [1.0, 2.0, 3.0]

    def test_duplicates_requested_once(self):
        transport = RecordingTransport([echo_embeddings()])
        vectors = embed_batch(
            embedding_config(max_batch=8), ["a", "b", "a"], transport=transport
        )
        assert transport.calls[0][1]["input"] == ["a", "b"]
        assert np.array_equal(vectors[0], vectors[2])

    def test_missing_index_rejected(self):
        transport = RecordingTransport(
            [{"data": [{"index": 0, "embedding": [1.0]}, {"index": 0, "embedding": [2.0]}]}]
        )
        with pytest.raises(ProviderError, match="misses an index"):
            embed_batch(embedding_config(), ["a", "b"], transport=transport)

    @pytest.mark.parametrize(
        "index", [-1, "0", True, 1.0, 2], ids=["negative", "str", "bool", "float", "past-end"]
    )
    def test_bad_index_rejected_before_the_cache(self, tmp_path, index):
        cfg = embedding_config()
        cache = EmbeddingCache(tmp_path / "cache")
        entries = [{"index": 0, "embedding": [1.0, 0.0]}, {"index": index, "embedding": [0.0, 1.0]}]
        transport = RecordingTransport([{"data": entries}])
        with pytest.raises(ProviderError, match=r"data\[1\]: key 'index' is not (an integer|in 0..1)"):
            embed_batch(cfg, ["a", "b"], cache=cache, transport=transport)
        assert cache.get(cfg.endpoint, cfg.model_id, "a") is None

    def test_duplicated_index_rejected_before_the_cache(self, tmp_path):
        cfg = embedding_config()
        cache = EmbeddingCache(tmp_path / "cache")
        entries = [{"index": 1, "embedding": [1.0, 0.0]}, {"index": 1, "embedding": [0.0, 1.0]}]
        transport = RecordingTransport([{"data": entries}])
        with pytest.raises(ProviderError, match="misses an index"):
            embed_batch(cfg, ["a", "b"], cache=cache, transport=transport)
        assert cache.get(cfg.endpoint, cfg.model_id, "b") is None

    def test_wrong_entry_count_rejected(self):
        transport = RecordingTransport([{"data": [{"index": 0, "embedding": [1.0]}]}] * 3)
        with pytest.raises(ProviderError, match="key 'data' is not a list of 2 objects"):
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

    def test_dimension_mismatch_is_not_cached(self, tmp_path):
        def respond(payload):
            return {"data": [{"index": i, "embedding": [1.0] * (2 + i)}
                             for i in range(len(payload["input"]))]}

        cfg = embedding_config(max_batch=8)
        cache = EmbeddingCache(tmp_path / "cache")
        with pytest.raises(ProviderError, match="dimension mismatch"):
            embed_batch(cfg, ["a", "b"], cache=cache, transport=RecordingTransport([respond]))
        # the service answers right again: the texts are fetched, not read back
        transport = RecordingTransport([echo_embeddings(dim=2)])
        assert embed_batch(cfg, ["a", "b"], cache=cache, transport=transport).shape == (2, 2)
        assert len(transport.calls) == 1

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            embed_batch(embedding_config(), [])

    def test_kind_checked(self):
        cfg = ProviderConfig(kind="chat", endpoint="e", model_id="m")
        with pytest.raises(DataError):
            embed_batch(cfg, ["a"])

    @pytest.mark.parametrize(
        "embedding",
        [[[1.0, 2.0], [3.0, 4.0]], 5.0, [], [1.0, float("nan")]],
        ids=["2-d", "scalar", "empty", "nan"],
    )
    def test_bad_vector_rejected_before_the_cache(self, tmp_path, embedding):
        # a cached row is read back flat, so a bad vector must never reach it
        cfg = embedding_config()
        cache = EmbeddingCache(tmp_path / "cache")
        good = {"index": 0, "embedding": [1.0, 0.0]}
        transport = RecordingTransport([{"data": [good, {"index": 1, "embedding": embedding}]}])
        with pytest.raises(ProviderError, match=r"data\[1\]: key 'embedding' is not a non-empty"):
            embed_batch(cfg, ["a", "b"], cache=cache, transport=transport)
        assert len(transport.calls) == 1
        assert cache.get(cfg.endpoint, cfg.model_id, "b") is None
        db = sqlite3.connect(tmp_path / "cache" / "cache.sqlite3")
        assert db.execute("SELECT COUNT(*) FROM embeddings").fetchone() == (0,)
        db.close()

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
            assert np.array_equal(got, expected)


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

    def test_malformed_endpoint_url_not_retried(self, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError("a malformed URL must not be retried")

        monkeypatch.setattr("clsd.providers.time.sleep", no_sleep)
        cfg = embedding_config(endpoint="lexica:64", retry_attempts=3)
        with pytest.raises(ProviderError, match="lexica:64"):
            embed_batch(cfg, ["a"])

    @pytest.mark.parametrize(
        "endpoint",
        ["http://", "ftp://svc.test/x", "http://[::1", "http://svc.test:99999/",
         "http://svc.test/a b", "http://svc.test/\u00e9", "http://svc.test/\n"],
    )
    def test_invalid_endpoint_refused_before_any_socket(self, monkeypatch, endpoint):
        def no_socket(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr("socket.create_connection", no_socket)
        with pytest.raises(_PermanentProviderError, match="^invalid endpoint "):
            embed_batch(embedding_config(endpoint=endpoint), ["a"])


ONE_EMBEDDING = {"data": [{"index": 0, "embedding": [1.0, 0.0]}]}


class TestHttpStatusRetries:
    """Status handling of the HTTP transport, against a scripted loopback service."""

    @pytest.fixture
    def sleeps(self, monkeypatch):
        calls = []
        monkeypatch.setattr("clsd.providers.time.sleep", calls.append)
        return calls

    @pytest.fixture
    def serve(self, http_service):
        return http_service.script

    @pytest.fixture
    def cfg(self, http_service):
        return embedding_config(endpoint=http_service.url)

    @pytest.mark.parametrize("status", [408, 429])
    def test_retried_then_served(self, serve, sleeps, cfg, status):
        posts = serve(http_reply(status), http_reply(200, ONE_EMBEDDING))
        vectors = embed_batch(cfg, ["a"])
        assert vectors[0].tolist() == [1.0, 0.0]
        assert len(posts) == 2
        # no Retry-After: the configured backoff, 1 ms plus up to 25% jitter
        assert len(sleeps) == 1 and 0.001 <= sleeps[0] <= 0.00125

    @pytest.mark.parametrize(
        "header,wait",
        [("3", 3.0), (" 7 ", 7.0), ("3600", 60.0), ("0", None), ("1.5", None),
         ("-2", None), ("Wed, 21 Oct 2015 07:28:00 GMT", None)],
    )
    def test_retry_after_seconds_honoured_and_capped(self, serve, sleeps, cfg, header, wait):
        serve(http_reply(429, headers={"Retry-After": header}), http_reply(200, ONE_EMBEDDING))
        embed_batch(cfg, ["a"])
        assert len(sleeps) == 1
        if wait is None:  # not delay-seconds, or zero: the backoff alone
            assert 0.001 <= sleeps[0] <= 0.00125
        else:
            assert sleeps[0] == wait

    def test_throttled_until_attempts_run_out(self, serve, sleeps, cfg):
        posts = serve(*[http_reply(429, headers={"Retry-After": "2"})] * 3)
        with pytest.raises(ProviderError, match="giving up after 3 attempts: .* returned 429"):
            embed_batch(cfg, ["a"])
        assert len(posts) == 3
        assert sleeps == [2.0, 2.0]

    def test_chat_request_retried_after_429(self, serve, sleeps, http_service):
        reply = {"choices": [{"message": {"content": "1. eins"}}]}
        posts = serve(http_reply(429, headers={"Retry-After": "1"}), http_reply(200, reply))
        cfg = ProviderConfig(kind="chat", endpoint=http_service.url, model_id="c")
        assert chat_complete(cfg, [("user", "hallo")]) == "1. eins"
        assert len(posts) == 2 and sleeps == [1.0]

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 413, 422])
    def test_other_client_errors_not_retried(self, serve, sleeps, cfg, status):
        posts = serve(*[http_reply(status, {"error": "no"}, {"Retry-After": "1"})] * 3)
        with pytest.raises(_PermanentProviderError, match=f"rejected request \\({status}\\)"):
            embed_batch(cfg, ["a"])
        assert len(posts) == 1 and sleeps == []

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_not_followed(self, serve, sleeps, cfg, monkeypatch, status):
        monkeypatch.setenv("CLSD_TEST_KEY", "secret-token")
        elsewhere = cfg.endpoint.replace("127.0.0.1", "localhost") + "/elsewhere"
        moved = http_reply(status, {}, {"Location": elsewhere})
        posts = serve(moved, http_reply(200, ONE_EMBEDDING))
        keyed = embedding_config(endpoint=cfg.endpoint, api_key_env="CLSD_TEST_KEY")
        with pytest.raises(_PermanentProviderError, match=f"rejected request \\({status}\\): "):
            embed_batch(keyed, ["a"])
        assert len(posts) == 1 and sleeps == []

    def test_server_errors_retried_until_giving_up(self, serve, sleeps, cfg):
        posts = serve(http_reply(500), http_reply(502), http_reply(503))
        with pytest.raises(ProviderError, match="giving up after 3 attempts: .* returned 503$"):
            embed_batch(cfg, ["a"])
        assert len(posts) == 3 and len(sleeps) == 2

    @pytest.mark.parametrize("body", [b"<html>busy</html>", '{"data": "\xe9"}'.encode("latin-1")])
    def test_non_json_body_retried(self, serve, sleeps, cfg, body):
        posts = serve(*[http_reply(200, body)] * 3)
        with pytest.raises(ProviderError, match="giving up after 3 attempts: .* non-JSON body"):
            embed_batch(cfg, ["a"])
        assert len(posts) == 3

    def test_truncated_body_retried(self, serve, sleeps, cfg):
        short = http_reply(200, b'{"data": [', {"Content-Length": "1000"})
        posts = serve(short, http_reply(200, ONE_EMBEDDING))
        assert embed_batch(cfg, ["a"])[0].tolist() == [1.0, 0.0]
        assert len(posts) == 2 and len(sleeps) == 1
        serve(short)
        with pytest.raises(ProviderError, match="transport failure for .*IncompleteRead"):
            embed_batch(embedding_config(endpoint=cfg.endpoint, retry_attempts=1), ["a"])

    def test_slow_reply_times_out_and_is_retried(self, serve, sleeps, cfg, monkeypatch):
        # every reply is slow, so no request has to beat the short timeout
        monkeypatch.setattr("clsd.providers._REQUEST_TIMEOUT_S", 0.3)
        posts = serve(*[http_reply(200, ONE_EMBEDDING, delay=1.0)] * 2)
        twice = embedding_config(endpoint=cfg.endpoint, retry_attempts=2)
        with pytest.raises(ProviderError, match="after 2 attempts: transport failure .*timed out"):
            embed_batch(twice, ["a"])
        assert len(posts) == 2 and len(sleeps) == 1

    def test_refused_connection_retried(self, sleeps):
        with socket.socket() as probe:  # a port that nothing listens on once closed
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        cfg = embedding_config(endpoint=f"http://127.0.0.1:{port}/v1/embeddings")
        with pytest.raises(ProviderError, match="giving up after 3 attempts: transport failure"):
            embed_batch(cfg, ["a"])
        assert len(sleeps) == 2

    def test_bearer_header_and_exact_body_sent(self, serve, cfg, monkeypatch):
        monkeypatch.setenv("CLSD_TEST_KEY", "secret-token")
        reply = {"data": [{"index": 1, "embedding": [0.0, 1.0]}, ONE_EMBEDDING["data"][0]]}
        posts = serve(http_reply(200, reply))
        keyed = embedding_config(endpoint=cfg.endpoint, api_key_env="CLSD_TEST_KEY")
        assert embed_batch(keyed, ["a", "\u00fc"]).tolist() == [[1.0, 0.0], [0.0, 1.0]]
        [(headers, body)] = posts
        assert headers["Authorization"] == "Bearer secret-token"
        assert headers["Content-Type"] == "application/json"
        assert body == b'{"model": "emb-1", "input": ["a", "\\u00fc"]}'


class TestEmbeddingCache:
    def test_round_trip_and_manifest(self, tmp_path):
        text = "Der Satz selbst wird nie gespeichert."
        cache = EmbeddingCache(tmp_path / "cache")
        assert cache.get("b", "m", text) is None
        cache.put("b", "m", text, np.array([1.0, 2.0]))
        assert np.array_equal(cache.get("b", "m", text), [1.0, 2.0])
        files = [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]
        assert (tmp_path / "cache" / "cache.sqlite3") in files
        assert not (tmp_path / "cache" / "manifest.jsonl").exists()
        assert not (tmp_path / "cache" / "entries").exists()
        assert not any(text.encode("utf-8") in p.read_bytes() for p in files)

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
            assert np.array_equal(x, y)

    @pytest.mark.parametrize(
        "blob", [b"\x00" * 7, b"", np.array([1.0, np.nan]).tobytes()], ids=["7-bytes", "empty", "nan"]
    )
    def test_undecodable_row_is_a_miss_and_rewritten(self, tmp_path, blob):
        cfg = embedding_config()
        cache = EmbeddingCache(tmp_path / "cache")
        db = sqlite3.connect(tmp_path / "cache" / "cache.sqlite3", isolation_level=None)
        key = EmbeddingCache.key(cfg.endpoint, cfg.model_id, "a")
        db.execute("INSERT INTO embeddings VALUES (?, ?)", (key, blob))
        transport = RecordingTransport([{"data": [{"index": 0, "embedding": [3.0, 4.0]}]}])
        (vector,) = embed_batch(cfg, ["a"], cache=cache, transport=transport)
        assert len(transport.calls) == 1
        assert np.array_equal(vector, [3.0, 4.0])
        (stored,) = db.execute("SELECT vector FROM embeddings WHERE key = ?", (key,)).fetchone()
        assert np.array_equal(np.frombuffer(stored, dtype="<f8"), [3.0, 4.0])
        db.close()

    def test_two_processes_put_the_same_keys(self, tmp_path):
        # Both children wait until both are ready, then create the cache and put
        # 500 keys, each with its own vector.
        child = """
import sys, time
from pathlib import Path
import numpy as np
from clsd.providers import EmbeddingCache
root, me = Path(sys.argv[1]), float(sys.argv[2])
(root / f"ready{me}").touch()
deadline = time.monotonic() + 30
while len(list(root.glob("ready*"))) < 2 and time.monotonic() < deadline:
    time.sleep(0.001)
cache = EmbeddingCache(root / "cache")
for i in range(500):
    cache.put("b", "m", f"text {i}", np.array([me, float(i)]))
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(clsd.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")])}
        procs = [
            subprocess.Popen([sys.executable, "-c", child, str(tmp_path), str(me)],
                             env=env, stderr=subprocess.PIPE, text=True)
            for me in (1.0, 2.0)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        cache = EmbeddingCache(tmp_path / "cache")
        for i in range(500):
            got = cache.get("b", "m", f"text {i}")
            assert got is not None and got[1] == i and got[0] in (1.0, 2.0)

    def test_threads_share_one_cache(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "cache")
        errors = []

        def work(n):
            try:
                for i in range(200):
                    cache.put("b", "m", f"{n} {i}", np.array([n, i], dtype=float))
                    assert np.array_equal(cache.get("b", "m", f"{n} {i}"), [n, i])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


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

    def write_replay(self, path, entries):
        path.write_text(
            "".join(json.dumps({"key": k, "content": v}) + "\n" for k, v in entries.items()),
            encoding="utf-8",
        )

    def counted_parser(self, monkeypatch, delay_s=0.0):
        parsed = []
        real = providers._load_replay

        def load(path):
            parsed.append(path)
            time.sleep(delay_s)
            return real(path)

        monkeypatch.setattr(providers, "_load_replay", load)
        return parsed

    def test_replay_file_parsed_once(self, tmp_path, monkeypatch):
        parsed = self.counted_parser(monkeypatch)
        replay = tmp_path / "replies.jsonl"
        self.write_replay(replay, {f"q{i}": f"a{i}" for i in range(20)})
        cfg = self.chat_config(endpoint=f"replay:{replay}")
        replies = [chat_complete(cfg, [("user", f"q{i}")]) for i in range(20)]
        assert replies == [f"a{i}" for i in range(20)]
        assert parsed == [str(replay)]

    def test_replay_file_read_again_after_a_rewrite(self, tmp_path, monkeypatch):
        parsed = self.counted_parser(monkeypatch)
        replay = tmp_path / "replies.jsonl"
        self.write_replay(replay, {"q": "old"})
        cfg = self.chat_config(endpoint=f"replay:{replay}")
        assert chat_complete(cfg, [("user", "q")]) == "old"
        self.write_replay(replay, {"q": "a longer reply"})
        assert chat_complete(cfg, [("user", "q")]) == "a longer reply"
        assert len(parsed) == 2

    def test_second_replay_file_drops_the_first_table(self, tmp_path):
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        self.write_replay(first, {"q": "one"})
        self.write_replay(second, {"q": "two"})
        assert chat_complete(self.chat_config(endpoint=f"replay:{first}"), [("user", "q")]) == "one"
        assert chat_complete(self.chat_config(endpoint=f"replay:{second}"), [("user", "q")]) == "two"
        key, table = providers._replay_slot
        assert key[0] == str(second)
        assert table == {"q": "two"}

    def test_threads_parse_a_new_replay_file_once(self, tmp_path, monkeypatch):
        # a slow parse: every thread arrives while the first one parses
        parsed = self.counted_parser(monkeypatch, delay_s=0.05)
        replay = tmp_path / "replies.jsonl"
        self.write_replay(replay, {"q": "a"})
        cfg = self.chat_config(endpoint=f"replay:{replay}")
        errors = []

        def work():
            try:
                for _ in range(20):
                    assert chat_complete(cfg, [("user", "q")]) == "a"
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert parsed == [str(replay)]

    def test_malformed_replay_line_fails_every_call(self, tmp_path, monkeypatch):
        parsed = self.counted_parser(monkeypatch)
        replay = tmp_path / "replies.jsonl"
        replay.write_text(json.dumps({"key": "q", "content": "a"}) + "\n{not json\n")
        cfg = self.chat_config(endpoint=f"replay:{replay}")
        for _ in range(3):
            with pytest.raises(_PermanentProviderError, match=f"{replay}:2: invalid JSON: "):
                chat_complete(cfg, [("user", "q")])
        assert len(parsed) == 3

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
        with pytest.raises(ProviderError, match="key 'translations' is not a list of 2 strings"):
            translate_batch(
                self.translation_config(), ["a", "b"], "fr", "en", transport=transport
            )

    def test_make_translator_binds_config(self):
        cfg = self.translation_config(endpoint="identity:")
        translate = make_translator(cfg)
        assert translate(["bon"], "fr", "en") == ["bon"]
        assert translate.cfg == cfg

    def test_kind_checked(self):
        with pytest.raises(DataError):
            translate_batch(embedding_config(), ["x"], "fr", "en")


_ONE = {"index": 0, "embedding": [1.0, 0.0]}
_CHAT = "https://svc.test/v1/chat"
_MT = "https://svc.test/v1/translate"


def _second(entry):
    return {"data": [_ONE, {"index": 1, "embedding": [0.0, 1.0], **entry}]}


# (kind, reply, what the message names after the endpoint)
MALFORMED_REPLIES = [
    ("embedding", [], "expected an object holding key 'data'"),
    ("embedding", None, "expected an object holding key 'data'"),
    ("embedding", {}, "missing key 'data'"),
    ("embedding", {"data": [_ONE]}, "key 'data' is not a list of 2 objects"),
    ("embedding", {"data": [_ONE, 5]}, "key 'data' is not a list of 2 objects"),
    ("embedding", {"data": [_ONE, {"index": 1}]}, r"data\[1\]: missing key 'embedding'"),
    ("embedding", _second({"embedding": [10**400, 0.0]}), r"data\[1\]: key 'embedding' is not"),
    ("embedding", _second({"embedding": []}), r"data\[1\]: key 'embedding' is not"),
    ("embedding", _second({"embedding": [nan, 0.0]}), r"data\[1\]: key 'embedding' is not"),
    ("embedding", _second({"embedding": ["x", 0.0]}), r"data\[1\]: key 'embedding' is not"),
    ("embedding", _second({"index": True}), r"data\[1\]: key 'index' is not an integer"),
    ("embedding", _second({"index": 2}), r"data\[1\]: key 'index' is not in 0..1"),
    ("embedding", _second({"index": 0}), "embedding response misses an index"),
    ("translation", "x", "expected an object holding key 'translations'"),
    ("translation", {}, "missing key 'translations'"),
    ("translation", {"translations": ["x"]}, "key 'translations' is not a list of 2 strings"),
    ("translation", {"translations": ["x", 5]}, "key 'translations' is not a list of 2 strings"),
    ("chat", None, "expected an object holding key 'choices'"),
    ("chat", {"choices": []}, "key 'choices' is an empty list"),
    ("chat", {"choices": [{}]}, r"choices\[0\]: missing key 'message'"),
    ("chat", {"choices": [{"message": "hi"}]}, r"choices\[0\]: expected an object holding"),
    ("chat", {"choices": [{"message": {"content": 5}}]}, r"choices\[0\]: key 'content' is not a"),
    ("chat", {"choices": [{"message": {"content": " "}}]}, "empty completion"),
    # numeric strings and booleans are not numbers
    ("embedding", _second({"embedding": ["0.5", 0.0]}), r"data\[1\]: key 'embedding' is not"),
    ("embedding", _second({"embedding": [True, 0.0]}), r"data\[1\]: key 'embedding' is not"),
    ("embedding", _second({"embedding": [0.5, False]}), r"data\[1\]: key 'embedding' is not"),
]


@pytest.mark.parametrize("kind,reply,what", MALFORMED_REPLIES)
def test_malformed_reply_is_a_provider_error_naming_the_endpoint(kind, reply, what, tmp_path):
    """Every reply is read once, after the retries, under one rule; nothing
    of a refused embedding reply is cached."""
    calls = []

    def transport(endpoint, payload):
        calls.append(endpoint)
        return reply

    cache = EmbeddingCache(tmp_path / "cache")
    endpoint = {"embedding": embedding_config().endpoint, "chat": _CHAT, "translation": _MT}[kind]
    with pytest.raises(ProviderError, match=f"^malformed {kind} response from {endpoint}: {what}"):
        if kind == "embedding":
            embed_batch(embedding_config(), ["a", "b"], cache=cache, transport=transport)
        elif kind == "translation":
            cfg = ProviderConfig(kind=kind, endpoint=endpoint, model_id="mt-1")
            translate_batch(cfg, ["a", "b"], "fr", "en", transport=transport)
        else:
            cfg = ProviderConfig(kind=kind, endpoint=endpoint, model_id="chat-1")
            chat_complete(cfg, [("user", "f")], transport=transport)
    assert calls == [endpoint]
    db = sqlite3.connect(tmp_path / "cache" / "cache.sqlite3")
    assert db.execute("SELECT COUNT(*) FROM embeddings").fetchone() == (0,)
    db.close()


def test_one_request_path():
    """Only ``_request`` picks how a request is answered: the public calls hold
    no offline scheme and call neither the retry loop nor the HTTP transport,
    and the reply readers check no type themselves."""
    tree = ast.parse(Path(providers.__file__).read_text(encoding="utf-8"))
    callers: dict[str, set[str]] = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and node.id in ("_with_retries", "_http_transport"):
                    callers.setdefault(node.id, set()).add(fn.name)
            if fn.name in ("embed_batch", "chat_complete", "translate_batch"):
                text = ast.unparse(fn.body[1:])  # after the docstring
                assert "replay" not in text and "identity" not in text, fn.name
            if fn.name.startswith("_read"):  # reply values go through records' readers
                assert "isinstance" not in ast.unparse(fn), fn.name
    assert callers == {"_with_retries": {"_request"}, "_http_transport": {"_request"}}


def test_no_module_imports_requests():
    """The one HTTP transport is the standard library's: ``numpy`` is the only
    runtime dependency."""
    for module in sorted(Path(clsd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "requests" for n in names), module.name


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


class PeakTransport:
    """Fake service that records the peak number of requests in flight.

    Each request is held open until ``target`` requests are in flight, or
    for at most 2 s, so that a fan-out allowed to overlap them does.
    """

    def __init__(self, respond, target):
        self.respond = respond
        self.target = target
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()
        self._full = threading.Event()

    def __call__(self, endpoint, payload):
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            if self.in_flight >= self.target:
                self._full.set()
        try:
            self._full.wait(timeout=2.0)
            time.sleep(0.002)  # a wider fan-out would overlap this one
            return self.respond(payload)
        finally:
            with self._lock:
                self.in_flight -= 1


def _fan_out_embed(max_inflight):
    def respond(payload):
        return {"data": [{"index": i, "embedding": [float(t[1:]), 1.0]}
                         for i, t in enumerate(payload["input"])]}

    def call(transport):
        cfg = embedding_config(max_batch=2, max_inflight=max_inflight)
        matrix = embed_batch(cfg, [f"t{i}" for i in range(12)], transport=transport)
        return [row[0] for row in matrix], [float(i) for i in range(12)]

    return respond, call


def _fan_out_pivot(max_inflight):
    def respond(payload):
        return {"translations": [f"en:{t}" for t in payload["texts"]]}

    def call(transport):
        # max_batch 5 puts each instance in a group of its own
        cfg = ProviderConfig(kind="translation", endpoint="fake://mt", model_id="mt",
                             max_batch=5, max_inflight=max_inflight)
        dataset = [
            ClsdInstance(
                id=f"i{k}",
                source=Sentence(f"i{k} src", "de"),
                target=Sentence(f"i{k} tgt", "fr"),
                distractors=tuple(Sentence(f"i{k} d{j}", "fr") for j in range(4)),
            )
            for k in range(8)
        ]
        pivots, skipped = pivot_dataset(dataset, make_translator(cfg, transport), "en")
        assert skipped == []
        return [p.source.text for p in pivots], [f"en:i{k} src" for k in range(8)]

    return respond, call


def _fan_out_generate(max_inflight):
    def respond(payload):
        target = payload["messages"][-1]["content"].rsplit("\n", 1)[1]
        content = "\n".join(f"{n}. {target} {n}" for n in range(1, 5))
        return {"choices": [{"message": {"content": content}}]}

    def call(transport):
        chat = ProviderConfig(kind="chat", endpoint="https://svc.test/v1/chat",
                              model_id="chat-1", max_inflight=max_inflight)
        corpus = [
            ParallelPair(f"g{k}", Sentence(f"Satz {k}.", "de"), Sentence(f"Phrase {k}.", "fr"))
            for k in range(8)
        ]
        instances, _ = generate_dataset(corpus, GenerationConfig(chat=chat), transport=transport)
        return [i.distractors[0].text for i in instances], [f"Phrase {k}. 1" for k in range(8)]

    return respond, call


class TestFanOut:
    @pytest.mark.parametrize("max_inflight", [1, 3])
    @pytest.mark.parametrize(
        "case", [_fan_out_embed, _fan_out_pivot, _fan_out_generate],
        ids=["embed_batch", "pivot_dataset", "generate_dataset"],
    )
    def test_bounded_and_ordered(self, case, max_inflight):
        respond, call = case(max_inflight)
        transport = PeakTransport(respond, target=max_inflight)
        got, expected = call(transport)
        assert got == expected
        assert transport.peak == max_inflight


def test_one_thread_pool_and_one_json_reader():
    """Only the provider layer fans out threads, only records parses JSON, and
    only records' prefix helper takes a ``ctx``: no reader builds the prefix itself."""
    src = Path(clsd.__file__).parent
    for module in sorted(src.glob("*.py")):
        text = module.read_text(encoding="utf-8")
        needles = ("ThreadPoolExecutor",) if module.name != "providers.py" else ()
        if module.name != "records.py":
            needles += ("json.load(", "json.loads(")
        for needle in needles:
            assert needle not in text, f"{module.name} uses {needle}"
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                params = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
                where = (module.name, getattr(node, "name", "<lambda>"))
                assert "ctx" not in params or where == ("records.py", "_context"), where


def _surrogate_generate():
    def transport(endpoint, payload):
        target = payload["messages"][-1]["content"].rsplit("\n", 1)[1]
        mark = "\ud800" if target == "Phrase 0." else ""
        content = "\n".join(f"{n}. {target} {n}{mark}" for n in range(1, 5))
        return {"choices": [{"message": {"content": content}}]}

    chat = ProviderConfig(kind="chat", endpoint="https://svc.test/v1/chat", model_id="chat-1")
    cfg = GenerationConfig(chat=chat)
    corpus = [
        ParallelPair(f"p{k}", Sentence(f"Satz {k}.", "de"), Sentence(f"Phrase {k}.", "fr"))
        for k in range(3)
    ]
    instances, log = generate_dataset(corpus, cfg, transport=transport)
    with pytest.raises(ProviderError) as refused:  # the log keeps no reason
        generate_instance(corpus[0], cfg, transport=transport)
    return instances, [e.pair_id for e in log if e.outcome != "ok"], str(refused.value)


def _surrogate_pivot():
    def transport(endpoint, payload):
        texts = payload["texts"]
        return {"translations": [f"en:{t}" + ("\udc80" if t[:3] == "p0 " else "") for t in texts]}

    cfg = ProviderConfig(kind="translation", endpoint="fake://mt", model_id="mt")
    dataset = [
        ClsdInstance(
            id=f"p{k}",
            source=Sentence(f"p{k} src", "de"),
            target=Sentence(f"p{k} tgt", "fr"),
            distractors=tuple(Sentence(f"p{k} d{j}", "fr") for j in range(4)),
        )
        for k in range(3)
    ]
    pivots, skipped = pivot_dataset(dataset, make_translator(cfg, transport), "en")
    return pivots, [i for i, _ in skipped], "; ".join(reason for _, reason in skipped)


@pytest.mark.parametrize("case", [_surrogate_generate, _surrogate_pivot],
                         ids=["chat_complete", "translate_batch"])
def test_lone_surrogate_from_provider_is_refused(case, tmp_path):
    """Text UTF-8 cannot encode is refused where it enters, so the one bad
    instance is skipped and the rest still save."""
    instances, skipped, reason = case()
    assert skipped == ["p0"]
    assert "lone surrogate" in reason
    out = tmp_path / "out.jsonl"
    save_clsd_dataset(instances, out)
    assert [i.id for i in load_clsd_dataset(out)] == ["p1", "p2"]
