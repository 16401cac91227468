"""Clients for embedding, chat, and translation services, plus offline stand-ins.

Wire protocol is the common JSON shape spoken by most model servers:

* embedding: ``POST endpoint`` with ``{"model", "input": [...]}``, response
  ``{"data": [{"index": i, "embedding": [...]}]}`` (entries reordered by index)
* chat: ``{"model", "messages", "temperature", "top_p"}``, content read from
  ``choices[0].message.content``
* translation: ``{"model", "src", "tgt", "texts"}``, response
  ``{"translations": [...]}``

Offline endpoint schemes, used by tests and desk-scale runs:

* ``replay:<file.jsonl>`` (chat): each line ``{"key", "content"}``; the key is
  matched against the final user message verbatim.
* ``identity:`` (translation): returns inputs unchanged.
* ``lexical`` / ``lexical:<dim>`` (embedding): the built-in character n-gram
  embedder, :class:`LexicalEmbedder`; :func:`lexical_dim` parses the spec.

API keys are read from the environment variable named in the config and are
never written to disk. Batch operations preserve input order regardless of
chunking or request concurrency.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import DataError, ProviderError

KIND_EMBEDDING = "embedding"
KIND_CHAT = "chat"
KIND_TRANSLATION = "translation"

_REQUEST_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class EmbeddingVector:
    """A finite real vector from a named backend/model; compared by cosine only."""

    values: np.ndarray
    backend_id: str
    model_id: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise DataError("embedding must be a non-empty 1-d vector")
        if not np.all(np.isfinite(values)):
            raise DataError("embedding contains non-finite components")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class ChatParams:
    temperature: float = 1.0
    top_p: float = 1.0

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise DataError("temperature must be >= 0")
        if not (0 < self.top_p <= 1):
            raise DataError("top_p must be in (0, 1]")


@dataclass(frozen=True)
class ProviderConfig:
    kind: str
    endpoint: str
    model_id: str
    api_key_env: str | None = None
    max_batch: int = 32
    max_inflight: int = 4
    retry_attempts: int = 3
    retry_base_ms: int = 250

    def __post_init__(self) -> None:
        if self.kind not in (KIND_EMBEDDING, KIND_CHAT, KIND_TRANSLATION):
            raise DataError(f"unknown provider kind {self.kind!r}")
        if self.max_batch < 1 or self.max_inflight < 1:
            raise DataError("max_batch and max_inflight must be >= 1")
        if self.retry_attempts < 1:
            raise DataError("retry_attempts must be >= 1")


Transport = Callable[[str, dict], dict]
"""Posts a JSON payload to an endpoint and returns the parsed response."""


def _auth_headers(cfg: ProviderConfig) -> dict[str, str]:
    if not cfg.api_key_env:
        return {}
    key = os.environ.get(cfg.api_key_env)
    if key is None:
        raise ProviderError(
            f"API key environment variable {cfg.api_key_env!r} is not set"
        )
    return {"Authorization": f"Bearer {key}"}


def _http_transport(cfg: ProviderConfig) -> Transport:
    import requests

    headers = {"Content-Type": "application/json", **_auth_headers(cfg)}

    def post(endpoint: str, payload: dict) -> dict:
        try:
            resp = requests.post(
                endpoint, json=payload, headers=headers, timeout=_REQUEST_TIMEOUT_S
            )
        except requests.RequestException as exc:
            raise ProviderError(f"transport failure for {endpoint}: {exc}") from exc
        if resp.status_code >= 500:
            raise ProviderError(f"{endpoint} returned {resp.status_code}")
        if resp.status_code >= 400:
            # Client errors are not retryable; fail loudly with the payload.
            raise _PermanentProviderError(
                f"{endpoint} rejected request ({resp.status_code}): {resp.text[:500]}"
            )
        try:
            return resp.json()
        except ValueError as exc:
            raise ProviderError(f"{endpoint} returned non-JSON body") from exc

    return post


class _PermanentProviderError(ProviderError):
    """Provider failure that retrying cannot fix."""


def _with_retries(cfg: ProviderConfig, call: Callable[[], dict]) -> dict:
    last: ProviderError | None = None
    for attempt in range(cfg.retry_attempts):
        try:
            return call()
        except _PermanentProviderError:
            raise
        except ProviderError as exc:
            last = exc
            if attempt + 1 < cfg.retry_attempts:
                backoff = cfg.retry_base_ms / 1000.0 * (2**attempt)
                time.sleep(backoff * (1.0 + random.random() * 0.25))
    raise ProviderError(
        f"giving up after {cfg.retry_attempts} attempts: {last}"
    ) from last


# ---------------------------------------------------------------------------
# Embedding cache

class EmbeddingCache:
    """Content-addressed on-disk cache for embeddings.

    One ``.npy`` file per (backend, model, text) entry under ``entries/``,
    written atomically (temp file + rename) so a crash mid-write never
    corrupts committed entries, plus an append-only ``manifest.jsonl``.
    Concurrent readers are safe; writes are serialized per process.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.entries = self.root / "entries"
        self.entries.mkdir(parents=True, exist_ok=True)
        self.manifest = self.root / "manifest.jsonl"
        self._lock = threading.Lock()

    @staticmethod
    def key(backend_id: str, model_id: str, text: str) -> str:
        payload = json.dumps([backend_id, model_id, text], ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.entries / f"{key}.npy"

    def get(self, backend_id: str, model_id: str, text: str) -> np.ndarray | None:
        path = self._entry_path(self.key(backend_id, model_id, text))
        if not path.exists():
            return None
        return np.load(path)

    def put(self, backend_id: str, model_id: str, text: str, values: np.ndarray) -> None:
        key = self.key(backend_id, model_id, text)
        path = self._entry_path(key)
        with self._lock:
            if path.exists():
                return
            # np.save appends .npy when missing, so keep the suffix on the temp name
            tmp = path.with_name(path.name + ".tmp.npy")
            np.save(tmp, np.asarray(values, dtype=np.float64))
            os.replace(tmp, path)
            with open(self.manifest, "a", encoding="utf-8") as fh:
                fh.write(
                    json.dumps(
                        {
                            "key": key,
                            "backend_id": backend_id,
                            "model_id": model_id,
                            "text_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                        },
                        ensure_ascii=False,
                    )
                )
                fh.write("\n")


# ---------------------------------------------------------------------------
# Embedding

def embed_batch(
    cfg: ProviderConfig,
    texts: Sequence[str],
    cache: EmbeddingCache | None = None,
    transport: Transport | None = None,
) -> list[EmbeddingVector]:
    """Embed texts in input order, chunked to ``max_batch`` per request.

    Duplicate texts are requested once. Cached entries are served without any
    network traffic; up to ``max_inflight`` chunk requests run concurrently.
    """
    if cfg.kind != KIND_EMBEDDING:
        raise DataError(f"embed_batch needs an embedding config, got {cfg.kind!r}")
    if not texts:
        raise DataError("embed_batch called with no texts")

    backend_id = cfg.endpoint
    by_text: dict[str, np.ndarray] = {}
    misses: list[str] = []
    for text in dict.fromkeys(texts):
        hit = cache.get(backend_id, cfg.model_id, text) if cache else None
        if hit is None:
            misses.append(text)
        else:
            by_text[text] = hit

    if misses:
        post = transport or _http_transport(cfg)
        chunks = [
            misses[i : i + cfg.max_batch] for i in range(0, len(misses), cfg.max_batch)
        ]

        def fetch(chunk: list[str]) -> list[np.ndarray]:
            payload = {"model": cfg.model_id, "input": list(chunk)}
            resp = _with_retries(cfg, lambda: post(cfg.endpoint, payload))
            data = resp.get("data")
            if not isinstance(data, list) or len(data) != len(chunk):
                raise ProviderError(
                    f"embedding backend returned {0 if not isinstance(data, list) else len(data)} "
                    f"entries for {len(chunk)} inputs"
                )
            ordered: list[np.ndarray | None] = [None] * len(chunk)
            for entry in data:
                try:
                    ordered[int(entry["index"])] = np.asarray(
                        entry["embedding"], dtype=np.float64
                    )
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    raise ProviderError(f"malformed embedding entry: {entry!r}") from exc
            if any(v is None for v in ordered):
                raise ProviderError("embedding response misses an index")
            return ordered  # type: ignore[return-value]

        if len(chunks) == 1 or cfg.max_inflight == 1:
            results = [fetch(c) for c in chunks]
        else:
            with ThreadPoolExecutor(max_workers=cfg.max_inflight) as pool:
                results = list(pool.map(fetch, chunks))
        for chunk, vectors in zip(chunks, results):
            for text, values in zip(chunk, vectors):
                by_text[text] = values
                if cache:
                    cache.put(backend_id, cfg.model_id, text, values)

    dims = {by_text[t].size for t in texts}
    if len(dims) != 1:
        raise ProviderError(f"dimension mismatch across batch: {sorted(dims)}")
    return [
        EmbeddingVector(values=by_text[t], backend_id=backend_id, model_id=cfg.model_id)
        for t in texts
    ]


DEFAULT_LEXICAL_DIM = 512

# Fixed, documented hash seed: the lexical embedder must give byte-identical
# vectors on every platform and run.
_LEXICAL_HASH_SEED = b"clsd-lexical-v1:"
_BOUNDARY = "\x00"


def _lexical_bucket(gram: str, dim: int) -> int:
    digest = hashlib.sha256(_LEXICAL_HASH_SEED + gram.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dim


def lexical_dim(spec: str) -> int | None:
    """Dimension named by a ``lexical`` / ``lexical:<dim>`` spec, else ``None``.

    ``lexical`` and ``lexical:`` mean :data:`DEFAULT_LEXICAL_DIM`.
    """
    scheme, _, dim = spec.partition(":")
    if scheme != "lexical":
        return None
    if not dim:
        return DEFAULT_LEXICAL_DIM
    if not dim.isdecimal():
        raise DataError(f"bad lexical spec {spec!r}: expected lexical[:dim]")
    return int(dim)


def lexical_embed(text: str, dim: int = DEFAULT_LEXICAL_DIM) -> EmbeddingVector:
    """Deterministic character 3-gram hashing embedder, L2-normalized.

    An offline baseline for pipeline runs and tests, not a quality claim.
    """
    if dim < 8:
        raise DataError("lexical embedding dimension must be >= 8")
    counts = np.zeros(dim, dtype=np.float64)
    padded = _BOUNDARY + text.lower() + _BOUNDARY
    for i in range(len(padded) - 2):
        counts[_lexical_bucket(padded[i : i + 3], dim)] += 1.0
    norm = float(np.linalg.norm(counts))
    if norm == 0.0:
        counts[0] = 1.0
        norm = 1.0
    return EmbeddingVector(
        values=counts / norm, backend_id="lexical", model_id=f"char3gram-{dim}"
    )


# ---------------------------------------------------------------------------
# Chat completion

def _load_replay(path: str) -> dict[str, str]:
    table: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                table[obj["key"]] = obj["content"]
    return table


def chat_complete(
    cfg: ProviderConfig,
    messages: Sequence[tuple[str, str]] | Sequence[dict],
    params: ChatParams = ChatParams(),
    transport: Transport | None = None,
) -> str:
    """Return the assistant message content for a chat request, verbatim."""
    if cfg.kind != KIND_CHAT:
        raise DataError(f"chat_complete needs a chat config, got {cfg.kind!r}")
    if not messages:
        raise DataError("chat_complete called with no messages")
    normalized = [
        m if isinstance(m, dict) else {"role": m[0], "content": m[1]} for m in messages
    ]

    if cfg.endpoint.startswith("replay:"):
        table = _load_replay(cfg.endpoint.split(":", 1)[1])
        user = [m for m in normalized if m["role"] == "user"]
        key = user[-1]["content"] if user else ""
        if key not in table:
            raise ProviderError("no replay entry for this prompt")
        content = table[key]
    else:
        payload = {
            "model": cfg.model_id,
            "messages": normalized,
            "temperature": params.temperature,
            "top_p": params.top_p,
        }
        post = transport or _http_transport(cfg)
        resp = _with_retries(cfg, lambda: post(cfg.endpoint, payload))
        try:
            content = resp["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed chat response: {resp!r}") from exc
    if not isinstance(content, str) or not content.strip():
        raise ProviderError("empty completion")
    return content


# ---------------------------------------------------------------------------
# Translation

def translate_batch(
    cfg: ProviderConfig,
    texts: Sequence[str],
    src: str,
    tgt: str,
    transport: Transport | None = None,
) -> list[str]:
    """Translate texts src -> tgt, order preserved, chunked to ``max_batch``."""
    if cfg.kind != KIND_TRANSLATION:
        raise DataError(f"translate_batch needs a translation config, got {cfg.kind!r}")
    if src == tgt:
        raise DataError(f"translation requires src != tgt, got {src!r} twice")
    texts = list(texts)
    if cfg.endpoint.startswith("identity:"):
        return texts

    post = transport or _http_transport(cfg)
    out: list[str] = []
    for i in range(0, len(texts), cfg.max_batch):
        chunk = texts[i : i + cfg.max_batch]
        payload = {"model": cfg.model_id, "src": src, "tgt": tgt, "texts": chunk}
        resp = _with_retries(cfg, lambda: post(cfg.endpoint, payload))
        translations = resp.get("translations")
        if not isinstance(translations, list) or not all(
            isinstance(t, str) for t in translations
        ):
            raise ProviderError(f"malformed translation response: {resp!r}")
        if len(translations) != len(chunk):
            raise ProviderError(
                f"count mismatch: sent {len(chunk)} texts, got {len(translations)} translations"
            )
        out.extend(translations)
    return out


# ---------------------------------------------------------------------------
# Embedder / translator objects consumed by the evaluation layer

class Embedder(Protocol):
    backend_id: str
    model_id: str

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]: ...


class LexicalEmbedder:
    """Offline embedder backed by :func:`lexical_embed`."""

    def __init__(self, dim: int = DEFAULT_LEXICAL_DIM) -> None:
        if dim < 8:
            raise DataError("lexical embedding dimension must be >= 8")
        self.dim = dim
        self.backend_id = "lexical"
        self.model_id = f"char3gram-{dim}"

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return [lexical_embed(t, self.dim) for t in texts]


class ServiceEmbedder:
    """Embedder backed by a remote service, with optional on-disk cache."""

    def __init__(
        self,
        cfg: ProviderConfig,
        cache: EmbeddingCache | None = None,
        transport: Transport | None = None,
    ) -> None:
        self.cfg = cfg
        self.cache = cache
        self.transport = transport
        self.backend_id = cfg.endpoint
        self.model_id = cfg.model_id

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return embed_batch(self.cfg, texts, cache=self.cache, transport=self.transport)


Translator = Callable[[Sequence[str], str, str], list[str]]


def make_translator(cfg: ProviderConfig, transport: Transport | None = None) -> Translator:
    def translate(texts: Sequence[str], src: str, tgt: str) -> list[str]:
        return translate_batch(cfg, texts, src, tgt, transport=transport)

    return translate
