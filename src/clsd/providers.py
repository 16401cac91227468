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
  matched against the final user message verbatim. The file is parsed once
  per path, inode, size and mtime, and a malformed line fails every request,
  naming the file and line.
* ``identity:`` (translation): returns inputs unchanged.
* ``lexical`` / ``lexical:<dim>`` (embedding): the built-in character n-gram
  embedder, :class:`LexicalEmbedder`; :func:`lexical_dim` parses the spec.

Every request goes through :func:`_request`: ``replay:`` and ``identity:``
are asked once, other endpoints are retried, and each reply is read with the
``records`` readers; only :func:`_http_transport`, on ``urllib.request``,
opens a socket, and it follows no redirect. A malformed reply, such as an
embedding that is not a non-empty finite vector (refused before it is cached)
or text UTF-8 cannot encode, is a :class:`ProviderError` naming the endpoint.
Every embedder returns one read-only ``(n, d)`` float64 matrix per batch, row
``i`` for text ``i``, and carries ``backend_id`` and ``model_id``.

API keys are read from the environment variable named in the config and are
never written to disk. Batch operations preserve input order regardless of
chunking or request concurrency. Service embeddings can be cached in one
SQLite file per cache directory, :class:`EmbeddingCache`. A translator from
:func:`make_translator` carries its config, so callers can size and overlap
their requests by its ``max_batch`` and ``max_inflight``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence, TypeVar

import numpy as np

from .errors import DataError, ProviderError
from .records import _context, _get, _int, _is_obj, _is_reals, _is_str, _json_value, _list
from .records import _load_jsonl, _str

KIND_EMBEDDING = "embedding"
KIND_CHAT = "chat"
KIND_TRANSLATION = "translation"

_REQUEST_TIMEOUT_S = 60.0

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class ChatParams:
    temperature: float = 1.0
    top_p: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.temperature):
            raise DataError("temperature must be finite")
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
        if self.retry_base_ms < 0:
            raise DataError("retry_base_ms must be >= 0")


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
    from http.client import HTTPException
    from urllib.error import HTTPError
    from urllib.parse import urlsplit
    from urllib.request import HTTPRedirectHandler, Request, build_opener

    class Unfollowed(HTTPRedirectHandler):  # a 3xx stays an HTTPError: the key goes nowhere else
        def redirect_request(self, *args) -> None:
            return None

    urlopen = build_opener(Unfollowed).open
    headers = {"Content-Type": "application/json", **_auth_headers(cfg)}

    def post(endpoint: str, payload: dict) -> dict:
        try:  # checked before any socket opens; reading ``port`` checks it too
            url = urlsplit(endpoint)
            plain = endpoint.isascii() and endpoint.isprintable() and " " not in endpoint
            if not (plain and url.scheme in ("http", "https") and url.hostname) or url.port == 0:
                raise ValueError("expected an http(s) URL with a host, in ASCII without spaces")
        except ValueError as exc:
            raise _PermanentProviderError(f"invalid endpoint {endpoint!r}: {exc}") from exc
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        try:
            try:
                with urlopen(Request(endpoint, body, headers), timeout=_REQUEST_TIMEOUT_S) as resp:
                    status, reply, data = resp.status, resp.headers, resp.read()
            except HTTPError as exc:  # any status but 2xx; it holds the open response
                with exc:
                    status, reply, data = exc.code, exc.headers, exc.read()
        except (HTTPException, OSError) as exc:  # URLError is an OSError
            raise ProviderError(f"transport failure for {endpoint}: {exc}") from exc
        if status >= 500:
            raise ProviderError(f"{endpoint} returned {status}")
        if status in (408, 429):  # request timeout / too many requests: come back later
            wait_s = _retry_after_s(reply.get("Retry-After", ""))
            raise _RetryLaterError(f"{endpoint} returned {status}", wait_s)
        if status >= 300:  # client errors and redirects are not retried; show the payload
            text = data.decode("utf-8", "replace")[:500]
            raise _PermanentProviderError(f"{endpoint} rejected request ({status}): {text}")
        try:
            return _json_value(data)
        except ValueError as exc:
            raise ProviderError(f"{endpoint} returned non-JSON body") from exc

    return post


class _PermanentProviderError(ProviderError):
    """Provider failure that retrying cannot fix."""


class _RetryLaterError(ProviderError):
    """Retryable refusal; ``wait_s`` is the server's ``Retry-After``, or 0."""

    def __init__(self, message: str, wait_s: float) -> None:
        super().__init__(message)
        self.wait_s = wait_s


def _retry_after_s(header: str) -> float:
    """Seconds named by a delay-seconds ``Retry-After``, capped; else 0."""
    header = header.strip()
    return min(float(header), _REQUEST_TIMEOUT_S) if header.isdecimal() else 0.0


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
                wait = backoff * (1.0 + random.random() * 0.25)
                if isinstance(exc, _RetryLaterError):
                    wait = max(wait, exc.wait_s)
                time.sleep(wait)
    raise ProviderError(
        f"giving up after {cfg.retry_attempts} attempts: {last}"
    ) from last


def _ordered_map(
    fn: Callable[[_T], _R], items: Sequence[_T], max_inflight: int
) -> list[_R]:
    """``[fn(item) for item in items]`` with up to ``max_inflight`` calls in flight.

    The one thread fan-out of the package. Results keep input order. The
    first exception in input order propagates once the calls already
    running have ended; calls not yet started are dropped.
    """
    if len(items) <= 1 or max_inflight == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(max_inflight, len(items))) as pool:
        return list(pool.map(fn, items))


def _request(
    cfg: ProviderConfig, payload: dict, read: Callable[[dict], _R], transport: Transport | None
) -> _R:
    """``read(reply)`` for one request: the one place a request is answered.

    ``identity:`` (translation) and ``replay:`` (chat) build the reply in place,
    once; other endpoints are posted under :func:`_with_retries`. A
    :class:`DataError` from ``read`` becomes a :class:`ProviderError` naming
    the endpoint."""
    scheme, _, rest = cfg.endpoint.partition(":")
    if cfg.kind == KIND_TRANSLATION and scheme == "identity":
        resp = {"translations": payload["texts"]}
    elif cfg.kind == KIND_CHAT and scheme == "replay":
        table = _replay_table(rest)
        user = [m["content"] for m in payload["messages"] if m["role"] == "user"]
        key = user[-1] if user else ""
        if key not in table:
            raise ProviderError("no replay entry for this prompt")
        resp = {"choices": [{"message": {"content": table[key]}}]}
    else:
        post = transport or _http_transport(cfg)
        resp = _with_retries(cfg, lambda: post(cfg.endpoint, payload))
    try:
        return read(resp)
    except DataError as exc:
        raise ProviderError(f"malformed {cfg.kind} response from {cfg.endpoint}: {exc}") from exc


# ---------------------------------------------------------------------------
# Embedding cache

class EmbeddingCache:
    """Content-addressed embedding cache in one SQLite file, ``<root>/cache.sqlite3``.

    One row per (backend, model, text): the sha256 :meth:`key` and the vector
    as little-endian float64 bytes; the text itself is never stored. The first
    writer of a key wins. Processes share the file through SQLite's WAL
    journal; the threads of one process share one connection under a lock. A
    row that does not decode to a non-empty finite vector is deleted and read
    as a miss, so the caller fetches that text again.
    """

    def __init__(self, root: str | Path) -> None:
        import sqlite3

        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        busy_s = 60.0  # how long to wait for another process's lock
        path = self.root / "cache.sqlite3"
        try:
            self._db = sqlite3.connect(
                path, timeout=busy_s, isolation_level=None, check_same_thread=False
            )
            # a connection is freed only when closed, not when its owner is dropped
            weakref.finalize(self, self._db.close)
            # A table of this name with other columns is not ours. Check before
            # the switch to WAL, which rewrites the file header.
            columns = [row[1] for row in self._db.execute("PRAGMA table_info(embeddings)")]
            if columns not in ([], ["key", "vector"]):
                raise sqlite3.DatabaseError(f"table embeddings has columns {columns}")
            # Switching a new file to WAL fails at once, without the busy
            # timeout, while another process switches it; retry until done.
            deadline = time.monotonic() + busy_s
            while True:
                try:
                    self._db.execute("PRAGMA journal_mode=WAL")
                    break
                except sqlite3.OperationalError as exc:
                    if "locked" not in str(exc) or time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
            # every commit need not reach the disk: a lost entry is fetched again
            self._db.execute("PRAGMA synchronous=NORMAL")
            # reads are point lookups that the OS page cache serves anyway
            self._db.execute("PRAGMA cache_size=-64")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS embeddings "
                "(key TEXT PRIMARY KEY, vector BLOB NOT NULL) WITHOUT ROWID"
            )
        except sqlite3.DatabaseError as exc:
            # the file is the user's: report it, never replace it
            raise DataError(f"{path}: cannot open as an embedding cache: {exc}") from exc

    @staticmethod
    def key(backend_id: str, model_id: str, text: str) -> str:
        payload = json.dumps([backend_id, model_id, text], ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def get(self, backend_id: str, model_id: str, text: str) -> np.ndarray | None:
        key = self.key(backend_id, model_id, text)
        with self._lock:
            row = self._db.execute(
                "SELECT vector FROM embeddings WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        blob = row[0]
        if isinstance(blob, bytes) and blob and len(blob) % 8 == 0:
            values = np.frombuffer(blob, dtype="<f8")
            if np.isfinite(values).all():
                return values
        with self._lock:
            self._db.execute("DELETE FROM embeddings WHERE key = ?", (key,))
        return None

    def put(self, backend_id: str, model_id: str, text: str, values: np.ndarray) -> None:
        row = (self.key(backend_id, model_id, text), np.asarray(values, dtype="<f8").tobytes())
        with self._lock:
            self._db.execute("INSERT OR IGNORE INTO embeddings VALUES (?, ?)", row)


# ---------------------------------------------------------------------------
# Embedding

def _read_embeddings(resp: dict, n: int) -> list[np.ndarray]:
    """The ``n`` vectors of an embedding reply, in ``index`` order."""
    ordered: list[np.ndarray | None] = [None] * n
    for i, entry in enumerate(_list(resp, "data", _is_obj, f"{n} objects", n)):
        try:
            index, embedding = _int(entry, "index"), _get(entry, "embedding")
            if not 0 <= index < n:
                raise DataError(f"key 'index' is not in 0..{n - 1}")
            values = np.empty(0)
            if _is_reals(embedding):  # one type check per list, not one per value
                try:
                    values = np.fromiter(embedding, np.float64, len(embedding))
                except OverflowError:  # an integer beyond float range
                    pass
            # checked before the cache sees it: a cached row is read back flat
            if values.size < 1 or not np.isfinite(values).all():
                raise DataError("key 'embedding' is not a non-empty list of finite numbers")
        except DataError:
            with _context(f"data[{i}]"):  # built on the error path only
                raise
        ordered[index] = values
    if any(v is None for v in ordered):
        raise DataError("embedding response misses an index")
    return ordered  # type: ignore[return-value]


def embed_batch(
    cfg: ProviderConfig,
    texts: Sequence[str],
    cache: EmbeddingCache | None = None,
    transport: Transport | None = None,
) -> np.ndarray:
    """Embed texts into one read-only ``(n, d)`` matrix, row ``i`` for ``texts[i]``.

    Requests are chunked to ``max_batch`` texts and duplicate texts are
    requested once. Cached entries are served without any network traffic;
    up to ``max_inflight`` chunk requests run concurrently.
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
        chunks = [
            misses[i : i + cfg.max_batch] for i in range(0, len(misses), cfg.max_batch)
        ]

        def fetch(chunk: list[str]) -> list[np.ndarray]:
            read = lambda resp: _read_embeddings(resp, len(chunk))
            return _request(cfg, {"model": cfg.model_id, "input": chunk}, read, transport)

        results = _ordered_map(fetch, chunks, cfg.max_inflight)
        for chunk, vectors in zip(chunks, results):
            by_text.update(zip(chunk, vectors))

    dims = {values.size for values in by_text.values()}
    if len(dims) != 1:
        raise ProviderError(f"dimension mismatch across batch: {sorted(dims)}")
    if cache:
        # only a batch that passed every check is cached
        for text in misses:
            cache.put(backend_id, cfg.model_id, text, by_text[text])
    matrix = np.stack([by_text[t] for t in texts])
    matrix.setflags(write=False)
    return matrix


DEFAULT_LEXICAL_DIM = 512
MAX_LEXICAL_DIM = 65_536  # a 512 KB row; the widest in use is 1,024

# Fixed, documented hash seed: the lexical embedder must give byte-identical
# vectors on every platform and run.
_LEXICAL_HASH_SEED = b"clsd-lexical-v1:"
_BOUNDARY = "\x00"


def _lexical_bucket(gram: str, dim: int) -> int:
    digest = hashlib.sha256(_LEXICAL_HASH_SEED + gram.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dim


def lexical_dim(spec: str) -> int | None:
    """Dimension named by a ``lexical`` / ``lexical:<dim>`` spec, else ``None``.

    ``lexical`` and ``lexical:`` mean :data:`DEFAULT_LEXICAL_DIM`; a dim
    above :data:`MAX_LEXICAL_DIM` is refused before it is converted.
    """
    scheme, _, dim = spec.partition(":")
    if scheme != "lexical":
        return None
    if not dim:
        return DEFAULT_LEXICAL_DIM
    if not dim.isdecimal():
        raise DataError(f"bad lexical spec {spec!r}: expected lexical[:dim]")
    if len(dim.lstrip("0")) > len(str(MAX_LEXICAL_DIM)) or int(dim) > MAX_LEXICAL_DIM:
        raise DataError(f"bad lexical spec: dim must be at most {MAX_LEXICAL_DIM}")
    return int(dim)


def lexical_embed(text: str, dim: int = DEFAULT_LEXICAL_DIM) -> np.ndarray:
    """Deterministic character 3-gram hashing embedder, L2-normalized.

    Feature hashing (Weinberger et al., ICML 2009): each 3-gram of the
    lowercased text with a boundary mark at both ends adds 1 to bucket
    ``SHA-256(seed + gram)[:8] mod dim``; a text with no 3-gram is the first
    basis vector. An offline baseline, not a quality claim. This is the one
    read-only row of a one-text :meth:`LexicalEmbedder.embed` call, which
    returns one ``(n, dim)`` float64 matrix per batch, hashes each distinct
    gram once per call and counts buckets with ``np.bincount``.
    """
    return LexicalEmbedder(dim).embed([text])[0]


# ---------------------------------------------------------------------------
# Chat completion

def _encodable(texts: list[str]) -> list[str]:
    """``texts``, refused if UTF-8 cannot encode them: no dataset could hold them."""
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError("a text holds a lone surrogate") from exc
    return texts


def _load_replay(path: str) -> dict[str, str]:
    return dict(_load_jsonl(path, lambda obj: (_str(obj, "key"), _str(obj, "content"))))


# The table of the replay file read last, keyed by its path and stat. One
# slot, so memory does not grow with the number of files a process reads.
_replay_lock = threading.Lock()
_replay_slot: tuple[tuple, dict[str, str]] | None = None


def _replay_table(path: str) -> dict[str, str]:
    """The parsed ``replay:`` file, read again only when its stat changes.

    A parse error is raised, never stored, so every request on a bad file
    fails with its file and line.
    """
    global _replay_slot
    st = os.stat(path)
    key = (path, st.st_ino, st.st_size, st.st_mtime_ns)
    with _replay_lock:
        if _replay_slot is None or _replay_slot[0] != key:
            try:
                _replay_slot = (key, _load_replay(path))
            except DataError as exc:  # re-reading the same file cannot fix it
                raise _PermanentProviderError(str(exc)) from exc
        return _replay_slot[1]


def _read_completion(resp: dict) -> str:
    choices = _list(resp, "choices", _is_obj, "objects")
    if not choices:
        raise DataError("key 'choices' is an empty list")
    with _context("choices[0]"):
        content = _str(_get(choices[0], "message"), "content")
    if not content.strip():
        raise DataError("empty completion")
    return _encodable([content])[0]


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

    payload = {"model": cfg.model_id, "messages": normalized,
               "temperature": params.temperature, "top_p": params.top_p}
    return _request(cfg, payload, _read_completion, transport)


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
    out: list[str] = []
    for i in range(0, len(texts), cfg.max_batch):
        chunk = texts[i : i + cfg.max_batch]
        payload = {"model": cfg.model_id, "src": src, "tgt": tgt, "texts": chunk}
        n = len(chunk)
        read = lambda resp: _encodable(_list(resp, "translations", _is_str, f"{n} strings", n))
        out += _request(cfg, payload, read, transport)
    return out


# ---------------------------------------------------------------------------
# Embedder / translator objects consumed by the evaluation layer

class Embedder(Protocol):
    """Maps a batch of texts to one ``(n, d)`` float64 matrix, row ``i`` for ``texts[i]``."""

    backend_id: str
    model_id: str

    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


class LexicalEmbedder:
    """Offline embedder: the character 3-gram vectors of :func:`lexical_embed`."""

    def __init__(self, dim: int = DEFAULT_LEXICAL_DIM) -> None:
        if dim < 8:
            raise DataError("lexical embedding dimension must be >= 8")
        self.dim = dim
        self.backend_id = "lexical"
        self.model_id = f"char3gram-{dim}"

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        # each distinct gram is hashed once per call; the memo dies with it
        buckets: dict[str, int] = {}
        out = np.empty((len(texts), self.dim))
        for row, text in zip(out, texts):
            padded = _BOUNDARY + text.lower() + _BOUNDARY
            grams = [padded[i : i + 3] for i in range(len(padded) - 2)]
            for gram in set(grams).difference(buckets):
                buckets[gram] = _lexical_bucket(gram, self.dim)
            ids = np.fromiter(map(buckets.__getitem__, grams), np.intp, len(grams))
            row[:] = np.bincount(ids, minlength=self.dim)
            norm = float(np.linalg.norm(row))
            if norm == 0.0:
                row[0] = 1.0
            else:
                row /= norm
        out.setflags(write=False)
        return out


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

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        return embed_batch(self.cfg, texts, cache=self.cache, transport=self.transport)


@dataclass(frozen=True)
class ServiceTranslator:
    """:func:`translate_batch` bound to a config; callers read ``max_batch``
    and ``max_inflight`` from ``cfg`` to size and overlap their calls."""

    cfg: ProviderConfig
    transport: Transport | None = None

    def __call__(self, texts: Sequence[str], src: str, tgt: str) -> list[str]:
        return translate_batch(self.cfg, texts, src, tgt, transport=self.transport)


def make_translator(
    cfg: ProviderConfig, transport: Transport | None = None
) -> ServiceTranslator:
    return ServiceTranslator(cfg, transport)
