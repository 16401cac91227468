"""In-process stand-ins for the embedding and translation services.

Both speak the JSON shapes the real HTTP transport returns and raise
``ProviderError`` for a 5xx, as that transport does. Each request costs a
fixed ``SERVICE_TIME_S`` of sleep, the service time of a fast local model
server. Faults are keyed by request content, so thread scheduling cannot
change which request fails.
"""

from __future__ import annotations

import threading
import time
from array import array

from clsd.errors import ProviderError

from synth import FaultSchedule, translate_text

SERVICE_TIME_S = 0.001


class FakeService:
    """Counts requests and items; fails requests that carry planted texts."""

    kind = ""

    def __init__(self, faults: FaultSchedule, tracer=None) -> None:
        self.faults = faults
        self.tracer = tracer
        self.requests = 0
        self.items = 0
        self._failed_payloads: set[str] = set()
        self._flaky_spent: set[str] = set()
        self._lock = threading.Lock()

    def __call__(self, endpoint: str, payload: dict) -> dict:
        start = time.perf_counter()
        texts = self.texts(payload)
        try:
            return self._serve(endpoint, payload, texts)
        finally:
            if self.tracer is not None:
                self.tracer.record(f"providers.transport.{self.kind}", start,
                                   time.perf_counter(), len(texts))

    def _serve(self, endpoint: str, payload: dict, texts: list[str]) -> dict:
        key = repr(sorted(payload.items()))
        with self._lock:
            self.requests += 1
            self.items += len(texts)
            if key in self._failed_payloads and self.tracer is not None:
                self.tracer.count("providers.retries")
            fresh_flaky = {t for t in texts if t in self.faults.flaky} - self._flaky_spent
            self._flaky_spent |= fresh_flaky
            fail = bool(fresh_flaky) or any(t in self.faults.dead for t in texts)
            if fail:
                self._failed_payloads.add(key)
        time.sleep(SERVICE_TIME_S)
        if fail:
            raise ProviderError(f"{endpoint} returned 503")
        return self.respond(payload, texts)

    def texts(self, payload: dict) -> list[str]:
        raise NotImplementedError

    def respond(self, payload: dict, texts: list[str]) -> dict:
        raise NotImplementedError


class FakeEmbeddingService(FakeService):
    """Embedding server whose vectors come from a precomputed text table."""

    kind = "embed"

    def __init__(self, vectors: dict[str, array], faults: FaultSchedule, tracer=None):
        super().__init__(faults, tracer)
        self.vectors = vectors

    def texts(self, payload: dict) -> list[str]:
        return list(payload["input"])

    def respond(self, payload: dict, texts: list[str]) -> dict:
        return {
            "data": [
                {"index": i, "embedding": self.vectors[t].tolist()}
                for i, t in enumerate(texts)
            ]
        }


class FakeTranslationService(FakeService):
    """Translation server that tags each text with its language pair."""

    kind = "translate"

    def texts(self, payload: dict) -> list[str]:
        return list(payload["texts"])

    def respond(self, payload: dict, texts: list[str]) -> dict:
        return {
            "translations": [
                translate_text(t, payload["src"], payload["tgt"]) for t in texts
            ]
        }
