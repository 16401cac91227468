"""Shared fixtures: the bundled corpus, scripted chat replies, frozen values.

The 20-pair DE-FR corpus, the distractor table, and the token-swap
annotations live under ``tests/data/``. A session-scoped replay file turns
the distractor table into a scripted chat provider so generation runs fully
offline, and a scripted HTTP service on 127.0.0.1 answers the real
transport. Frozen regression constants were produced by one audited run of
the deterministic lexical baseline and must never be edited to make a test
pass.
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from clsd.generator import GenerationConfig, build_prompt
from clsd.providers import ChatParams, ProviderConfig
from clsd.records import (
    ClsdInstance,
    DiffAnnotation,
    ParallelPair,
    Sentence,
    load_annotations,
    load_parallel_corpus,
)

DATA_DIR = Path(__file__).parent / "data"
CORPUS_PATH = DATA_DIR / "fixture_corpus.jsonl"
DISTRACTORS_PATH = DATA_DIR / "fixture_distractors.json"
ANNOTATIONS_PATH = DATA_DIR / "fixture_annotations.jsonl"

# ---------------------------------------------------------------------------
# Frozen regression values (deterministic lexical baseline, dim 512).
# Recorded from the first oracle-checked run; treat as read-only.

FROZEN_P_AT_1 = 0.25
FROZEN_SUCCESS_IDS = frozenset({"p09", "p12", "p16", "p17", "p18"})
FROZEN_NORM_SEED17 = 0.16825089774407467
FROZEN_LEXICAL_COSINE_ABCD_ABCE = 0.5
FROZEN_CROSS_SHIFT_SWAP = -0.3653858227960291
FROZEN_MONO_SHIFT_SWAP = -0.7989469396335285

FROZEN_SHIFT_CSV = """group,n,mean_cross_shift,mean_mono_shift,corr_mono_cross
ANY,38,-0.163702,-0.564396,0.266737
ADJ,7,0.034519,-0.611770,-0.701995
NOUN,8,-0.052675,-0.525046,0.675748
NUM,7,-0.131088,-0.434843,0.346655
PROPN,10,-0.526066,-0.621660,0.550527
VERB,6,0.022898,-0.617300,0.287353
"""

FROZEN_BINS_CSV = """bin_lo,bin_hi,d_bin_total,success_count,success_pct
0.9,1,28,9,42.86
0.8,0.9,23,6,28.57
0.7,0.8,8,1,4.76
0.6,0.7,10,3,14.29
0.3,0.6,11,2,9.52
0,0.3,0,0,0.00
"""

# ---------------------------------------------------------------------------
# Published example sentences used as reproduction fixtures.

LINKSPARTEI_TARGET = "Die Linkspartei beschließt in Bonn ihr Programm zur Europawahl."
LINKSPARTEI_D1 = "Die Linkspartei beschließt in Bonn ihr Programm zur Bundestagswahl."
LINKSPARTEI_D2 = "Die Linkspartei verweigert in Bonn ihr Programm zur Europawahl."

FRENCH_TARGET = "Là-bas, la perspective de la fin de la guerre reste toujours très éloignée."
FRENCH_D1 = "Là-bas, la fin de la guerre semble toujours très incertaine."

NASDAQ_ORIGINAL = "Der Nasdaq verzeichnete die schlechteste Woche der letzten vier."
NASDAQ_DISTRACTORS = (
    "Der Nasdaq hat die beste Woche der letzten vier verzeichnet.",
    "Der Nasdaq verzeichnete die aktivste Woche der letzten vier.",
    "Der Nasdaq hat die ruhigste Woche der letzten vier verzeichnet.",
    "Der Nasdaq verzeichnete die turbulenteste Woche der letzten vier.",
)
NASDAQ_INTRA = (0.630, 0.623, 0.630, 0.623)

BEAMTEN_ORIGINAL = "Die Beamten werden im Haushalt für 2021 jedoch nicht vergessen werden."
BEAMTEN_DISTRACTORS = (
    "Die Beamten werden im Haushalt für 2021 jedoch nicht besprochen werden.",
    "Die Beamten werden im Haushalt für 2021 jedoch nicht entlassen werden.",
    "Die Beamten werden im Haushalt für 2021 jedoch nicht befördert werden.",
    "Die Beamten werden im Haushalt für 2021 jedoch nicht belastet werden.",
)
BEAMTEN_INTRA = (0.818, 0.818, 0.818, 0.818)


# ---------------------------------------------------------------------------
# Fixture data

@pytest.fixture(scope="session")
def fixture_corpus() -> list[ParallelPair]:
    return load_parallel_corpus(CORPUS_PATH)


@pytest.fixture(scope="session")
def distractor_table() -> dict[str, list[str]]:
    with open(DISTRACTORS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def fixture_instances(fixture_corpus, distractor_table) -> list[ClsdInstance]:
    return [
        ClsdInstance(
            id=pair.id,
            source=pair.source,
            target=pair.target,
            distractors=tuple(
                Sentence(text=t, lang=pair.target.lang)
                for t in distractor_table[pair.id]
            ),
            meta={"model": "scripted-chat", "prompt_version": "v1"},
        )
        for pair in fixture_corpus
    ]


@pytest.fixture(scope="session")
def fixture_annotations() -> list[DiffAnnotation]:
    return load_annotations(ANNOTATIONS_PATH)


def replay_entries(corpus, table, cfg: GenerationConfig) -> list[dict]:
    """Replay-file lines mapping each pair's prompt to a numbered reply."""
    entries = []
    for pair in corpus:
        key = build_prompt(pair.target, cfg)[0]["content"]
        reply = "\n".join(f"{i + 1}. {text}" for i, text in enumerate(table[pair.id]))
        entries.append({"key": key, "content": reply})
    return entries


def make_generation_config(replay_path: Path) -> GenerationConfig:
    chat = ProviderConfig(
        kind="chat",
        endpoint=f"replay:{replay_path}",
        model_id="scripted-chat",
        max_inflight=4,
    )
    return GenerationConfig(chat=chat, params=ChatParams(), max_retries=2)


@pytest.fixture(scope="session")
def replay_path(tmp_path_factory, fixture_corpus, distractor_table) -> Path:
    path = tmp_path_factory.mktemp("replay") / "replies.jsonl"
    probe = make_generation_config(Path("unused"))
    lines = [
        json.dumps(entry, ensure_ascii=False)
        for entry in replay_entries(fixture_corpus, distractor_table, probe)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def generation_config(replay_path) -> GenerationConfig:
    return make_generation_config(replay_path)


# ---------------------------------------------------------------------------
# A scripted HTTP service on the loopback interface

def http_reply(status, body=None, headers=None, delay=0.0):
    """One scripted reply: a body that is not bytes is sent as JSON, and the
    reply waits ``delay`` seconds before its status line. A ``Content-Length``
    header longer than the body truncates it."""
    data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    return status, headers or {}, data, delay


class LoopbackService:
    """An HTTP/1.0 server that answers each POST or GET with the next
    scripted :func:`http_reply` and records each request as ``(headers, body)``."""

    def __init__(self) -> None:
        self.replies: list[tuple] = []
        self.requests: list[tuple] = []
        service = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                service.requests.append((self.headers, body))
                status, headers, data, delay = service.replies.pop(0)
                threading.Event().wait(delay)  # time.sleep may be patched by a test
                self.send_response(status)
                for name, value in {"Content-Length": str(len(data)), **headers}.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            do_GET = do_POST  # a followed redirect would arrive as a GET

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a client that timed out has closed its socket: the late write may fail
        self.server.handle_error = lambda request, address: None
        self.url = f"http://127.0.0.1:{self.server.server_port}/v1/embeddings"

    def script(self, *replies) -> list[tuple]:
        """Answer the next requests with ``replies``; the recorded requests."""
        self.replies[:] = replies
        self.requests.clear()
        return self.requests


@pytest.fixture(scope="session")
def _loopback():
    service = LoopbackService()
    thread = threading.Thread(
        target=service.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield service
    service.server.shutdown()
    service.server.server_close()
    thread.join()


@pytest.fixture
def http_service(_loopback, monkeypatch) -> LoopbackService:
    """The loopback service with an empty script, reached without a proxy."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):  # urllib routes through these
            monkeypatch.delenv(name)
    _loopback.script()
    return _loopback
