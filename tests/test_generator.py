import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clsd.errors import DataError, ProviderError
from clsd.generator import (
    DEFAULT_PROMPT_VERSION,
    GenerationConfig,
    build_prompt,
    dataset_stats,
    generate_dataset,
    generate_instance,
    parse_distractors,
)
from clsd.providers import ChatParams, ProviderConfig
from clsd.records import ClsdInstance, ParallelPair, Sentence, save_clsd_dataset

from conftest import (
    BEAMTEN_DISTRACTORS,
    BEAMTEN_ORIGINAL,
    make_generation_config,
)


def make_pair(id="g1", source="Die Katze schläft.", target="Le chat dort.")\
        -> ParallelPair:
    return ParallelPair(
        id=id,
        source=Sentence(text=source, lang="de"),
        target=Sentence(text=target, lang="fr"),
    )


class ScriptedChat:
    """Transport double whose reply can change per attempt."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, endpoint, payload):
        with self._lock:
            self.calls.append(payload)
            reply = self.replies.pop(0) if len(self.replies) > 1 else self.replies[0]
        if isinstance(reply, Exception):
            raise reply
        return {"choices": [{"message": {"content": reply}}]}


def http_chat_config(max_retries=2) -> GenerationConfig:
    chat = ProviderConfig(
        kind="chat",
        endpoint="https://svc.test/v1/chat",
        model_id="chat-1",
        retry_attempts=1,
        retry_base_ms=1,
    )
    return GenerationConfig(chat=chat, params=ChatParams(), max_retries=max_retries)


NUMBERED_OK = "1. Le chien dort.\n2. Le chat joue.\n3. Le chat mange.\n4. Le chat chante."


class TestBuildPrompt:
    def test_german_prompt_names_language_then_sentence(self):
        target = Sentence(text="Die Linkspartei tagt in Bonn.", lang="de")
        messages = build_prompt(target, http_chat_config())
        assert len(messages) == 1
        assert messages[0]["role"] == "user"
        content = messages[0]["content"]
        assert content.endswith("Answer in German!\nDie Linkspartei tagt in Bonn.")
        assert content.startswith("Can you provide me with four tricky sentences")

    def test_french_prompt(self):
        target = Sentence(text="Le chat dort.", lang="fr")
        content = build_prompt(target, http_chat_config())[0]["content"]
        assert "Answer in French!\nLe chat dort." in content

    def test_unknown_language_rejected(self):
        target = Sentence(text="Kissa nukkuu.", lang="fi")
        with pytest.raises(DataError, match="'fi'"):
            build_prompt(target, http_chat_config())

    def test_language_map_extendable(self):
        cfg = GenerationConfig(
            chat=http_chat_config().chat,
            language_name_map={"fi": "Finnish"},
        )
        content = build_prompt(Sentence(text="Kissa nukkuu.", lang="fi"), cfg)[0][
            "content"
        ]
        assert "Answer in Finnish!" in content


class TestParseDistractors:
    def test_dot_delimiter(self):
        assert parse_distractors(NUMBERED_OK) == [
            "Le chien dort.",
            "Le chat joue.",
            "Le chat mange.",
            "Le chat chante.",
        ]

    def test_paren_delimiter_and_leading_space(self):
        text = " 1) eins\n2) zwei\n 3) drei\n4) vier"
        assert parse_distractors(text) == ["eins", "zwei", "drei", "vier"]

    def test_out_of_order_numbers_sorted(self):
        text = "3. drei\n1. eins\n4. vier\n2. zwei"
        assert parse_distractors(text) == ["eins", "zwei", "drei", "vier"]

    def test_surrounding_prose_ignored(self):
        text = "Gerne, hier sind vier Sätze:\n\n" + NUMBERED_OK + "\n\nViel Erfolg!"
        assert len(parse_distractors(text)) == 4

    @pytest.mark.parametrize(
        "quoted",
        ['"eins"', "“eins”", "„eins“", "«eins»", "‘eins’"],
    )
    def test_quotes_stripped(self, quoted):
        text = f"1. {quoted}\n2. zwei\n3. drei\n4. vier"
        assert parse_distractors(text)[0] == "eins"

    def test_three_items(self):
        with pytest.raises(DataError, match="expected 4 items, found 3"):
            parse_distractors("1. a\n2. b\n3. c")

    def test_no_items(self):
        with pytest.raises(DataError, match="expected 4 items, found 0"):
            parse_distractors("Es tut mir leid, das kann ich nicht.")

    def test_duplicate_number(self):
        with pytest.raises(DataError, match="duplicate item number 2"):
            parse_distractors("1. a\n2. b\n2. c\n4. d")

    def test_item_five_is_ignored_prose(self):
        # Only 1-4 are item delimiters; a trailing "5." line is prose.
        assert parse_distractors("1. a\n2. b\n3. c\n4. d\n5. e") == [
            "a",
            "b",
            "c",
            "d",
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        items=st.lists(
            st.text(
                alphabet="abcdefghij ALÄéü",
                min_size=1,
                max_size=20,
            ).filter(lambda s: s.strip() and not s.strip()[0].isdigit()),
            min_size=4,
            max_size=4,
        ),
        delim=st.sampled_from([".", ")"]),
    )
    def test_format_parse_round_trip(self, items, delim):
        cleaned = [i.strip() for i in items]
        text = "\n".join(f"{n}{delim} {item}" for n, item in enumerate(cleaned, 1))
        assert parse_distractors(text) == cleaned


class TestGenerateInstance:
    def test_replay_transport_builds_instance(self, fixture_corpus, generation_config):
        pair = fixture_corpus[0]
        instance, attempts = generate_instance(pair, generation_config)
        assert attempts == 1
        assert instance.id == pair.id
        assert instance.source == pair.source
        assert instance.target == pair.target
        assert len(instance.distractors) == 4
        assert all(d.lang == "fr" for d in instance.distractors)
        assert instance.meta == {
            "model": "scripted-chat",
            "prompt_version": DEFAULT_PROMPT_VERSION,
        }

    def test_prose_then_valid_reply_uses_two_attempts(self):
        transport = ScriptedChat(["Das kann ich leider nicht.", NUMBERED_OK])
        instance, attempts = generate_instance(
            make_pair(), http_chat_config(), transport=transport
        )
        assert attempts == 2
        assert len(transport.calls) == 2
        assert instance.distractors[0].text == "Le chien dort."

    def test_target_verbatim_every_attempt_exhausts(self):
        echo = "1. Le chat dort.\n2. a\n3. b\n4. c"
        transport = ScriptedChat([echo])
        with pytest.raises(ProviderError, match=r"pair g1: exhausted retries \(3 attempts"):
            generate_instance(make_pair(), http_chat_config(max_retries=2), transport=transport)
        assert len(transport.calls) == 3

    def test_zero_retries_means_single_attempt(self):
        transport = ScriptedChat(["nicht nummeriert"])
        with pytest.raises(ProviderError, match="1 attempts"):
            generate_instance(make_pair(), http_chat_config(max_retries=0), transport=transport)
        assert len(transport.calls) == 1

    def test_exhaustion_message_names_last_reason(self):
        transport = ScriptedChat(["1. a\n2. b\n3. c"])
        with pytest.raises(ProviderError, match="expected 4 items, found 3"):
            generate_instance(make_pair(), http_chat_config(max_retries=0), transport=transport)


class TestGenerateDataset:
    def test_full_corpus_in_order(self, fixture_corpus, generation_config):
        instances, log = generate_dataset(fixture_corpus, generation_config)
        assert [i.id for i in instances] == [p.id for p in fixture_corpus]
        assert len(log) == len(fixture_corpus)
        assert all(e.outcome == "ok" and e.attempts == 1 for e in log)

    def test_two_runs_serialize_byte_identical(
        self, tmp_path, fixture_corpus, generation_config
    ):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            instances, _ = generate_dataset(fixture_corpus, generation_config)
            path = tmp_path / name
            save_clsd_dataset(instances, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_failed_pair_skipped_with_log_message(self):
        corpus = [make_pair(id=i, target=t) for i, t in
                  [("6", "Le chat dort."), ("7", "Le chien court."), ("8", "La vache rit.")]]

        def transport(endpoint, payload):
            content = payload["messages"][-1]["content"]
            if "Le chien court." in content:
                raise ProviderError("backend unavailable")
            reply = "1. un\n2. deux\n3. trois\n4. quatre"
            return {"choices": [{"message": {"content": reply}}]}

        instances, log = generate_dataset(corpus, http_chat_config(), transport=transport)
        assert [i.id for i in instances] == ["6", "8"]
        assert [e.outcome for e in log] == ["ok", "skipped", "ok"]
        skipped = log[1]
        assert skipped.pair_id == "7"
        assert skipped.message == "pair 7: exhausted retries"
        assert skipped.attempts == 3

    def test_empty_corpus(self, generation_config):
        assert generate_dataset([], generation_config) == ([], [])

    def test_serial_and_concurrent_agree(self, fixture_corpus, generation_config):
        serial_cfg = GenerationConfig(
            chat=ProviderConfig(
                kind="chat",
                endpoint=generation_config.chat.endpoint,
                model_id=generation_config.chat.model_id,
                max_inflight=1,
            ),
            params=generation_config.params,
            max_retries=generation_config.max_retries,
        )
        concurrent, _ = generate_dataset(fixture_corpus, generation_config)
        serial, _ = generate_dataset(fixture_corpus, serial_cfg)
        assert concurrent == serial


class TestDatasetStats:
    def test_constructed_mean_and_std(self):
        # target {a,b,c,d}; all four distractors {a,b} -> every Jaccard is 0.5
        instance = ClsdInstance(
            id="s1",
            source=Sentence(text="q", lang="de"),
            target=Sentence(text="a b c d", lang="fr"),
            distractors=tuple(
                Sentence(text=f"a b{' ' * i}", lang="fr") for i in range(1, 5)
            ),
            meta={},
        )
        report = dataset_stats([instance])
        assert report.n_instances == 1
        assert report.n_distractors == 4
        assert report.jaccard_mean == pytest.approx(0.5)
        assert report.jaccard_std == pytest.approx(0.0)
        assert report.single_diff_count == {}

    def test_published_instance_statistics(self):
        instance = ClsdInstance(
            id="b1",
            source=Sentence(text="placeholder source", lang="en"),
            target=Sentence(text=BEAMTEN_ORIGINAL, lang="de"),
            distractors=tuple(Sentence(text=t, lang="de") for t in BEAMTEN_DISTRACTORS),
            meta={},
        )
        report = dataset_stats([instance])
        # single substitution in an 11-token sentence over 10-element sets
        assert report.jaccard_mean == pytest.approx(9 / 11, abs=5e-4)
        assert report.jaccard_std == pytest.approx(0.0, abs=1e-12)
        assert report.single_diff_count == {"de": 4}
        assert report.intra_jaccard_mean == pytest.approx(0.818, abs=5e-4)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            dataset_stats([])

    def test_json_shape(self):
        instance = ClsdInstance(
            id="s1",
            source=Sentence(text="q", lang="de"),
            target=Sentence(text="a b", lang="fr"),
            distractors=tuple(Sentence(text=f"a b x{i}", lang="fr") for i in range(4)),
            meta={},
        )
        payload = dataset_stats([instance]).to_json()
        assert list(payload) == [
            "n_instances",
            "n_distractors",
            "jaccard_mean",
            "jaccard_std",
            "single_diff_count",
            "intra_jaccard_mean",
        ]
        assert json.dumps(payload)  # JSON-serializable as-is

    def test_report_invariant_enforced(self):
        from clsd.generator import StatsReport

        with pytest.raises(DataError):
            StatsReport(
                n_instances=2,
                n_distractors=7,
                jaccard_mean=0.5,
                jaccard_std=0.1,
                single_diff_count={},
                intra_jaccard_mean=0.5,
            )


class TestGenerationConfig:
    def test_requires_chat_kind(self):
        embedding = ProviderConfig(kind="embedding", endpoint="lexical:", model_id="m")
        with pytest.raises(DataError):
            GenerationConfig(chat=embedding)

    def test_negative_retries_rejected(self):
        with pytest.raises(DataError):
            GenerationConfig(chat=http_chat_config().chat, max_retries=-1)

    def test_empty_prompt_version_rejected(self):
        with pytest.raises(DataError):
            GenerationConfig(chat=http_chat_config().chat, prompt_version="")
