import json
import string
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clsd.errors import DataError
from clsd.records import (
    ClsdInstance,
    DiffAnnotation,
    ParallelPair,
    Sentence,
    _write_atomic_text,
    load_annotations,
    load_clsd_dataset,
    load_parallel_corpus,
    save_annotations,
    save_clsd_dataset,
    save_parallel_corpus,
    validate_dataset,
)

from conftest import LINKSPARTEI_D1, LINKSPARTEI_TARGET


def make_instance(
    id="x1",
    target_text="Le chat dort sur le canapé.",
    distractor_texts=(
        "Le chien dort sur le canapé.",
        "Le chat joue sur le canapé.",
        "Le chat dort sous la table.",
        "Le chat miaule sur le canapé.",
    ),
    meta=None,
):
    return ClsdInstance(
        id=id,
        source=Sentence(text="Die Katze schläft auf dem Sofa.", lang="de"),
        target=Sentence(text=target_text, lang="fr"),
        distractors=tuple(Sentence(text=t, lang="fr") for t in distractor_texts),
        meta=meta or {"model": "m", "prompt_version": "v1"},
    )


class TestSentence:
    def test_strips_surrounding_whitespace(self):
        assert Sentence(text="  Bonjour.  ", lang="fr").text == "Bonjour."

    def test_empty_after_trim_rejected(self):
        with pytest.raises(DataError):
            Sentence(text="   ", lang="fr")

    @pytest.mark.parametrize("lang", ["FR", "f", "fra", "f1", ""])
    def test_bad_language_codes_rejected(self, lang):
        with pytest.raises(DataError):
            Sentence(text="Bonjour.", lang=lang)


class TestPairAndInstance:
    def test_pair_requires_distinct_languages(self):
        s = Sentence(text="Hallo.", lang="de")
        with pytest.raises(DataError):
            ParallelPair(id="p", source=s, target=Sentence(text="Hi.", lang="de"))

    def test_instance_requires_exactly_four_distractors(self):
        with pytest.raises(DataError, match="4"):
            make_instance(distractor_texts=("Un.", "Deux.", "Trois."))

    def test_distractors_must_match_target_language(self):
        good = make_instance()
        bad = good.distractors[:3] + (Sentence(text="Falsch.", lang="de"),)
        with pytest.raises(DataError):
            ClsdInstance(
                id="x",
                source=good.source,
                target=good.target,
                distractors=bad,
                meta={},
            )

    def test_pivot_instance_requires_uniform_language(self):
        for src_lang, tgt_lang in (("en", "fr"), ("fr", "en")):
            with pytest.raises(DataError, match="pivot language 'en'"):
                ClsdInstance(
                    id="x1",
                    source=Sentence(text="The cat sleeps.", lang=src_lang),
                    target=Sentence(text="Le chat dort.", lang=tgt_lang),
                    distractors=tuple(
                        Sentence(text=f"The dog sleeps {i}.", lang=tgt_lang)
                        for i in range(4)
                    ),
                    pivot_lang="en",
                )


class TestDiffAnnotation:
    def test_parses_propn(self):
        ann = DiffAnnotation(
            instance_id="a",
            distractor_index=0,
            position=8,
            target_token="Europawahl",
            distractor_token="Bundestagswahl",
            pos="PROPN",
        )
        assert ann.pos == "PROPN"

    @pytest.mark.parametrize("index", [-1, 4, 7])
    def test_distractor_index_bounds(self, index):
        with pytest.raises(DataError):
            DiffAnnotation(
                instance_id="a",
                distractor_index=index,
                position=0,
                target_token="x",
                distractor_token="y",
                pos="NOUN",
            )

    @pytest.mark.parametrize("pos", ["", "noun", "NOUn", "NÄME"])
    def test_pos_must_be_uppercase_ascii(self, pos):
        with pytest.raises(DataError):
            DiffAnnotation(
                instance_id="a",
                distractor_index=0,
                position=0,
                target_token="x",
                distractor_token="y",
                pos=pos,
            )


class TestCorpusIO:
    def test_round_trip(self, tmp_path, fixture_corpus):
        path = tmp_path / "corpus.jsonl"
        save_parallel_corpus(fixture_corpus, path)
        assert load_parallel_corpus(path) == fixture_corpus

    def test_key_order_is_fixed(self, tmp_path, fixture_corpus):
        path = tmp_path / "corpus.jsonl"
        save_parallel_corpus(fixture_corpus[:1], path)
        keys = list(json.loads(path.read_text(encoding="utf-8")))
        assert keys == ["id", "src_lang", "tgt_lang", "source", "target"]

    def test_duplicate_id_rejected(self, tmp_path):
        line = json.dumps(
            {
                "id": "p",
                "src_lang": "de",
                "tgt_lang": "fr",
                "source": "Hallo.",
                "target": "Salut.",
            }
        )
        path = tmp_path / "dup.jsonl"
        path.write_text(line + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate id"):
            load_parallel_corpus(path)


class TestDatasetIO:
    def test_save_load_round_trip(self, tmp_path, fixture_instances):
        path = tmp_path / "ds.jsonl"
        save_clsd_dataset(fixture_instances, path)
        assert load_clsd_dataset(path) == fixture_instances

    def test_two_saves_byte_identical(self, tmp_path, fixture_instances):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_clsd_dataset(fixture_instances, a)
        save_clsd_dataset(fixture_instances, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_sequence_gives_zero_byte_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_clsd_dataset([], path)
        assert path.read_bytes() == b""

    def test_key_order_is_fixed(self, tmp_path):
        path = tmp_path / "one.jsonl"
        save_clsd_dataset([make_instance()], path)
        keys = list(json.loads(path.read_text(encoding="utf-8")).keys())
        assert keys == [
            "id",
            "src_lang",
            "tgt_lang",
            "source",
            "target",
            "distractors",
            "meta",
        ]

    def test_three_distractors_names_line_and_rule(self, tmp_path):
        obj = {
            "id": "x",
            "src_lang": "de",
            "tgt_lang": "fr",
            "source": "Hallo.",
            "target": "Salut.",
            "distractors": ["Un.", "Deux.", "Trois."],
            "meta": {},
        }
        path = tmp_path / "broken.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"broken\.jsonl:1.*length\(distractors\)=4"):
            load_clsd_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "ok"\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.jsonl:1"):
            load_clsd_dataset(path)

    def test_distractor_equal_to_target_rejected_at_load(self, tmp_path):
        obj = {
            "id": "x",
            "src_lang": "de",
            "tgt_lang": "fr",
            "source": "Hallo.",
            "target": "Salut.",
            "distractors": ["Salut.", "Deux.", "Trois.", "Quatre."],
            "meta": {},
        }
        path = tmp_path / "eq.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="distractor equals target"):
            load_clsd_dataset(path)

    def test_table_example_loads_with_distinct_distractor(self, tmp_path):
        instance = make_instance(
            target_text=LINKSPARTEI_TARGET,
            distractor_texts=(
                LINKSPARTEI_D1,
                "Die Linkspartei verweigert in Bonn ihr Programm zur Europawahl.",
                "Die Linkspartei beschließt in Berlin ihr Programm zur Europawahl.",
                "Die Linkspartei diskutiert in Bonn ihr Programm zur Europawahl.",
            ),
        )
        path = tmp_path / "t1.jsonl"
        save_clsd_dataset([instance], path)
        loaded = load_clsd_dataset(path)[0]
        assert loaded.distractors[0].text != loaded.target.text


    def test_lone_surrogate_escape_names_line(self, tmp_path):
        lines = {
            load_parallel_corpus: '{"id": "p", "src_lang": "de", "tgt_lang": "fr", '
            '"source": "Hallo \\ud800 Welt", "target": "Salut."}',
            load_annotations: '{"instance_id": "x", "distractor_index": 0, "position": 0, '
            '"target_token": "\\udfff", "distractor_token": "b", "pos": "NOUN"}',
        }
        for loader, line in lines.items():
            path = tmp_path / "lone.jsonl"
            path.write_text("\n" + line + "\n", encoding="utf-8")
            with pytest.raises(DataError, match=r"lone\.jsonl:2: lone UTF-16 surrogate"):
                loader(path)

    def test_non_utf8_names_line(self, tmp_path):
        cases = {
            b"\xff\xfe" + '{"id": "p"}\n'.encode("utf-16-le"): (1, 0, 0xFF),  # UTF-16
            b'\n \n{"id": "\xe9t\xe9"}\n': (3, 8, 0xE9),  # Latin-1 after blank lines
            # cut inside a character, past the text decoder's first chunks
            b" \n" * 6000 + b'{"id": "\xc3': (6001, 8, 0xC3),
        }
        for loader in (load_parallel_corpus, load_annotations, load_clsd_dataset):
            for raw, (lineno, offset, byte) in cases.items():
                path = tmp_path / "bad.jsonl"
                path.write_bytes(raw)
                with pytest.raises(
                    DataError,
                    match=rf"bad\.jsonl:{lineno}: not UTF-8: byte {byte:#04x} "
                    rf"at byte offset {offset} of the line",
                ):
                    loader(path)

    def test_surrogate_pair_escape_loads(self, tmp_path):
        path = tmp_path / "pair.jsonl"
        path.write_text(
            '{"id": "p", "src_lang": "de", "tgt_lang": "fr", '
            '"source": "Hallo \\ud83d\\ude00", "target": "Salut."}\n',
            encoding="utf-8",
        )
        assert load_parallel_corpus(path)[0].source.text == "Hallo \U0001F600"


class TestAtomicWrite:
    def test_concurrent_writers_of_one_path(self, tmp_path):
        path = tmp_path / "out.txt"
        contents = [f"writer {n}\n" * 1000 for n in range(4)]
        errors = []

        def write(content):
            try:
                for _ in range(100):
                    _write_atomic_text(path, content)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(c,)) for c in contents]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_text(encoding="utf-8") in contents
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "o2.txt"
        path.write_text("old", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            _write_atomic_text(path, "x\ud800")
        assert [p.name for p in tmp_path.iterdir()] == ["o2.txt"]
        assert path.read_text(encoding="utf-8") == "old"


def make_pivot(id="x1", distractor_texts=None):
    texts = distractor_texts or tuple(
        f"The dog sleeps on the sofa {i}." for i in range(4)
    )
    return ClsdInstance(
        id=id,
        source=Sentence(text="The cat sleeps on the sofa.", lang="en"),
        target=Sentence(text="The cat is sleeping on the sofa.", lang="en"),
        distractors=tuple(Sentence(text=t, lang="en") for t in texts),
        pivot_lang="en",
    )


def pivot_obj(**overrides):
    obj = {
        "id": "x1",
        "src_lang": "en",
        "tgt_lang": "en",
        "source": "The cat sleeps.",
        "target": "The cat is sleeping.",
        "distractors": [f"The dog sleeps {i}." for i in range(4)],
        "meta": {},
        "pivot_lang": "en",
        "original_id": "x1",
    }
    obj.update(overrides)
    return obj


class TestPivotIO:
    def test_round_trip_keeps_pivot_lang(self, tmp_path):
        path = tmp_path / "pivot.jsonl"
        instances = [make_pivot("a"), make_pivot("b")]
        save_clsd_dataset(instances, path)
        loaded = load_clsd_dataset(path)
        assert loaded == instances
        assert [i.pivot_lang for i in loaded] == ["en", "en"]

    def test_pivot_keys_follow_meta(self, tmp_path):
        path = tmp_path / "pivot.jsonl"
        save_clsd_dataset([make_pivot("a")], path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert list(obj) == [
            "id",
            "src_lang",
            "tgt_lang",
            "source",
            "target",
            "distractors",
            "meta",
            "pivot_lang",
            "original_id",
        ]
        assert (obj["meta"], obj["pivot_lang"], obj["original_id"]) == ({}, "en", "a")

    def test_direct_dataset_is_not_pivot(self, tmp_path, fixture_instances):
        path = tmp_path / "ds.jsonl"
        save_clsd_dataset(fixture_instances, path)
        assert "pivot_lang" not in path.read_text(encoding="utf-8")
        assert all(i.pivot_lang is None for i in load_clsd_dataset(path))

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"original_id": "other"}, "original_id differs from id"),
            ({"src_lang": "fr"}, "pivot language 'en'"),
            ({"tgt_lang": "fr"}, "pivot language 'en'"),
            ({"pivot_lang": 3}, "'pivot_lang' is not a string"),
        ],
    )
    def test_inconsistent_pivot_record_names_line(self, tmp_path, overrides, message):
        path = tmp_path / "pivot.jsonl"
        path.write_text(json.dumps(pivot_obj(**overrides)) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=message) as info:
            load_clsd_dataset(path)
        assert "pivot.jsonl:1" in str(info.value)

    def test_missing_original_id_rejected(self, tmp_path):
        obj = pivot_obj()
        del obj["original_id"]
        path = tmp_path / "pivot.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing key 'original_id'"):
            load_clsd_dataset(path)

    def test_pivot_distractor_equal_to_target_loads(self, tmp_path):
        # a translator may collapse a distractor onto the target; the loader
        # keeps it and validation reports it
        target = "The cat is sleeping on the sofa."
        instance = make_pivot(distractor_texts=(target, "b.", "c.", "d."))
        path = tmp_path / "pivot.jsonl"
        save_clsd_dataset([instance], path)
        assert load_clsd_dataset(path) == [instance]
        report = validate_dataset([instance])
        assert report.errors == (("x1", "distractor equals target"),)


class TestAnnotationIO:
    def test_round_trip_preserves_order(self, tmp_path, fixture_annotations):
        path = tmp_path / "ann.jsonl"
        save_annotations(fixture_annotations, path)
        assert load_annotations(path) == fixture_annotations

    def test_key_order_follows_fields(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        save_annotations([DiffAnnotation("x1", 0, 1, "chat", "chien", "NOUN")], path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert list(obj) == [
            "instance_id",
            "distractor_index",
            "position",
            "target_token",
            "distractor_token",
            "pos",
        ]
        assert list(obj.values()) == ["x1", 0, 1, "chat", "chien", "NOUN"]

    def test_out_of_range_index_rejected(self, tmp_path):
        obj = {
            "instance_id": "a",
            "distractor_index": 4,
            "position": 0,
            "target_token": "x",
            "distractor_token": "y",
            "pos": "NOUN",
        }
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_annotations(path)


# Each JSONL file kind: its loader, a saver of one valid record, and the key
# that a defective second line lacks or leaves blank.
JSONL_KINDS = {
    "corpus": (
        load_parallel_corpus,
        lambda path: save_parallel_corpus(
            [ParallelPair("p1", Sentence("Hallo.", "de"), Sentence("Salut.", "fr"))], path
        ),
        "target",
    ),
    "dataset": (
        load_clsd_dataset, lambda path: save_clsd_dataset([make_instance()], path), "target"
    ),
    "annotations": (
        load_annotations,
        lambda path: save_annotations([DiffAnnotation("x1", 0, 1, "chat", "chien", "NOUN")], path),
        "pos",
    ),
}


class TestJsonlErrors:
    @pytest.mark.parametrize("defect", ["missing", "blank"])
    @pytest.mark.parametrize("kind", sorted(JSONL_KINDS))
    def test_line_prefix_appears_once(self, tmp_path, kind, defect):
        load, save, key = JSONL_KINDS[kind]
        path = tmp_path / f"{kind}.jsonl"
        save(path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        if "id" in obj:
            obj["id"] = "x2"  # line 2 is no duplicate of line 1
        if defect == "missing":
            del obj[key]
        else:
            obj[key] = ""
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(obj) + "\n")
        with pytest.raises(DataError) as err:
            load(path)
        message = str(err.value)
        assert message.startswith(f"{path}:2: ")
        assert message.count(str(path)) == 1


class TestValidateDataset:
    def test_valid_fixture_clean(self, fixture_instances):
        report = validate_dataset(fixture_instances[:5])
        assert report.n_records == 5
        assert report.errors == ()
        assert report.ok

    def test_duplicate_distractor_warns(self):
        instance = make_instance(
            distractor_texts=(
                "Le chien dort sur le canapé.",
                "Le chien dort sur le canapé.",
                "Le chat dort sous la table.",
                "Le chat miaule sur le canapé.",
            )
        )
        report = validate_dataset([instance])
        assert report.errors == ()
        assert any("duplicate distractor" in msg for _, msg in report.warnings)

    def test_distractor_equal_to_target_is_error(self):
        instance = make_instance(
            distractor_texts=(
                "Le chat dort sur le canapé.",
                "Le chat joue sur le canapé.",
                "Le chat dort sous la table.",
                "Le chat miaule sur le canapé.",
            )
        )
        report = validate_dataset([instance])
        assert any("distractor equals target" in msg for _, msg in report.errors)
        assert not report.ok

    def test_case_punctuation_variant_warns(self):
        instance = make_instance(
            distractor_texts=(
                "le chat dort sur le canapé",
                "Le chat joue sur le canapé.",
                "Le chat dort sous la table.",
                "Le chat miaule sur le canapé.",
            )
        )
        report = validate_dataset([instance])
        assert report.errors == ()
        assert any("up to case" in msg for _, msg in report.warnings)

    def test_duplicate_ids_reported(self):
        report = validate_dataset([make_instance(id="same"), make_instance(id="same")])
        assert any("duplicate id" in msg for _, msg in report.errors)


_text = st.text(
    alphabet=string.ascii_letters + "äöüéèà ",
    min_size=1,
    max_size=40,
).filter(lambda s: s.strip())


@settings(max_examples=50, deadline=None)
@given(
    target=_text,
    distractors=st.lists(_text, min_size=4, max_size=4, unique=True),
    meta_value=st.text(alphabet=string.ascii_letters, max_size=8),
)
def test_serialization_round_trip_property(tmp_path_factory, target, distractors, meta_value):
    if any(d.strip() == target.strip() for d in distractors):
        return
    instance = ClsdInstance(
        id="rt",
        source=Sentence(text="Quelle.", lang="de"),
        target=Sentence(text=target, lang="fr"),
        distractors=tuple(Sentence(text=d, lang="fr") for d in distractors),
        meta={"model": meta_value} if meta_value else {},
    )
    path = tmp_path_factory.mktemp("rt") / "ds.jsonl"
    save_clsd_dataset([instance], path)
    first = path.read_bytes()
    loaded = load_clsd_dataset(path)
    assert loaded == [instance]
    save_clsd_dataset(loaded, path)
    assert path.read_bytes() == first
