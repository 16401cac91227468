import json
import os
import shutil
import sqlite3
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clsd
from clsd.cli import (
    _SECTIONS,
    CACHE_DIR_ENV,
    RunConfig,
    _build_parser,
    _embedder,
    load_run_config,
    render_report,
    run,
)
from clsd.errors import DataError
from clsd.evaluator import EvalReport, InstanceResult, load_eval_report, save_eval_report
from clsd.generator import GenerationConfig
from clsd.providers import ChatParams, LexicalEmbedder, ProviderConfig, ServiceEmbedder
from clsd.records import (
    ClsdInstance,
    Sentence,
    load_annotations,
    load_clsd_dataset,
    save_clsd_dataset,
)

from conftest import (
    ANNOTATIONS_PATH,
    CORPUS_PATH,
    FROZEN_BINS_CSV,
    FROZEN_NORM_SEED17,
    FROZEN_P_AT_1,
    FROZEN_SHIFT_CSV,
    FROZEN_SUCCESS_IDS,
    LINKSPARTEI_D1,
    LINKSPARTEI_D2,
    LINKSPARTEI_TARGET,
    http_reply,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_path(workdir, fixture_instances):
    path = workdir / "fixture.jsonl"
    save_clsd_dataset(fixture_instances, path)
    return path


def write_config(
    path,
    *,
    replay=None,
    translation=False,
    embedding=None,
    analysis=None,
    generation=None,
):
    cfg = {}
    if replay is not None:
        cfg["chat"] = {"endpoint": f"replay:{replay}", "model_id": "scripted-chat"}
    if translation:
        cfg["translation"] = {"endpoint": "identity:", "model_id": "identity-mt"}
    if embedding is not None:
        cfg["embedding"] = embedding
    if analysis is not None:
        cfg["analysis"] = analysis
    if generation is not None:
        cfg["generation"] = generation
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


def read_manifest(out_path):
    return json.loads(
        out_path.with_name(out_path.name + ".manifest.json").read_text(encoding="utf-8")
    )


def pivot_row(id, distractors=None):
    return {
        "id": id,
        "src_lang": "en",
        "tgt_lang": "en",
        "source": "The cat sleeps.",
        "target": "The cat sleeps.",
        "distractors": distractors or [f"The dog sleeps {i}." for i in range(4)],
        "meta": {},
        "pivot_lang": "en",
        "original_id": id,
    }


def write_rows(path, rows):
    path.write_text(
        "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows),
        encoding="utf-8",
    )
    return path


class TestGenerate:
    def test_full_run(self, tmp_path, replay_path, fixture_instances, capsys):
        config = write_config(tmp_path / "cfg.json", replay=replay_path)
        out = tmp_path / "generated.jsonl"
        code = run(
            [
                "generate",
                "--corpus",
                str(CORPUS_PATH),
                "--config",
                str(config),
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "generated 20 instances, skipped 0"
        assert load_clsd_dataset(out) == fixture_instances

        log_lines = [
            json.loads(line)
            for line in out.with_name(out.name + ".log.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        assert len(log_lines) == 20
        assert all(e["outcome"] == "ok" and e["attempts"] == 1 for e in log_lines)

        manifest = read_manifest(out)
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 0
        assert manifest["tool"] == "clsd"
        assert set(manifest["inputs"]) == {"corpus"}
        assert manifest["config_sha256"]

    def test_two_runs_byte_identical(self, tmp_path, replay_path):
        config = write_config(tmp_path / "cfg.json", replay=replay_path)
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert (
                run(
                    [
                        "generate",
                        "--corpus",
                        str(CORPUS_PATH),
                        "--config",
                        str(config),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        # manifests agree on everything except the write timestamp
        a, b = read_manifest(outs[0]), read_manifest(outs[1])
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b

    def test_seed_precedence_flag_over_config(self, tmp_path, replay_path):
        config = write_config(
            tmp_path / "cfg.json", replay=replay_path, analysis={"seed": 5}
        )
        out = tmp_path / "g.jsonl"
        base = [
            "generate",
            "--corpus",
            str(CORPUS_PATH),
            "--config",
            str(config),
            "--out",
            str(out),
        ]
        assert run([*base, "--seed", "9"]) == 0
        assert read_manifest(out)["seed"] == 9
        assert run(base) == 0
        assert read_manifest(out)["seed"] == 5

    def test_config_without_chat_section_fails(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", translation=True)
        code = run(
            [
                "generate",
                "--corpus",
                str(CORPUS_PATH),
                "--config",
                str(config),
                "--out",
                str(tmp_path / "g.jsonl"),
            ]
        )
        assert code == 1
        assert "no 'chat' section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_line",
        [b"not json", b'["key", "content"]', b'{"content": "x"}', b'{"key": "k", "content": 5}',
          b'{"key": "caf\xe9", "content": "x"}',  # Latin-1, not UTF-8
         b'{"key": "k", "content": "\\ud800"}'],  # a lone surrogate, which UTF-8 cannot write
    )
    def test_malformed_replay_line_skips_every_pair(self, tmp_path, replay_path, bad_line, capsys):
        replay = tmp_path / "replies.jsonl"
        replay.write_bytes(replay_path.read_bytes() + bad_line + b"\n")
        bad_lineno = len(replay.read_bytes().splitlines())
        out = tmp_path / "g.jsonl"
        config = write_config(tmp_path / "cfg.json", replay=replay)
        code = run(["generate", "--corpus", str(CORPUS_PATH), "--config", str(config),
                    "--out", str(out)])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        log = out.with_name(out.name + ".log.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(log) == 20
        for row in map(json.loads, log):
            assert (row["outcome"], row["attempts"]) == ("skipped", 1)
            assert f"{replay}:{bad_lineno}" in row["message"]


class TestValidate:
    def test_clean_dataset(self, dataset_path, capsys):
        assert run(["validate", "--dataset", str(dataset_path)]) == 0
        assert capsys.readouterr().out.strip() == "n_records=20 errors=0 warnings=0"

    def test_three_distractor_record_names_line(self, tmp_path, capsys):
        obj = {
            "id": "x",
            "src_lang": "de",
            "tgt_lang": "fr",
            "source": "Hallo.",
            "target": "Salut.",
            "distractors": ["Un.", "Deux.", "Trois."],
            "meta": {},
        }
        broken = tmp_path / "broken.jsonl"
        broken.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        assert run(["validate", "--dataset", str(broken)]) == 1
        err = capsys.readouterr().err
        assert "broken.jsonl:1" in err
        assert "length(distractors)=4" in err

    def test_duplicate_ids_exit_1(self, tmp_path, fixture_instances, capsys):
        twice = tmp_path / "dup.jsonl"
        first = fixture_instances[0]
        save_clsd_dataset([first, first], twice)
        assert run(["validate", "--dataset", str(twice)]) == 1
        assert "duplicate id" in capsys.readouterr().err

    def test_pivot_file_is_checked(self, tmp_path, capsys):
        rows = []
        for k in range(3):
            distractors = [f"The dog sleeps {k}{i}." for i in range(4)]
            if k == 1:
                distractors[2] = "The cat sleeps."
            rows.append(pivot_row("same", distractors=distractors))
        path = tmp_path / "pivot.jsonl"
        write_rows(path, rows)
        assert run(["validate", "--dataset", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.strip() == "n_records=3 errors=3 warnings=0"
        assert captured.err.count("duplicate id") == 2
        assert captured.err.count("distractor equals target") == 1


class TestStats:
    def test_writes_summary(self, tmp_path, dataset_path, capsys):
        out = tmp_path / "stats.json"
        assert run(["stats", "--dataset", str(dataset_path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert list(payload) == [
            "n_instances",
            "n_distractors",
            "jaccard_mean",
            "jaccard_std",
            "single_diff_count",
            "intra_jaccard_mean",
        ]
        assert payload["n_instances"] == 20
        assert payload["n_distractors"] == 80
        assert payload["single_diff_count"] == {"fr": 39}
        assert "jaccard_mean=" in capsys.readouterr().out
        assert read_manifest(out)["command"] == "stats"


class TestEval:
    def test_lexical_backend_frozen_precision(self, tmp_path, dataset_path, capsys):
        out = tmp_path / "report.json"
        code = run(
            [
                "eval",
                "--dataset",
                str(dataset_path),
                "--backend",
                "lexical",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "mode=direct n=20 p_at_1=0.2500" in capsys.readouterr().out
        report = load_eval_report(out)
        assert report.p_at_1 == FROZEN_P_AT_1
        assert report.success_ids == FROZEN_SUCCESS_IDS
        assert report.dataset_id == "fixture"
        assert report.backend_id == "lexical"
        assert set(read_manifest(out)["inputs"]) == {"dataset"}

    @pytest.mark.parametrize("field", ["source", "id", "report", "config", "norm"])
    def test_lone_surrogate_exit_1(self, tmp_path, dataset_path, field, capsys):
        # a \ud800 escape in a dataset line, or in a JSON document a command reads
        lone = "Hallo \ud800 Welt"
        ds, out = str(dataset_path), str(tmp_path / "out")
        if field in ("source", "id"):
            obj = json.loads(dataset_path.read_text(encoding="utf-8").splitlines()[0])
            path = tmp_path / "lone.jsonl"
            path.write_text(json.dumps({**obj, field: lone}) + "\n", encoding="utf-8")
            where = f"{path}:1"
            argvs = [
                ["validate", "--dataset", str(path)],
                ["eval", "--dataset", str(path), "--backend", "lexical", "--out", out],
            ]
        else:
            path = tmp_path / f"{field}.json"
            if field == "report":
                assert run(["eval", "--dataset", ds, "--backend", "lexical",
                            "--out", str(path)]) == 0
                doc = {**json.loads(path.read_text(encoding="utf-8")), "dataset_id": lone}
                argvs = [["report", "--inputs", str(path), "--out", out]]
            elif field == "config":
                doc = {"embedding": {"endpoint": "lexical", "model_id": lone}}
                argvs = [["eval", "--dataset", ds, "--config", str(path), "--out", out]]
            else:
                assert run(["norm", "--corpus", str(CORPUS_PATH), "--backend", "lexical",
                            "--seed", "17", "--out", str(path)]) == 0
                doc = {**json.loads(path.read_text(encoding="utf-8")), "model_id": lone}
                argvs = [["shift", "--dataset", ds, "--annotations", str(ANNOTATIONS_PATH),
                          "--norm", str(path), "--backend", "lexical", "--out", out]]
            path.write_text(json.dumps(doc), encoding="utf-8")
            where = str(path)
        capsys.readouterr()
        for argv in argvs:
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {where}: lone UTF-16 surrogate escape in a string")
            assert "Traceback" not in err

    def test_non_utf8_dataset_exit_1(self, tmp_path, dataset_path, capsys):
        lines = dataset_path.read_bytes().splitlines(keepends=True)
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(lines[0] + lines[1].replace(b'"id": "', b'"id": "\xe9', 1))
        utf16 = tmp_path / "utf16.jsonl"
        utf16.write_bytes(b"\xff\xfe" + lines[0].decode("utf-8").encode("utf-16-le"))
        for bad, where in ((path, "2: not UTF-8: byte 0xe9"), (utf16, "1: not UTF-8: byte 0xff")):
            for argv in (["validate"], ["eval", "--backend", "lexical", "--out", str(tmp_path / "r.json")]):
                assert run([*argv, "--dataset", str(bad)]) == 1
                err = capsys.readouterr().err
                assert err.startswith(f"error: {bad}:{where}")
                assert "Traceback" not in err

    def test_non_utf8_config_and_report_exit_1(self, tmp_path, dataset_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"paths": {"cache_dir": "\xe9"}}')
        out = str(tmp_path / "r.json")
        for argv in (
            ["eval", "--dataset", str(dataset_path), "--config", str(bad), "--out", out],
            ["compare", "--report-a", str(bad), "--report-b", str(bad), "--out", out],
        ):
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: invalid JSON: 'utf-8' codec can't decode")
            assert "Traceback" not in err

    def test_unopenable_cache_file_exit_1_and_kept(self, tmp_path, dataset_path, monkeypatch, capsys):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        db = cache_dir / "cache.sqlite3"
        content = b"plain text that a user saved under the cache's file name\n" * 4
        db.write_bytes(content)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "embedding": {"endpoint": "http://127.0.0.1:9/v1/embeddings", "model_id": "m"},
            "paths": {"cache_dir": str(cache_dir)},
        }))
        argv = ["eval", "--dataset", str(dataset_path), "--config", str(config),
                "--out", str(tmp_path / "r.json")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {db}: cannot open as an embedding cache: file is not a database")
        assert "Traceback" not in err
        assert db.read_bytes() == content
        assert sorted(p.name for p in cache_dir.iterdir()) == ["cache.sqlite3"]

    def test_cache_table_of_another_schema_exit_1_and_kept(
        self, tmp_path, dataset_path, monkeypatch, capsys
    ):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        db = cache_dir / "cache.sqlite3"
        other = sqlite3.connect(db)
        other.execute("CREATE TABLE embeddings (text TEXT, data BLOB)")
        other.execute("INSERT INTO embeddings VALUES ('a', x'00')")
        other.commit()
        other.close()
        content = db.read_bytes()
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "embedding": {"endpoint": "http://127.0.0.1:9/v1/embeddings", "model_id": "m"},
            "paths": {"cache_dir": str(cache_dir)},
        }))
        argv = ["eval", "--dataset", str(dataset_path), "--config", str(config),
                "--out", str(tmp_path / "r.json")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {db}: cannot open as an embedding cache: "
            "table embeddings has columns ['text', 'data']"
        )
        assert "Traceback" not in err
        assert db.read_bytes() == content
        assert sorted(p.name for p in cache_dir.iterdir()) == ["cache.sqlite3"]

    def test_explicit_dim_backend(self, tmp_path, dataset_path):
        out = tmp_path / "r64.json"
        assert (
            run(
                [
                    "eval",
                    "--dataset",
                    str(dataset_path),
                    "--backend",
                    "lexical:64",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert load_eval_report(out).model_id == "char3gram-64"

    def test_no_backend_no_config(self, tmp_path, dataset_path, capsys):
        code = run(
            ["eval", "--dataset", str(dataset_path), "--out", str(tmp_path / "r.json")]
        )
        assert code == 1
        assert "no embedding backend" in capsys.readouterr().err

    def test_unknown_backend(self, tmp_path, dataset_path, capsys):
        code = run(
            [
                "eval",
                "--dataset",
                str(dataset_path),
                "--backend",
                "bert",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "unknown backend" in capsys.readouterr().err

    def test_mixed_direct_and_pivot_exit_1(self, tmp_path, dataset_path, capsys):
        direct = json.loads(dataset_path.read_text(encoding="utf-8").splitlines()[0])
        for name, rows in (("direct-first", [direct, pivot_row("x")]),
                           ("pivot-first", [pivot_row("x"), direct])):
            path = write_rows(tmp_path / f"{name}.jsonl", rows)
            out = tmp_path / f"{name}.json"
            code = run(
                ["eval", "--dataset", str(path), "--backend", "lexical", "--out", str(out)]
            )
            assert code == 1, name
            assert "dataset mixes direct and pivot instances" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "endpoint,dim", [("lexical", 512), ("lexical:", 512), ("lexical:64", 64)]
    )
    def test_config_lexical_endpoint_matches_backend_flag(
        self, tmp_path, dataset_path, endpoint, dim
    ):
        config = write_config(
            tmp_path / "cfg.json",
            embedding={"endpoint": endpoint, "model_id": "ignored"},
        )
        via_config = tmp_path / "config.json"
        via_flag = tmp_path / "flag.json"
        for extra, out in ((["--config", str(config)], via_config),
                           (["--backend", endpoint], via_flag)):
            code = run(["eval", "--dataset", str(dataset_path), *extra, "--out", str(out)])
            assert code == 0
        report = load_eval_report(via_config)
        assert (report.backend_id, report.model_id) == ("lexical", f"char3gram-{dim}")
        assert via_config.read_bytes() == via_flag.read_bytes()
        table = render_report([str(via_config), str(via_flag)], "csv")
        assert table.splitlines()[1:] == [
            f"direct,char3gram-{dim},{100 * report.p_at_1:.2f},{100 * report.p_at_1:.2f}"
        ]

    def test_unreachable_endpoint_exit_2(self, tmp_path, dataset_path, capsys):
        config = write_config(
            tmp_path / "cfg.json",
            embedding={
                "endpoint": "http://127.0.0.1:9/v1/embeddings",
                "model_id": "emb-1",
                "retry_attempts": 1,
                "retry_base_ms": 1,
            },
        )
        code = run(
            [
                "eval",
                "--dataset",
                str(dataset_path),
                "--config",
                str(config),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_object_reply_exit_2(self, tmp_path, dataset_path, http_service, capsys):
        posts = http_service.script(http_reply(200, []))
        endpoint = http_service.url
        # one request for the whole dataset: one scripted reply answers it
        embedding = {"endpoint": endpoint, "model_id": "e", "max_batch": 256}
        config = write_config(tmp_path / "cfg.json", embedding=embedding)
        out = tmp_path / "r.json"
        code = run(["eval", "--dataset", str(dataset_path), "--config", str(config),
                    "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed embedding response from {endpoint}: ")
        assert "Traceback" not in err and not out.exists()
        assert len(posts) == 1


class TestPivotAndCompare:
    def test_identity_pivot_matches_direct(self, tmp_path, dataset_path, capsys):
        config = write_config(tmp_path / "cfg.json", translation=True)
        pivot_out = tmp_path / "pivot.jsonl"
        code = run(
            [
                "pivot",
                "--dataset",
                str(dataset_path),
                "--config",
                str(config),
                "--pivot-lang",
                "en",
                "--out",
                str(pivot_out),
            ]
        )
        assert code == 0
        assert "pivoted 20 instances, skipped 0" in capsys.readouterr().out

        assert run(["validate", "--dataset", str(pivot_out)]) == 0
        assert "n_records=20" in capsys.readouterr().out

        direct_report = tmp_path / "direct.json"
        pivot_report = tmp_path / "pivot.json"
        for dataset, out in ((dataset_path, direct_report), (pivot_out, pivot_report)):
            assert (
                run(
                    [
                        "eval",
                        "--dataset",
                        str(dataset),
                        "--backend",
                        "lexical",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        assert load_eval_report(pivot_report).mode == "pivot"
        assert load_eval_report(pivot_report).p_at_1 == FROZEN_P_AT_1

        compare_out = tmp_path / "disagreement.json"
        code = run(
            [
                "compare",
                "--report-a",
                str(direct_report),
                "--report-b",
                str(pivot_report),
                "--out",
                str(compare_out),
            ]
        )
        assert code == 0
        assert "only_a=0 only_b=0" in capsys.readouterr().out
        payload = json.loads(compare_out.read_text(encoding="utf-8"))
        assert payload == {"success_only_a": [], "success_only_b": []}

    def test_pivot_requires_translation_section(self, tmp_path, dataset_path, capsys):
        config = write_config(tmp_path / "cfg.json")
        code = run(
            [
                "pivot",
                "--dataset",
                str(dataset_path),
                "--config",
                str(config),
                "--pivot-lang",
                "en",
                "--out",
                str(tmp_path / "p.jsonl"),
            ]
        )
        assert code == 1
        assert "no 'translation' section" in capsys.readouterr().err


class TestNorm:
    def test_frozen_value(self, tmp_path, capsys):
        out = tmp_path / "norm.json"
        code = run(
            [
                "norm",
                "--corpus",
                str(CORPUS_PATH),
                "--backend",
                "lexical",
                "--seed",
                "17",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "seed=17" in capsys.readouterr().out
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["value"] == pytest.approx(FROZEN_NORM_SEED17, abs=1e-12)
        assert payload["seed"] == 17
        assert payload["direction"] == ["de", "fr"]

    def test_seed_from_config(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", analysis={"seed": 17})
        out = tmp_path / "norm.json"
        code = run(
            [
                "norm",
                "--corpus",
                str(CORPUS_PATH),
                "--backend",
                "lexical",
                "--config",
                str(config),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["seed"] == 17

    def test_missing_seed(self, tmp_path, capsys):
        code = run(
            [
                "norm",
                "--corpus",
                str(CORPUS_PATH),
                "--backend",
                "lexical",
                "--out",
                str(tmp_path / "n.json"),
            ]
        )
        assert code == 1
        assert "no seed" in capsys.readouterr().err


class TestDiffAnnotate:
    def test_fixture_candidates(self, tmp_path, dataset_path, capsys):
        out = tmp_path / "candidates.jsonl"
        assert (
            run(["diff-annotate", "--dataset", str(dataset_path), "--out", str(out)])
            == 0
        )
        assert "candidates=39" in capsys.readouterr().out
        lines = [
            json.loads(line)
            for line in out.read_text(encoding="utf-8").splitlines()
        ]
        assert len(lines) == 39
        assert all(e["pos"] == "" for e in lines)
        assert list(lines[0]) == [
            "instance_id",
            "distractor_index",
            "position",
            "target_token",
            "distractor_token",
            "pos",
        ]

    def test_candidates_cover_fixture_annotations(
        self, tmp_path, dataset_path, fixture_annotations
    ):
        out = tmp_path / "candidates.jsonl"
        run(["diff-annotate", "--dataset", str(dataset_path), "--out", str(out)])
        emitted = {
            (e["instance_id"], e["distractor_index"], e["position"])
            for e in (
                json.loads(line) for line in out.read_text("utf-8").splitlines()
            )
        }
        annotated = {
            (a.instance_id, a.distractor_index, a.position) for a in fixture_annotations
        }
        assert annotated < emitted  # one candidate was left unannotated on purpose

    def test_published_example_positions(self, tmp_path, capsys):
        instance = ClsdInstance(
            id="t1",
            source=Sentence(text="source placeholder", lang="fr"),
            target=Sentence(text=LINKSPARTEI_TARGET, lang="de"),
            distractors=(
                Sentence(text=LINKSPARTEI_D1, lang="de"),
                Sentence(text=LINKSPARTEI_D2, lang="de"),
                Sentence(text="Ganz anderer Satz ohne jede Gemeinsamkeit.", lang="de"),
                Sentence(
                    text="Noch ein Satz mit völlig eigener Struktur dabei.", lang="de"
                ),
            ),
            meta={},
        )
        dataset = tmp_path / "t1.jsonl"
        save_clsd_dataset([instance], dataset)
        out = tmp_path / "candidates.jsonl"
        assert run(["diff-annotate", "--dataset", str(dataset), "--out", str(out)]) == 0
        assert "candidates=2" in capsys.readouterr().out
        lines = [json.loads(l) for l in out.read_text("utf-8").splitlines()]
        assert [(e["distractor_index"], e["position"]) for e in lines] == [
            (0, 8),
            (1, 2),
        ]
        assert lines[0]["target_token"] == "Europawahl"
        assert lines[1]["distractor_token"] == "verweigert"

    def test_no_candidates_gives_empty_file(self, tmp_path, capsys):
        instance = ClsdInstance(
            id="n1",
            source=Sentence(text="source", lang="fr"),
            target=Sentence(text="Ein kurzer Satz.", lang="de"),
            distractors=tuple(
                Sentence(text=f"Völlig anderes mit mehr Wörtern {i}.", lang="de")
                for i in range(4)
            ),
            meta={},
        )
        dataset = tmp_path / "n1.jsonl"
        save_clsd_dataset([instance], dataset)
        out = tmp_path / "candidates.jsonl"
        assert run(["diff-annotate", "--dataset", str(dataset), "--out", str(out)]) == 0
        assert "candidates=0" in capsys.readouterr().out
        assert out.read_bytes() == b""

    def test_round_trips_through_annotation_loader_after_tagging(
        self, tmp_path, dataset_path
    ):
        out = tmp_path / "candidates.jsonl"
        run(["diff-annotate", "--dataset", str(dataset_path), "--out", str(out)])
        tagged = out.with_name("tagged.jsonl")
        tagged.write_text(
            "".join(
                json.dumps({**json.loads(line), "pos": "NOUN"}, ensure_ascii=False)
                + "\n"
                for line in out.read_text("utf-8").splitlines()
            ),
            encoding="utf-8",
        )
        assert len(load_annotations(tagged)) == 39


class TestShiftCommand:
    def test_frozen_csv(self, tmp_path, dataset_path, capsys):
        norm_out = tmp_path / "norm.json"
        assert (
            run(
                [
                    "norm",
                    "--corpus",
                    str(CORPUS_PATH),
                    "--backend",
                    "lexical",
                    "--seed",
                    "17",
                    "--out",
                    str(norm_out),
                ]
            )
            == 0
        )
        out = tmp_path / "shift.csv"
        code = run(
            [
                "shift",
                "--dataset",
                str(dataset_path),
                "--annotations",
                str(ANNOTATIONS_PATH),
                "--norm",
                str(norm_out),
                "--backend",
                "lexical",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "records=38" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == FROZEN_SHIFT_CSV

        again = tmp_path / "shift2.csv"
        run(
            [
                "shift",
                "--dataset",
                str(dataset_path),
                "--annotations",
                str(ANNOTATIONS_PATH),
                "--norm",
                str(norm_out),
                "--backend",
                "lexical",
                "--out",
                str(again),
            ]
        )
        assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("mismatch", ["model", "direction"])
    def test_norm_of_another_model_or_direction_exit_1(
        self, tmp_path, dataset_path, mismatch, capsys
    ):
        norm = tmp_path / "norm.json"
        argv = ["norm", "--corpus", str(CORPUS_PATH), "--backend", "lexical:128", "--seed", "17"]
        assert run([*argv, "--out", str(norm)]) == 0
        backend, expected = "lexical:1024", "model 'char3gram-128', not 'char3gram-1024'"
        if mismatch == "direction":
            doc = json.loads(norm.read_text(encoding="utf-8"))
            norm.write_text(json.dumps({**doc, "direction": ["fr", "de"]}), encoding="utf-8")
            backend, expected = "lexical:128", "direction fr->de, not de->fr"
        out = tmp_path / "shift.csv"
        code = run(["shift", "--dataset", str(dataset_path), "--annotations",
                    str(ANNOTATIONS_PATH), "--norm", str(norm), "--backend", backend,
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {norm}: norm is for {expected}")
        assert "Traceback" not in err and not out.exists()


class TestBinsCommand:
    def test_frozen_csv_and_percentages(self, tmp_path, dataset_path, capsys):
        report_out = tmp_path / "report.json"
        run(
            [
                "eval",
                "--dataset",
                str(dataset_path),
                "--backend",
                "lexical",
                "--out",
                str(report_out),
            ]
        )
        out = tmp_path / "bins.csv"
        code = run(
            [
                "bins",
                "--report",
                str(report_out),
                "--dataset",
                str(dataset_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "successful_distractors=21" in capsys.readouterr().out
        text = out.read_text(encoding="utf-8")
        assert text == FROZEN_BINS_CSV
        rows = text.strip().splitlines()[1:]
        pct_sum = sum(float(r.split(",")[-1]) for r in rows)
        assert pct_sum == pytest.approx(100.0, abs=0.1)
        total = sum(int(r.split(",")[2]) for r in rows)
        assert total == 80

    def test_top_edge_below_one_exit_1(self, tmp_path, dataset_path, capsys):
        report_out = tmp_path / "report.json"
        assert run(
            ["eval", "--dataset", str(dataset_path), "--backend", "lexical",
             "--out", str(report_out)]
        ) == 0
        config = write_config(tmp_path / "cfg.json", analysis={"bin_edges": [[0.5, 0.7]]})
        out = tmp_path / "bins.csv"
        code = run(
            ["bins", "--report", str(report_out), "--dataset", str(dataset_path),
             "--config", str(config), "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: value " in err and "above the topmost bin (0.5, 0.7)" in err
        assert not out.exists()

    def test_no_successful_distractors_flagged(self, tmp_path, capsys):
        instance = ClsdInstance(
            id="w1",
            source=Sentence(text="die quelle", lang="de"),
            target=Sentence(text="la cible exacte", lang="fr"),
            distractors=tuple(
                Sentence(text=f"la cible {w}", lang="fr")
                for w in ("un", "deux", "trois", "quatre")
            ),
            meta={},
        )
        dataset = tmp_path / "win.jsonl"
        save_clsd_dataset([instance], dataset)
        report = EvalReport(
            dataset_id="win",
            backend_id="b",
            model_id="m",
            mode="direct",
            n=1,
            p_at_1=1.0,
            results=(
                InstanceResult(
                    instance_id="w1",
                    sim_target=0.9,
                    sim_distractors=(0.1, 0.2, 0.3, 0.4),
                    rank_of_target=1,
                    success=True,
                ),
            ),
        )
        report_path = tmp_path / "win-report.json"
        save_eval_report(report, report_path)
        out = tmp_path / "bins.csv"
        code = run(
            [
                "bins",
                "--report",
                str(report_path),
                "--dataset",
                str(dataset),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "no successful distractors" in captured.err
        assert "successful_distractors=0" in captured.out
        for row in out.read_text("utf-8").strip().splitlines()[1:]:
            assert row.endswith(",0.00")


def synthetic_report(path, dataset_id, successes, n=5000, model_id="labse-like", mode="direct"):
    results = []
    for i in range(n):
        won = i < successes
        results.append(
            InstanceResult(
                instance_id=f"{dataset_id}-{i}",
                sim_target=0.9 if won else 0.1,
                sim_distractors=(0.5, 0.4, 0.3, 0.2),
                rank_of_target=1 if won else 5,
                success=won,
            )
        )
    report = EvalReport(
        dataset_id=dataset_id,
        backend_id="svc",
        model_id=model_id,
        mode=mode,
        n=n,
        p_at_1=successes / n,
        results=tuple(results),
    )
    save_eval_report(report, path)
    return path


class TestReportCommand:
    def test_four_dataset_average(self, tmp_path, capsys):
        # 4759/4715/4703/4709 of 5000 -> 95.18, 94.30, 94.06, 94.18
        inputs = [
            str(
                synthetic_report(
                    tmp_path / f"r{i}.json", dataset_id=f"ds{i}", successes=s
                )
            )
            for i, s in enumerate([4759, 4715, 4703, 4709])
        ]
        out = tmp_path / "table.md"
        code = run(["report", "--inputs", *inputs, "--format", "markdown", "--out", str(out)])
        assert code == 0
        assert "wrote markdown report" in capsys.readouterr().out
        text = out.read_text(encoding="utf-8")
        assert text.startswith("# Precision@1 (%)\n")
        assert "## direct" in text
        assert "| labse-like | 95.18 | 94.30 | 94.06 | 94.18 | 94.43 |" in text

    def test_csv_format(self, tmp_path):
        inputs = [
            str(
                synthetic_report(
                    tmp_path / f"r{i}.json", dataset_id=f"ds{i}", successes=s, n=100
                )
            )
            for i, s in enumerate([90, 80])
        ]
        out = tmp_path / "table.csv"
        assert run(["report", "--inputs", *inputs, "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == (
            "mode,model,ds0,ds1,Average\n"
            "direct,labse-like,90.00,80.00,85.00\n"
        )

    def test_single_report(self, tmp_path):
        path = synthetic_report(tmp_path / "r.json", dataset_id="only", successes=75, n=100)
        out = tmp_path / "table.csv"
        assert run(["report", "--inputs", str(path), "--format", "csv", "--out", str(out)]) == 0
        assert "direct,labse-like,75.00,75.00\n" in out.read_text(encoding="utf-8")

    def test_direct_block_before_pivot(self, tmp_path):
        a = synthetic_report(tmp_path / "a.json", dataset_id="ds", successes=70, n=100)
        b = synthetic_report(
            tmp_path / "b.json", dataset_id="ds", successes=60, n=100, mode="pivot"
        )
        out = tmp_path / "table.md"
        assert run(["report", "--inputs", str(a), str(b), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.index("## direct") < text.index("## pivot")

    def test_conflicting_duplicates_rejected(self, tmp_path, capsys):
        a = synthetic_report(tmp_path / "a.json", dataset_id="ds", successes=70, n=100)
        b = synthetic_report(tmp_path / "b.json", dataset_id="ds", successes=60, n=100)
        code = run(
            [
                "report",
                "--inputs",
                str(a),
                str(b),
                "--out",
                str(tmp_path / "t.md"),
            ]
        )
        assert code == 1
        assert "conflicting duplicate" in capsys.readouterr().err

    def test_identical_duplicates_collapse(self, tmp_path):
        a = synthetic_report(tmp_path / "a.json", dataset_id="ds", successes=70, n=100)
        out = tmp_path / "t.csv"
        assert (
            run(
                [
                    "report",
                    "--inputs",
                    str(a),
                    str(a),
                    "--format",
                    "csv",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2  # header + one row

    def test_missing_cell_left_empty(self, tmp_path):
        a = synthetic_report(
            tmp_path / "a.json", dataset_id="ds0", successes=80, n=100, model_id="m-a"
        )
        b = synthetic_report(
            tmp_path / "b.json", dataset_id="ds1", successes=60, n=100, model_id="m-a"
        )
        c = synthetic_report(
            tmp_path / "c.json", dataset_id="ds0", successes=50, n=100, model_id="m-b"
        )
        out = tmp_path / "t.csv"
        assert (
            run(
                [
                    "report",
                    "--inputs",
                    str(a),
                    str(b),
                    str(c),
                    "--format",
                    "csv",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert out.read_text(encoding="utf-8") == (
            "mode,model,ds0,ds1,Average\n"
            "direct,m-a,80.00,60.00,70.00\n"
            "direct,m-b,50.00,,50.00\n"
        )

    def test_render_report_rejects_empty_and_bad_format(self):
        with pytest.raises(DataError):
            render_report([])
        with pytest.raises(DataError):
            render_report(["x.json"], fmt="html")


@pytest.fixture(scope="module")
def manifest_files(workdir, dataset_path, replay_path):
    """Every input the file-writing commands read, built once."""
    files = {"corpus": CORPUS_PATH, "dataset": dataset_path, "annotations": ANNOTATIONS_PATH}
    files["config"] = write_config(
        workdir / "manifest-cfg.json",
        replay=replay_path,
        translation=True,
        embedding={"endpoint": "lexical", "model_id": "m"},
        analysis={"seed": 17},
    )
    files["report"] = workdir / "manifest-report.json"
    files["norm"] = workdir / "manifest-norm.json"
    assert run(["eval", "--dataset", str(dataset_path), "--backend", "lexical",
                "--out", str(files["report"])]) == 0
    assert run(["norm", "--corpus", str(CORPUS_PATH), "--backend", "lexical",
                "--seed", "17", "--out", str(files["norm"])]) == 0
    return files


class TestManifests:
    @pytest.mark.parametrize(
        "argv,inputs,config_hashed,seed",
        [
            ("generate --corpus {corpus} --config {config}", {"corpus"}, True, 17),
            ("generate --corpus {corpus} --config {config} --seed 3", {"corpus"}, True, 3),
            ("stats --dataset {dataset}", {"dataset"}, False, None),
            ("eval --dataset {dataset} --config {config}", {"dataset"}, True, None),
            ("eval --dataset {dataset} --backend lexical", {"dataset"}, False, None),
            ("pivot --dataset {dataset} --config {config} --pivot-lang en",
             {"dataset"}, True, None),
            ("compare --report-a {report} --report-b {report}",
             {"report_a", "report_b"}, False, None),
            ("norm --corpus {corpus} --config {config}", {"corpus"}, True, 17),
            ("norm --corpus {corpus} --backend lexical --seed 5", {"corpus"}, False, 5),
            ("diff-annotate --dataset {dataset}", {"dataset"}, False, None),
            ("shift --dataset {dataset} --annotations {annotations} --norm {norm} "
             "--config {config}", {"dataset", "annotations", "norm"}, True, None),
            ("shift --dataset {dataset} --annotations {annotations} --norm {norm} "
             "--backend lexical", {"dataset", "annotations", "norm"}, False, None),
            ("bins --report {report} --dataset {dataset} --config {config}",
             {"report", "dataset"}, True, None),
            ("bins --report {report} --dataset {dataset}", {"report", "dataset"}, False, None),
            ("report --inputs {report} {report} {report}",
             {"report_0", "report_1", "report_2"}, False, None),
        ],
    )
    def test_manifest_fields(
        self, tmp_path, manifest_files, argv, inputs, config_hashed, seed
    ):
        out = tmp_path / "out"
        args = argv.format(**{k: str(v) for k, v in manifest_files.items()}).split()
        assert run([*args, "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["command"] == args[0]
        assert set(manifest["inputs"]) == inputs
        assert (manifest["config_sha256"] is not None) == config_hashed
        assert manifest["seed"] == seed
        assert manifest["version"] == clsd.__version__


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "doc,key,value",
        [
            ("report", "dataset_id", 7),
            ("report", "mode", None),
            ("report", "n", True),
            ("report", "p_at_1", float("nan")),
            ("report", "p_at_1", "0.25"),
            ("report", "id", 7),
            ("report", "success", "false"),
            ("report", "rank_of_target", 1.5),
            ("report", "sim_target", True),
            ("report", "sim_distractors", [0.1, 0.2, 0.3, float("inf")]),
            ("norm", "direction", "de"),
            ("norm", "model_id", 5),
            ("norm", "seed", True),
            ("norm", "value", "0.5"),
        ],
    )
    def test_mistyped_value_exit_1(
        self, tmp_path, manifest_files, dataset_path, doc, key, value, capsys
    ):
        obj = json.loads(manifest_files[doc].read_text(encoding="utf-8"))
        (obj if key in obj else obj["results"][0])[key] = value
        path = tmp_path / f"{doc}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        out = str(tmp_path / "out")
        if doc == "report":
            argv = ["report", "--inputs", str(path), "--out", out]
            what = "malformed eval report"
        else:
            argv = ["shift", "--dataset", str(dataset_path), "--annotations",
                    str(ANNOTATIONS_PATH), "--norm", str(path), "--backend", "lexical",
                    "--out", out]
            what = "malformed normalization file"
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {what}: ")
        assert f"key {key!r}" in err
        assert "Traceback" not in err


class TestInvariantErrorsNameTheFile:
    """A record invariant broken in an input file is reported under its name."""

    @pytest.mark.parametrize(
        "doc,change,message",
        [
            ("report", lambda o: o.update(mode="x"), "mode must be direct or pivot"),
            ("report", lambda o: o.update(n=2, results=o["results"][:1]),
             "n must equal the number of results"),
            ("report", lambda o: o.update(p_at_1=o["p_at_1"] + 0.01),
             "p_at_1 does not equal the success fraction"),
            ("norm", lambda o: o.update(value=-0.5), "value must be positive"),
            ("config", lambda o: o["embedding"].update(max_batch=0),
             "section 'embedding': max_batch and max_inflight must be >= 1"),
            ("config", lambda o: o["embedding"].update(retry_attempts=0),
             "section 'embedding': retry_attempts must be >= 1"),
            ("config", lambda o: o.update(generation={"temperature": -1}),
             "section 'generation': temperature must be >= 0"),
            ("config", lambda o: o.update(generation={"top_p": 0}),
             "section 'generation': top_p must be in (0, 1]"),
            ("config", lambda o: o.update(analysis={"bin_edges": [[0.5, 1.0], [0.6, 0.9]]}),
             "section 'analysis': key 'bin_edges': bin edges overlap"),
            ("config", lambda o: o["embedding"].update(retry_base_ms=-100),
             "section 'embedding': retry_base_ms must be >= 0"),
            ("config", lambda o: o.update(analysis={"bin_edges": [[0.9, 1.0], [0.3, 0.6]]}),
             "section 'analysis': key 'bin_edges': gap between bins (0.9, 1.0) and (0.3, 0.6)"),
        ],
        ids=["mode", "n", "p_at_1", "norm_value", "max_batch", "retry_attempts",
             "temperature", "top_p", "bin_edges", "retry_base_ms", "bin_edges_gap"],
    )
    def test_exit_1_naming_the_file(
        self, tmp_path, manifest_files, dataset_path, doc, change, message, capsys
    ):
        if doc == "config":
            obj = {"embedding": {"endpoint": "lexical", "model_id": "m"}}
        else:
            obj = json.loads(manifest_files[doc].read_text(encoding="utf-8"))
        change(obj)
        path = tmp_path / f"{doc}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        out = str(tmp_path / "out")
        argv = {
            "report": ["report", "--inputs", str(path), "--out", out],
            "norm": ["shift", "--dataset", str(dataset_path), "--annotations",
                     str(ANNOTATIONS_PATH), "--norm", str(path), "--backend", "lexical",
                     "--out", out],
            "config": ["eval", "--dataset", str(dataset_path), "--config", str(path),
                       "--out", out],
        }[doc]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert message in err
        assert "Traceback" not in err


# A mutation replaces one leaf value of an input file by one of these, or
# deletes its key; "\ud800" is written as a lone-surrogate escape.
_DELETE = object()
_MUTANTS = (None, True, 1.5, -1, "7", "nan", [], {}, "\ud800", _DELETE)
_MUTATION_CONFIG = {
    "embedding": {"endpoint": "lexical", "model_id": "m", "api_key_env": None, "max_batch": 8,
                  "max_inflight": 2, "retry_attempts": 3, "retry_base_ms": 250},
    "chat": {"endpoint": "replay:unused.jsonl", "model_id": "m"},
    "generation": {"max_retries": 2, "prompt_version": "v1", "language_names": {"de": "German"},
                   "temperature": 0.5, "top_p": 0.9},
    "analysis": {"bin_edges": [[0.6, 1.0], [0.3, 0.6]], "seed": 17},
    "paths": {"cache_dir": None},
}


def _leaves(obj, path=()):
    """The path to every scalar and empty container in a JSON value."""
    if isinstance(obj, (dict, list)) and obj:
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _leaves(value, (*path, key))
    else:
        yield path


def _config_value(config, section, key, *rest):
    """The loaded value of one config leaf."""
    if section in ("embedding", "chat", "translation"):
        value = getattr(getattr(config, section), key)
    elif key in ("temperature", "top_p"):
        value = getattr(config.generation["params"], key)
    elif section == "generation":
        value = config.generation["language_name_map" if key == "language_names" else key]
    else:
        value = getattr(config, key)
    for index in rest:
        value = value[index]
    return value


class TestMutatedInputs:
    """One changed value in any input file gives exit 0, 1 or 2 and no
    traceback; an error names that file, and a config that loads keeps the
    new value exactly."""

    @pytest.fixture(scope="class")
    def originals(self, manifest_files, tmp_path_factory):
        docs = {kind: [json.loads(line) for line in manifest_files[kind].read_text(
            encoding="utf-8").splitlines()] for kind in ("dataset", "corpus", "annotations")}
        for kind in ("report", "norm"):
            docs[kind] = json.loads(manifest_files[kind].read_text(encoding="utf-8"))
        docs["config"] = _MUTATION_CONFIG
        return docs, tmp_path_factory.mktemp("mutated")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_one_mutated_value(self, originals, manifest_files, data):
        docs, workdir = originals
        kind = data.draw(st.sampled_from(sorted(docs)))
        obj = json.loads(json.dumps(docs[kind]))
        *parents, last = data.draw(st.sampled_from(list(_leaves(obj))))
        holder = obj
        for key in parents:
            holder = holder[key]
        value = data.draw(st.sampled_from(_MUTANTS))
        if value is _DELETE and isinstance(holder, dict):
            del holder[last]
        else:  # a list element is not deleted but set to null
            holder[last] = value = None if value is _DELETE else value
        path = workdir / f"{kind}.json"
        jsonl = kind in ("dataset", "corpus", "annotations")
        path.write_text("".join(json.dumps(o) + "\n" for o in obj) if jsonl else json.dumps(obj),
                        encoding="utf-8")
        files = {k: str(path if k == kind else v) for k, v in manifest_files.items()}
        out = ["--out", str(workdir / "out")]
        argv = {
            "dataset": ["validate", "--dataset", files["dataset"]],
            "corpus": ["norm", "--corpus", files["corpus"], "--backend", "lexical", "--seed", "17",
                       *out],
            "report": ["report", "--inputs", files["report"], *out],
            "config": ["bins", "--report", files["report"], "--dataset", files["dataset"],
                       "--config", str(path), *out],
        }.get(kind, ["shift", "--dataset", files["dataset"], "--annotations",
                     files["annotations"], "--norm", files["norm"], "--backend", "lexical", *out])
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith(f"error: {path}")
        if kind == "config" and value is not _DELETE:
            try:
                loaded = _config_value(load_run_config(path), *parents, last)
            except DataError:
                return
            assert loaded == value and isinstance(loaded, bool) == isinstance(value, bool)


class TestArgumentHandling:
    def test_parser_built_once_and_reused(self, dataset_path, capsys):
        assert _build_parser() is _build_parser()
        helps = []
        for _ in range(2):
            assert run(["--help"]) == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        assert helps[0].startswith("usage: clsd ")
        assert run(["validate", "--nope"]) == 1
        assert "usage:" in capsys.readouterr().err
        assert run(["validate", "--dataset", str(dataset_path)]) == 0
        assert capsys.readouterr().out.startswith("n_records=")

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["validate", "--nope"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run(["validate"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert run([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out == f"clsd {clsd.__version__}\n"

    def test_unknown_config_section(self, tmp_path, dataset_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"wat": {}}', encoding="utf-8")
        code = run(
            [
                "eval",
                "--dataset",
                str(dataset_path),
                "--config",
                str(config),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "unknown config sections" in capsys.readouterr().err

    def test_unknown_provider_key(self, tmp_path, dataset_path, capsys):
        config = write_config(
            tmp_path / "cfg.json",
            embedding={"endpoint": "lexical:512", "model_id": "m", "timeout": 5},
        )
        code = run(
            [
                "eval",
                "--dataset",
                str(dataset_path),
                "--config",
                str(config),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sections,message",
        [
            ({"analysis": {"seed": "abc"}}, "section 'analysis': key 'seed'"),
            ({"chat": {"max_batch": "lots"}}, "section 'chat': key 'max_batch'"),
            ({"analysis": {"bin_edges": [[0.5]]}}, "section 'analysis': key 'bin_edges'"),
            ({"generation": {"temperature": "hot"}}, "section 'generation': key 'temperature'"),
            ({"chat": {"endpoint": 5}}, "section 'chat': key 'endpoint' is not a string"),
            ({"chat": {"model_id": [1]}}, "section 'chat': key 'model_id' is not a string"),
            ({"chat": {"api_key_env": 5}}, "section 'chat': key 'api_key_env' is not a string"),
            ({"paths": {"cache_dir": 5}}, "section 'paths': key 'cache_dir' is not a string"),
            ({"generation": "abc"}, "section 'generation': expected a JSON object"),
            ({"embedding": ["x"]}, "section 'embedding': expected a JSON object"),
            ({"paths": {"output_dir": "out"}}, "section 'paths': unknown keys ['output_dir']"),
            (
                {"generation": {"prompt_version": None}},
                "section 'generation': key 'prompt_version' is not a string",
            ),
            ({"analysis": {"seed": 1.9}}, "section 'analysis': key 'seed' is not an integer"),
            ({"analysis": {"seed": True}}, "section 'analysis': key 'seed' is not an integer"),
            ({"chat": {"max_batch": 2.5}}, "section 'chat': key 'max_batch' is not an integer"),
            (
                {"generation": {"temperature": "nan"}},
                "section 'generation': key 'temperature' is not a finite number",
            ),
            (
                {"generation": {"language_names": {"de": 5}}},
                "section 'generation': key 'language_names' is not a string-to-string object",
            ),
            (
                {"generation": {"language_names": [["de", "German"]]}},
                "section 'generation': key 'language_names' is not a string-to-string object",
            ),
            ({"analysis": {"seed": -1}}, "section 'analysis': key 'seed' is not an integer >= 0"),
        ],
    )
    def test_bad_config_value_exit_1(self, tmp_path, sections, message, capsys):
        cfg = {"chat": {"endpoint": "replay:unused.jsonl", "model_id": "m"}}
        for name, section in sections.items():
            cfg[name] = {**cfg[name], **section} if name == "chat" else section
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        code = run(
            ["generate", "--corpus", str(CORPUS_PATH), "--config", str(config),
             "--out", str(tmp_path / "g.jsonl")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ") and message in err
        assert "Traceback" not in err

    def test_numeric_strings_refused_null_sections_kept(self, tmp_path, dataset_path, capsys):
        # config values follow the report and norm rule: a number is not its spelling
        config = tmp_path / "cfg.json"
        for name, key, value in [
            ("embedding", "max_batch", "32"),
            ("analysis", "seed", "7"),
            ("analysis", "bin_edges", [["0.5", 1]]),
            ("generation", "max_retries", "1"),
            ("generation", "temperature", "0.5"),
        ]:
            section = {"endpoint": "lexical", "model_id": "m"} if name == "embedding" else {}
            config.write_text(json.dumps({name: {**section, key: value}}), encoding="utf-8")
            argv = ["eval", "--dataset", str(dataset_path), "--backend", "lexical",
                    "--config", str(config), "--out", str(tmp_path / "r.json")]
            capsys.readouterr()
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {config}: section {name!r}: key {key!r} is not a")
        config.write_text('{"generation": null, "paths": null}', encoding="utf-8")
        assert load_run_config(config) == RunConfig()

    def test_config_keys_follow_the_config_dataclasses(self):
        """A new config field cannot go without a config key."""
        def names(cls, *drop):
            return {f.name for f in fields(cls)} - set(drop)

        for kind in ("embedding", "chat", "translation"):
            assert set(_SECTIONS[kind]) == names(ProviderConfig, "kind")
        generation = names(GenerationConfig, "chat", "params") | names(ChatParams)
        assert set(_SECTIONS["generation"]) == generation - {"language_name_map"} | {
            "language_names"
        }
        assert set(_SECTIONS["analysis"]) | set(_SECTIONS["paths"]) == names(RunConfig, *_SECTIONS)

    def test_missing_input_file_exit_1(self, tmp_path, capsys):
        code = run(["validate", "--dataset", str(tmp_path / "absent.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFlagsAndOutputs:
    """A bad flag value or an output path that names an input exits 1 before
    any work, with no traceback, and leaves every input as it was."""

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("dim", ["65537", "9" * 5000], ids=["65537", "5000-nines"])
    def test_lexical_dim_above_bound_exit_1(self, tmp_path, dataset_path, route, dim, capsys):
        spec = f"lexical:{dim}"
        config = write_config(tmp_path / "cfg.json", embedding={"endpoint": spec, "model_id": "m"})
        backend = ["--backend", spec] if route == "flag" else ["--config", str(config)]
        out = tmp_path / "r.json"
        assert run(["eval", "--dataset", str(dataset_path), *backend, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad lexical spec: dim must be at most 65536")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize(
        "command,flag,value",
        [("norm", "--seed", "-1"), ("generate", "--seed", "-5"), ("pivot", "--pivot-lang", "")],
    )
    def test_bad_flag_value_exit_1(
        self, tmp_path, dataset_path, replay_path, command, flag, value, capsys
    ):
        config = write_config(tmp_path / "cfg.json", replay=replay_path, translation=True)
        out = tmp_path / "out.json"
        argv = {
            "norm": ["norm", "--corpus", str(CORPUS_PATH), "--backend", "lexical"],
            "generate": ["generate", "--corpus", str(CORPUS_PATH), "--config", str(config)],
            "pivot": ["pivot", "--dataset", str(dataset_path), "--config", str(config)],
        }[command]
        assert run([*argv, flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: expected " in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_config_seed_exit_1(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", analysis={"seed": -1})
        code = run(["norm", "--corpus", str(CORPUS_PATH), "--backend", "lexical",
                    "--config", str(config), "--out", str(tmp_path / "n.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: section 'analysis': key 'seed' is not an")

    @pytest.mark.parametrize("out_name", ["d.jsonl", "r.json", "d.jsonl.manifest.json"])
    def test_out_naming_an_input_exit_1(self, tmp_path, dataset_path, out_name, capsys):
        dataset, report = tmp_path / "d.jsonl", tmp_path / "r.json"
        shutil.copy(dataset_path, dataset)
        assert run(["eval", "--dataset", str(dataset), "--backend", "lexical",
                    "--out", str(report)]) == 0
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        if out_name == "r.json":
            argv, flag, target = ["report", "--inputs", str(report)], "--inputs", report
        else:  # d.jsonl itself, or an output whose manifest is d.jsonl
            argv = ["eval", "--dataset", str(dataset), "--backend", "lexical"]
            flag, target = "--dataset", dataset
        out = str(tmp_path / out_name).removesuffix(".manifest.json")
        capsys.readouterr()
        assert run([*argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --out {out} would overwrite {target}, the {flag} file\n"
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_bins_id_mismatch_names_both_files(self, tmp_path, dataset_path, capsys):
        report = tmp_path / "r.json"
        assert run(["eval", "--dataset", str(dataset_path), "--backend", "lexical",
                    "--out", str(report)]) == 0
        lines = dataset_path.read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.loads(lines[0])
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(json.dumps({**first, "id": "zz"}) + "\n" + "".join(lines[1:]),
                           encoding="utf-8")
        capsys.readouterr()
        code = run(["bins", "--report", str(report), "--dataset", str(dataset),
                    "--out", str(tmp_path / "b.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: report {report} and dataset {dataset} cover different instance ids: "
            f"report {report} lacks ['zz'], dataset {dataset} lacks [{first['id']!r}]\n"
        )

    def test_out_in_a_missing_directory_names_the_out_file(self, tmp_path, dataset_path, capsys):
        out = tmp_path / "missing" / "s.json"
        assert run(["stats", "--dataset", str(dataset_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{out}'" in err and ".tmp" not in err


class TestEmbedderSelection:
    def service_config(self, cache_dir=None):
        return RunConfig(
            embedding=ProviderConfig(
                kind="embedding", endpoint="http://svc/v1/emb", model_id="m"
            ),
            cache_dir=cache_dir,
        )

    def test_backend_flag_wins_over_config(self):
        embedder = _embedder("lexical:64", self.service_config())
        assert isinstance(embedder, LexicalEmbedder)
        assert embedder.dim == 64

    def test_cache_dir_from_env(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env-cache"
        monkeypatch.setenv(CACHE_DIR_ENV, str(env_dir))
        embedder = _embedder(None, self.service_config(cache_dir=str(tmp_path / "cfg")))
        assert isinstance(embedder, ServiceEmbedder)
        assert embedder.cache is not None
        assert embedder.cache.root == env_dir

    def test_cache_dir_from_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        cfg_dir = tmp_path / "cfg-cache"
        embedder = _embedder(None, self.service_config(cache_dir=str(cfg_dir)))
        assert embedder.cache is not None
        assert embedder.cache.root == cfg_dir

    def test_no_cache_without_any_dir(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        embedder = _embedder(None, self.service_config())
        assert embedder.cache is None


class TestConsoleScript:
    def test_version_declared_once(self):
        """pyproject.toml takes the version from ``clsd.__version__``, so a
        checkout and an installed package report the same one."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            meta = tomllib.load(fh)
        assert "version" not in meta["project"]
        assert meta["project"]["dependencies"] == ["numpy>=1.24"]
        assert "version" in meta["project"]["dynamic"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "clsd.__version__"}

    def test_version_smoke(self, tmp_path):
        """The declared ``clsd`` command starts in a fresh process and prints its version.

        An installed console script is run as is. From a checkout with nothing
        installed (``PYTHONPATH=src``), the test makes the same call a
        pip-generated wrapper makes, on the entry point read from
        ``[project.scripts]``, against the same ``clsd`` package this suite imports.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts.get("clsd") == "clsd.cli:entrypoint"

        exe = shutil.which("clsd")
        if exe:
            cmd, env, cwd = [exe, "--version"], None, None
        else:
            module, attr = scripts["clsd"].split(":")
            wrapper = (
                f"import sys; sys.argv[0]='clsd'; "
                f"from {module} import {attr}; sys.exit({attr}())"
            )
            cmd = [sys.executable, "-c", wrapper, "--version"]
            package_root = str(Path(clsd.__file__).resolve().parents[1])
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (package_root, env.get("PYTHONPATH")) if p
            )
            cwd = tmp_path
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=60, cwd=cwd, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("clsd "), proc.stderr
