"""Acceptance gate: one test per headline guarantee, one PASS/FAIL line each.

Every test wraps its body in ``criterion(...)`` so the verdict is printed
even under captured output. Timed criteria assert their own budget.
"""

import json
import math
import os
import time
from contextlib import contextmanager
from statistics import fmean

import numpy as np
import pytest

from clsd.analysis import (
    NormalizationFactor,
    load_normalization,
    mono_shift,
    normalization_factor,
    normalized_shift,
    save_normalization,
    success_distribution,
)
from clsd.cli import run
from clsd.evaluator import cosine, evaluate, load_eval_report, save_eval_report
from clsd.providers import LexicalEmbedder
from clsd.records import (
    ClsdInstance,
    Sentence,
    load_annotations,
    load_clsd_dataset,
    load_parallel_corpus,
    save_annotations,
    save_clsd_dataset,
    save_parallel_corpus,
)
from clsd.textmetrics import (
    TokenSeq,
    intra_distractor_jaccard,
    jaccard_similarity,
    levenshtein_distance,
    single_token_diff,
)

from conftest import (
    ANNOTATIONS_PATH,
    BEAMTEN_DISTRACTORS,
    BEAMTEN_INTRA,
    CORPUS_PATH,
    FRENCH_D1,
    FRENCH_TARGET,
    FROZEN_BINS_CSV,
    FROZEN_NORM_SEED17,
    FROZEN_P_AT_1,
    FROZEN_SHIFT_CSV,
    FROZEN_SUCCESS_IDS,
    LINKSPARTEI_D1,
    LINKSPARTEI_D2,
    LINKSPARTEI_TARGET,
    NASDAQ_DISTRACTORS,
    NASDAQ_INTRA,
)


@contextmanager
def criterion(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"[ACCEPTANCE] {name}: PASS")


class VectorTable:
    """Embedder double returning preassigned vectors, for exact-tie setups."""

    backend_id = "table"
    model_id = "table"

    def __init__(self, table):
        self.table = table

    def embed(self, texts):
        return [np.asarray(self.table[t], dtype=np.float64) for t in texts]


def random_instance(rng, index):
    texts = set()
    while len(texts) < 6:
        n = int(rng.integers(6, 14))
        texts.add("".join(chr(97 + c) for c in rng.integers(0, 26, n)))
    source, target, *distractors = sorted(texts)
    return ClsdInstance(
        id=f"r{index}",
        source=Sentence(text=source, lang="de"),
        target=Sentence(text=target, lang="fr"),
        distractors=tuple(Sentence(text=d, lang="fr") for d in distractors),
        meta={},
    )


def test_intra_distractor_jaccard_exact(capsys):
    with criterion(capsys, "intra-distractor-jaccard-exact"):
        start = time.perf_counter()
        nasdaq = intra_distractor_jaccard(NASDAQ_DISTRACTORS)
        beamten = intra_distractor_jaccard(BEAMTEN_DISTRACTORS)
        elapsed = time.perf_counter() - start
        assert nasdaq == pytest.approx(NASDAQ_INTRA, abs=5e-4)
        assert beamten == pytest.approx(BEAMTEN_INTRA, abs=5e-4)
        assert elapsed < 1.0


def test_single_token_diff_positions(capsys):
    with criterion(capsys, "single-token-diff-positions"):
        start = time.perf_counter()
        target = Sentence(text=LINKSPARTEI_TARGET, lang="de")
        d1 = single_token_diff(target, Sentence(text=LINKSPARTEI_D1, lang="de"))
        d2 = single_token_diff(target, Sentence(text=LINKSPARTEI_D2, lang="de"))
        fr = single_token_diff(
            Sentence(text=FRENCH_TARGET, lang="fr"),
            Sentence(text=FRENCH_D1, lang="fr"),
        )
        elapsed = time.perf_counter() - start
        assert (d1.position, d1.target_token, d1.distractor_token) == (
            8,
            "Europawahl",
            "Bundestagswahl",
        )
        assert (d2.position, d2.target_token, d2.distractor_token) == (
            2,
            "beschließt",
            "verweigert",
        )
        assert fr is None
        assert elapsed < 1.0


def test_property_suite(capsys, tmp_path, fixture_instances, fixture_annotations):
    with criterion(capsys, "property-suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240817)

        # cosine: scale invariance and symmetry
        for _ in range(1000):
            u = rng.standard_normal(24)
            v = rng.standard_normal(24)
            scale = math.exp(rng.uniform(-3.0, 3.0))
            base = cosine(u, v)
            assert abs(cosine(scale * u, v) - base) < 1e-9
            assert abs(cosine(v, u) - base) < 1e-9

        # precision equals the mean success flag; order does not matter
        embedder = LexicalEmbedder(64)
        report = evaluate(embedder, fixture_instances, dataset_id="fixture")
        assert report.p_at_1 == pytest.approx(
            fmean(r.success for r in report.results), abs=5e-7
        )
        shuffled = list(fixture_instances)
        rng.shuffle(shuffled)
        report_shuffled = evaluate(embedder, shuffled, dataset_id="fixture")
        assert {r.instance_id: r for r in report_shuffled.results} == {
            r.instance_id: r for r in report.results
        }
        assert report_shuffled.p_at_1 == report.p_at_1

        # an exact tie with a distractor is a failure
        e = np.eye(4)
        table = {
            "s": e[0],
            "t": 0.6 * e[0] + 0.8 * e[1],
            "d1": 0.6 * e[0] + 0.8 * e[2],
            "d2": 0.1 * e[0] + e[3],
            "d3": 0.1 * e[0] - e[3],
            "d4": -e[0],
        }
        tie = ClsdInstance(
            id="tie",
            source=Sentence(text="s", lang="de"),
            target=Sentence(text="t", lang="fr"),
            distractors=tuple(
                Sentence(text=f"d{i}", lang="fr") for i in range(1, 5)
            ),
            meta={},
        )
        tie_report = evaluate(VectorTable(table), [tie], dataset_id="tie")
        assert tie_report.results[0].sim_target == tie_report.results[0].sim_distractors[0]
        assert tie_report.results[0].rank_of_target == 2
        assert not tie_report.results[0].success
        assert tie_report.p_at_1 == 0.0

        # shift algebra: expanded and simplified forms agree; the
        # monolingual variant can never be positive
        for _ in range(1000):
            sp = rng.uniform(-1.0, 1.0)
            sd = rng.uniform(-1.0, 1.0)
            value = rng.uniform(0.05, 1.0)
            expanded = ((1.0 - sp) - (1.0 - sd)) / value
            assert abs(normalized_shift(sp, sd, value) - expanded) < 1e-12
            assert normalized_shift(1.0, min(sd, 1.0), value) <= 0.0
        norm = NormalizationFactor(
            value=0.3,
            model_id="char3gram-64",
            direction=("de", "fr"),
            n_parallel=2,
            n_unrelated=2,
            seed=0,
        )
        for _ in range(50):
            a = "".join(chr(97 + c) for c in rng.integers(0, 26, 10))
            b = "".join(chr(97 + c) for c in rng.integers(0, 26, 10))
            shift = mono_shift(
                embedder,
                Sentence(text=a, lang="fr"),
                Sentence(text=b, lang="fr"),
                norm,
            )
            assert shift <= 0.0

        # success histogram: percentages of a non-empty table sum to 100;
        # an instance fails exactly when one of its distractors succeeds
        instances = [random_instance(rng, i) for i in range(1000)]
        big_report = evaluate(embedder, instances, dataset_id="random")
        for result in big_report.results:
            distractor_won = any(
                sd >= result.sim_target for sd in result.sim_distractors
            )
            assert distractor_won == (not result.success)
        for lo in (0, 500):
            chunk = instances[lo : lo + 500]
            chunk_report = evaluate(embedder, chunk, dataset_id=f"chunk{lo}")
            dist = success_distribution(chunk_report, chunk)
            assert not dist.flagged
            assert sum(dist.success_pcts()) == pytest.approx(100.0, abs=0.1)

        # edit distance against a plain DP; jaccard against set enumeration
        def dp_levenshtein(a, b):
            prev = list(range(len(b) + 1))
            for i, ca in enumerate(a, start=1):
                cur = [i]
                for j, cb in enumerate(b, start=1):
                    cur.append(
                        min(
                            prev[j] + 1,
                            cur[j - 1] + 1,
                            prev[j - 1] + (ca != cb),
                        )
                    )
                prev = cur
            return prev[-1]

        for _ in range(500):
            a = "".join(chr(97 + c) for c in rng.integers(0, 5, rng.integers(0, 13)))
            b = "".join(chr(97 + c) for c in rng.integers(0, 5, rng.integers(0, 13)))
            assert levenshtein_distance(a, b) == dp_levenshtein(a, b)

        vocab = [f"w{i}" for i in range(8)]
        for _ in range(500):
            a = tuple(vocab[i] for i in rng.integers(0, 8, rng.integers(0, 10)))
            b = tuple(vocab[i] for i in rng.integers(0, 8, rng.integers(0, 10)))
            union = []
            for token in [*a, *b]:
                if token not in union:
                    union.append(token)
            inter = [t for t in union if t in a and t in b]
            expected = 1.0 if not union else len(inter) / len(union)
            got = jaccard_similarity(
                TokenSeq(tokens=a, scheme="set"), TokenSeq(tokens=b, scheme="set")
            )
            assert got == pytest.approx(expected, abs=1e-12)

        # byte-identical save/load round-trips for every record type
        corpus = load_parallel_corpus(CORPUS_PATH)
        save_parallel_corpus(corpus, tmp_path / "c1.jsonl")
        save_parallel_corpus(
            load_parallel_corpus(tmp_path / "c1.jsonl"), tmp_path / "c2.jsonl"
        )
        assert (tmp_path / "c1.jsonl").read_bytes() == (tmp_path / "c2.jsonl").read_bytes()

        save_clsd_dataset(fixture_instances, tmp_path / "d1.jsonl")
        save_clsd_dataset(
            load_clsd_dataset(tmp_path / "d1.jsonl"), tmp_path / "d2.jsonl"
        )
        assert (tmp_path / "d1.jsonl").read_bytes() == (tmp_path / "d2.jsonl").read_bytes()

        pivot_code = run(
            [
                "pivot",
                "--dataset",
                str(tmp_path / "d1.jsonl"),
                "--config",
                str(write_identity_config(tmp_path / "acfg.json")),
                "--pivot-lang",
                "en",
                "--out",
                str(tmp_path / "p1.jsonl"),
            ]
        )
        assert pivot_code == 0
        pivoted = load_clsd_dataset(tmp_path / "p1.jsonl")
        assert {inst.pivot_lang for inst in pivoted} == {"en"}
        save_clsd_dataset(pivoted, tmp_path / "p2.jsonl")
        assert (tmp_path / "p1.jsonl").read_bytes() == (tmp_path / "p2.jsonl").read_bytes()

        save_annotations(fixture_annotations, tmp_path / "a1.jsonl")
        save_annotations(
            load_annotations(tmp_path / "a1.jsonl"), tmp_path / "a2.jsonl"
        )
        assert (tmp_path / "a1.jsonl").read_bytes() == (tmp_path / "a2.jsonl").read_bytes()

        save_eval_report(report, tmp_path / "r1.json")
        save_eval_report(load_eval_report(tmp_path / "r1.json"), tmp_path / "r2.json")
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

        frozen_norm = normalization_factor(embedder, corpus, seed=3)
        save_normalization(frozen_norm, tmp_path / "n1.json")
        save_normalization(load_normalization(tmp_path / "n1.json"), tmp_path / "n2.json")
        assert (tmp_path / "n1.json").read_bytes() == (tmp_path / "n2.json").read_bytes()

        assert time.perf_counter() - start < 60.0


def write_identity_config(path, *, replay=None, seed=None):
    cfg = {"translation": {"endpoint": "identity:", "model_id": "identity-mt"}}
    if replay is not None:
        cfg["chat"] = {"endpoint": f"replay:{replay}", "model_id": "scripted-chat"}
    if seed is not None:
        cfg["analysis"] = {"seed": seed}
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_offline_pipeline_reproduces_frozen_values(capsys, tmp_path, replay_path):
    with criterion(capsys, "offline-pipeline"):
        start = time.perf_counter()
        config = write_identity_config(tmp_path / "cfg.json", replay=replay_path, seed=17)
        dataset = tmp_path / "generated.jsonl"
        assert (
            run(
                [
                    "generate",
                    "--corpus",
                    str(CORPUS_PATH),
                    "--config",
                    str(config),
                    "--out",
                    str(dataset),
                ]
            )
            == 0
        )
        assert len(load_clsd_dataset(dataset)) == 20
        assert run(["validate", "--dataset", str(dataset)]) == 0

        report_path = tmp_path / "report.json"
        assert (
            run(
                [
                    "eval",
                    "--dataset",
                    str(dataset),
                    "--backend",
                    "lexical",
                    "--out",
                    str(report_path),
                ]
            )
            == 0
        )
        report = load_eval_report(report_path)
        assert report.p_at_1 == FROZEN_P_AT_1
        assert report.success_ids == FROZEN_SUCCESS_IDS

        norm_path = tmp_path / "norm.json"
        assert (
            run(
                [
                    "norm",
                    "--corpus",
                    str(CORPUS_PATH),
                    "--backend",
                    "lexical",
                    "--config",
                    str(config),
                    "--out",
                    str(norm_path),
                ]
            )
            == 0
        )
        norm_payload = json.loads(norm_path.read_text(encoding="utf-8"))
        assert norm_payload["seed"] == 17
        assert norm_payload["value"] == pytest.approx(FROZEN_NORM_SEED17, abs=1e-12)

        pairs = {}
        for tag in ("one", "two"):
            shift_out = tmp_path / f"shift-{tag}.csv"
            bins_out = tmp_path / f"bins-{tag}.csv"
            table_out = tmp_path / f"table-{tag}.md"
            assert (
                run(
                    [
                        "shift",
                        "--dataset",
                        str(dataset),
                        "--annotations",
                        str(ANNOTATIONS_PATH),
                        "--norm",
                        str(norm_path),
                        "--backend",
                        "lexical",
                        "--out",
                        str(shift_out),
                    ]
                )
                == 0
            )
            assert (
                run(
                    [
                        "bins",
                        "--report",
                        str(report_path),
                        "--dataset",
                        str(dataset),
                        "--out",
                        str(bins_out),
                    ]
                )
                == 0
            )
            assert (
                run(
                    [
                        "report",
                        "--inputs",
                        str(report_path),
                        "--format",
                        "markdown",
                        "--out",
                        str(table_out),
                    ]
                )
                == 0
            )
            pairs[tag] = (
                shift_out.read_bytes(),
                bins_out.read_bytes(),
                table_out.read_bytes(),
            )
        assert pairs["one"] == pairs["two"]
        assert pairs["one"][0].decode("utf-8") == FROZEN_SHIFT_CSV
        assert pairs["one"][1].decode("utf-8") == FROZEN_BINS_CSV
        assert time.perf_counter() - start < 30.0


def test_pivot_identity_matches_direct(capsys, tmp_path, fixture_instances):
    with criterion(capsys, "pivot-identity"):
        dataset = tmp_path / "fixture.jsonl"
        save_clsd_dataset(fixture_instances, dataset)
        config = write_identity_config(tmp_path / "cfg.json")
        pivot_out = tmp_path / "pivot.jsonl"
        assert (
            run(
                [
                    "pivot",
                    "--dataset",
                    str(dataset),
                    "--config",
                    str(config),
                    "--pivot-lang",
                    "en",
                    "--out",
                    str(pivot_out),
                ]
            )
            == 0
        )
        direct_path = tmp_path / "direct.json"
        pivot_path = tmp_path / "pivoted.json"
        for source, out in ((dataset, direct_path), (pivot_out, pivot_path)):
            assert (
                run(
                    [
                        "eval",
                        "--dataset",
                        str(source),
                        "--backend",
                        "lexical",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        direct = load_eval_report(direct_path)
        pivoted = load_eval_report(pivot_path)
        assert pivoted.mode == "pivot"
        assert pivoted.p_at_1 == direct.p_at_1
        by_id = {r.instance_id: r for r in direct.results}
        for result in pivoted.results:
            twin = by_id[result.instance_id]
            assert result.sim_target == twin.sim_target
            assert result.sim_distractors == twin.sim_distractors
            assert result.success == twin.success

        compare_out = tmp_path / "disagreement.json"
        assert (
            run(
                [
                    "compare",
                    "--report-a",
                    str(direct_path),
                    "--report-b",
                    str(pivot_path),
                    "--out",
                    str(compare_out),
                ]
            )
            == 0
        )
        payload = json.loads(compare_out.read_text(encoding="utf-8"))
        assert payload == {"success_only_a": [], "success_only_b": []}


def test_live_benchmark_optional(capsys):
    if os.environ.get("CLSD_INTEGRATION") != "1":
        pytest.skip(
            "live benchmark needs real datasets and embedding endpoints; "
            "set CLSD_INTEGRATION=1, CLSD_INTEGRATION_CONFIG and "
            "CLSD_INTEGRATION_DATA to run it"
        )
    with criterion(capsys, "live-benchmark"):
        config = os.environ["CLSD_INTEGRATION_CONFIG"]
        data_dir = os.environ["CLSD_INTEGRATION_DATA"]
        datasets = sorted(
            os.path.join(data_dir, name)
            for name in os.listdir(data_dir)
            if name.endswith(".jsonl")
        )
        assert datasets, f"no .jsonl datasets under {data_dir}"
        precisions = []
        for path in datasets:
            out = path + ".report.json"
            assert (
                run(["eval", "--dataset", path, "--config", config, "--out", out]) == 0
            )
            precisions.append(load_eval_report(out).p_at_1)
        average = 100.0 * fmean(precisions)
        assert average == pytest.approx(94.43, abs=1.0)
