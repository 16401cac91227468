import json
import math

import numpy as np
import pytest

from clsd.errors import DataError
from clsd.evaluator import (
    EvalReport,
    InstanceResult,
    MODE_DIRECT,
    MODE_PIVOT,
    cosine,
    disagreement,
    evaluate,
    load_eval_report,
    pivot_dataset,
    save_eval_report,
)
from clsd.providers import (
    EmbeddingVector,
    LexicalEmbedder,
    ProviderConfig,
    make_translator,
)
from clsd.records import ClsdInstance, Sentence

identity_translator = make_translator(
    ProviderConfig(kind="translation", endpoint="identity:", model_id="identity-mt")
)


class DictEmbedder:
    """Test double: fixed text -> vector table, records every batch."""

    def __init__(self, mapping, backend_id="fake", model_id="fake-1"):
        self.mapping = {k: np.asarray(v, dtype=np.float64) for k, v in mapping.items()}
        self.backend_id = backend_id
        self.model_id = model_id
        self.calls = []

    def embed(self, texts):
        self.calls.append(list(texts))
        return [
            EmbeddingVector(
                values=self.mapping[t],
                backend_id=self.backend_id,
                model_id=self.model_id,
            )
            for t in texts
        ]


def crafted_instance(id, sim_target, sim_distractors, dim=8):
    """Instance plus vector table realizing the requested source similarities."""
    texts = {
        "source": f"{id} src",
        "target": f"{id} tgt",
        "distractors": [f"{id} d{k}" for k in range(4)],
    }
    mapping = {}
    e = np.eye(dim)
    mapping[texts["source"]] = e[0]

    def vec(c, axis):
        return c * e[0] + math.sqrt(1.0 - c * c) * e[axis]

    mapping[texts["target"]] = vec(sim_target, 1)
    for k, c in enumerate(sim_distractors):
        mapping[texts["distractors"][k]] = vec(c, 2 + k)
    instance = ClsdInstance(
        id=id,
        source=Sentence(text=texts["source"], lang="de"),
        target=Sentence(text=texts["target"], lang="fr"),
        distractors=tuple(Sentence(text=t, lang="fr") for t in texts["distractors"]),
        meta={},
    )
    return instance, mapping


def crafted_pivot(id):
    """Pivot instance over the texts of ``crafted_instance(id, ...)``."""
    return ClsdInstance(
        id=id,
        source=Sentence(text=f"{id} src", lang="en"),
        target=Sentence(text=f"{id} tgt", lang="en"),
        distractors=tuple(Sentence(text=f"{id} d{k}", lang="en") for k in range(4)),
        pivot_lang="en",
    )


class TestCosine:
    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])) == 0.0

    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)
        assert cosine(v, v) <= 1.0  # clamp holds even with overshoot

    def test_hand_arithmetic(self):
        got = cosine(np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(2.0 / (2.0 * math.sqrt(2.0)), abs=1e-9)
        assert round(got, 8) == 0.70710678

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u, v = rng.normal(size=5), rng.normal(size=5)
            alpha = float(rng.uniform(0.1, 10.0))
            assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
            assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimension mismatch"):
            cosine(np.ones(3), np.ones(4))

    def test_zero_vector(self):
        with pytest.raises(DataError, match="zero vector"):
            cosine(np.zeros(3), np.ones(3))

    def test_accepts_embedding_vectors(self):
        a = EmbeddingVector(values=np.array([1.0, 0.0]), backend_id="b", model_id="m")
        b = EmbeddingVector(values=np.array([1.0, 0.0]), backend_id="b", model_id="m")
        assert cosine(a, b) == pytest.approx(1.0, abs=1e-12)


class TestScoreInstance:
    """Per-instance scoring through ``evaluate`` on a one-instance dataset."""

    def score(self, sim_target, sim_distractors):
        instance, mapping = crafted_instance("c1", sim_target, sim_distractors)
        (result,) = evaluate(DictEmbedder(mapping), [instance]).results
        assert result.sim_target == pytest.approx(sim_target, abs=1e-9)
        for got, wanted in zip(result.sim_distractors, sim_distractors):
            assert got == pytest.approx(wanted, abs=1e-9)
        return result

    def test_clear_winner(self):
        result = self.score(0.9, [0.8, 0.7, 0.6, 0.5])
        assert (result.rank_of_target, result.success) == (1, True)

    def test_tie_is_failure(self):
        result = self.score(0.9, [0.9, 0.1, 0.1, 0.1])
        assert (result.rank_of_target, result.success) == (2, False)

    def test_last_place(self):
        result = self.score(0.2, [0.9, 0.8, 0.7, 0.6])
        assert (result.rank_of_target, result.success) == (5, False)

    def test_pivot_instance_keeps_original_id(self):
        _, mapping = crafted_instance("orig-7", 0.9, [0.1, 0.1, 0.1, 0.1])
        (result,) = evaluate(DictEmbedder(mapping), [crafted_pivot("orig-7")]).results
        assert result.instance_id == "orig-7"
        assert (result.rank_of_target, result.success) == (1, True)


class TestInstanceResult:
    def test_rank_bounds(self):
        with pytest.raises(DataError):
            InstanceResult(
                instance_id="x",
                sim_target=0.5,
                sim_distractors=(0.1, 0.1, 0.1, 0.1),
                rank_of_target=6,
                success=False,
            )

    def test_distractor_count(self):
        with pytest.raises(DataError):
            InstanceResult(
                instance_id="x",
                sim_target=0.5,
                sim_distractors=(0.1, 0.1, 0.1),
                rank_of_target=1,
                success=True,
            )


class TestEvaluate:
    def build(self, success_flags):
        instances, mapping = [], {}
        for i, flag in enumerate(success_flags):
            sims = [0.5, 0.4, 0.3, 0.2] if flag else [0.9, 0.4, 0.3, 0.2]
            inst, m = crafted_instance(f"i{i}", 0.7, sims)
            instances.append(inst)
            mapping.update(m)
        return instances, DictEmbedder(mapping)

    def test_mean_success(self):
        instances, embedder = self.build([True, True, False, True])
        report = evaluate(embedder, instances, dataset_id="toy")
        assert report.p_at_1 == 0.75
        assert report.n == 4
        assert report.mode == MODE_DIRECT
        assert (report.dataset_id, report.backend_id, report.model_id) == (
            "toy",
            "fake",
            "fake-1",
        )
        assert report.success_ids == {"i0", "i1", "i3"}

    def test_single_batch_over_unique_texts(self):
        instances, embedder = self.build([True, False])
        report = evaluate(embedder, instances)
        assert report.n == 2
        assert len(embedder.calls) == 1
        batch = embedder.calls[0]
        assert len(batch) == len(set(batch)) == 12

    def test_order_invariance(self):
        instances, embedder = self.build([True, False, True, False, True])
        forward = evaluate(embedder, instances)
        backward = evaluate(DictEmbedder(embedder.mapping), list(reversed(instances)))
        assert forward.p_at_1 == backward.p_at_1
        by_id = {r.instance_id: r for r in backward.results}
        for r in forward.results:
            assert by_id[r.instance_id] == r

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            evaluate(DictEmbedder({}), [])

    def test_mixed_dataset_rejected(self):
        inst, mapping = crafted_instance("i0", 0.9, [0.1, 0.2, 0.3, 0.4])
        pivot = crafted_pivot("i0")
        for mixed in ([inst, pivot], [pivot, inst]):
            with pytest.raises(DataError, match="mixes"):
                evaluate(DictEmbedder(mapping), mixed)

    def test_pivot_dataset_reports_pivot_mode(self):
        _, mapping = crafted_instance("i0", 0.9, [0.1, 0.2, 0.3, 0.4])
        report = evaluate(DictEmbedder(mapping), [crafted_pivot("i0")])
        assert report.mode == MODE_PIVOT
        assert report.results[0].instance_id == "i0"


class TestReportIO:
    def make_report(self):
        instances, embedder = TestEvaluate().build([True, False, True])
        return evaluate(embedder, instances, dataset_id="io-ds")

    def test_round_trip_with_six_decimal_rounding(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        save_eval_report(report, path)
        loaded = load_eval_report(path)
        assert loaded.dataset_id == report.dataset_id
        assert loaded.mode == report.mode
        assert loaded.n == report.n
        assert loaded.p_at_1 == round(report.p_at_1, 6)
        for got, orig in zip(loaded.results, report.results):
            assert got.instance_id == orig.instance_id
            assert got.rank_of_target == orig.rank_of_target
            assert got.success == orig.success
            assert got.sim_target == round(orig.sim_target, 6)

    def test_file_shape(self, tmp_path):
        path = tmp_path / "report.json"
        save_eval_report(self.make_report(), path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        payload = json.loads(text)
        assert list(payload) == [
            "dataset_id",
            "backend_id",
            "model_id",
            "mode",
            "n",
            "p_at_1",
            "results",
        ]
        entry = payload["results"][0]
        assert list(entry) == [
            "id",
            "sim_target",
            "sim_distractors",
            "rank_of_target",
            "success",
        ]
        assert len(entry["sim_distractors"]) == 4

    def test_two_saves_byte_identical(self, tmp_path):
        report = self.make_report()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_eval_report(report, a)
        save_eval_report(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_p_at_1_consistency_enforced(self):
        report = self.make_report()
        with pytest.raises(DataError, match="p_at_1"):
            EvalReport(
                dataset_id=report.dataset_id,
                backend_id=report.backend_id,
                model_id=report.model_id,
                mode=report.mode,
                n=report.n,
                p_at_1=0.1,
                results=report.results,
            )


class TestPivotDataset:
    def make_direct(self, n=3):
        out = []
        for i in range(n):
            inst, _ = crafted_instance(f"p{i}", 0.9, [0.1, 0.2, 0.3, 0.4])
            out.append(inst)
        return out

    def test_identity_translator_copies_texts(self):
        dataset = self.make_direct()
        pivoted, skipped = pivot_dataset(dataset, identity_translator, "en")
        assert skipped == []
        assert len(pivoted) == len(dataset)
        for orig, piv in zip(dataset, pivoted):
            assert piv.id == orig.id
            assert piv.meta == {}
            assert piv.pivot_lang == "en"
            assert piv.source.text == orig.source.text
            assert piv.target.text == orig.target.text
            assert [d.text for d in piv.distractors] == [
                d.text for d in orig.distractors
            ]
            assert all(
                s.lang == "en" for s in (piv.source, piv.target, *piv.distractors)
            )

    def test_wrong_count_skips_only_that_instance(self):
        dataset = self.make_direct()
        bad_id = dataset[1].id

        def translate(texts, src, tgt):
            # drop one candidate for the middle instance only
            if any(bad_id in t for t in texts) and len(texts) == 5:
                return list(texts[:-1])
            return list(texts)

        pivoted, skipped = pivot_dataset(dataset, translate, "en")
        assert [p.id for p in pivoted] == [dataset[0].id, dataset[2].id]
        assert len(skipped) == 1
        assert skipped[0][0] == bad_id
        assert "count mismatch" in skipped[0][1]

    def test_pivot_language_must_be_third(self):
        dataset = self.make_direct()
        for lang in ("de", "fr"):
            with pytest.raises(DataError, match="must differ"):
                pivot_dataset(dataset, identity_translator, lang)

    def test_empty_dataset(self):
        assert pivot_dataset([], identity_translator, "en") == ([], [])

    def test_identity_pivot_scores_like_direct(self, fixture_instances):
        subset = fixture_instances[:5]
        pivoted, skipped = pivot_dataset(subset, identity_translator, "en")
        assert skipped == []
        embedder = LexicalEmbedder(dim=64)
        direct = evaluate(embedder, subset)
        pivot = evaluate(embedder, pivoted)
        assert pivot.p_at_1 == direct.p_at_1
        for a, b in zip(direct.results, pivot.results):
            assert a.instance_id == b.instance_id
            assert a.sim_target == b.sim_target
            assert a.sim_distractors == b.sim_distractors
            assert a.rank_of_target == b.rank_of_target


class TestDisagreement:
    def report_with(self, successes, ids=("a", "b", "c")):
        results = tuple(
            InstanceResult(
                instance_id=i,
                sim_target=0.9 if i in successes else 0.1,
                sim_distractors=(0.5, 0.4, 0.3, 0.2),
                rank_of_target=1 if i in successes else 5,
                success=i in successes,
            )
            for i in ids
        )
        return EvalReport(
            dataset_id="d",
            backend_id="b",
            model_id="m",
            mode=MODE_DIRECT,
            n=len(results),
            p_at_1=len(successes) / len(results),
            results=results,
        )

    def test_one_sided(self):
        a = self.report_with({"a", "b", "c"})
        b = self.report_with({"a"})
        assert disagreement(a, b) == (["b", "c"], [])

    def test_identical_reports(self):
        a = self.report_with({"a", "c"})
        assert disagreement(a, a) == ([], [])

    def test_both_sides_sorted(self):
        a = self.report_with({"c", "a"})
        b = self.report_with({"b", "a"})
        assert disagreement(a, b) == (["c"], ["b"])

    def test_disjoint_ids_rejected(self):
        a = self.report_with({"a"}, ids=("a", "b", "c"))
        b = self.report_with({"x"}, ids=("x", "y", "z"))
        with pytest.raises(DataError, match="reports cover different instances"):
            disagreement(a, b)
