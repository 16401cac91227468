import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clsd.analysis import (
    ANY_GROUP,
    GroupStats,
    NormalizationFactor,
    ShiftRecord,
    ShiftTable,
    SuccessDistributionTable,
    _build_table,
    check_norm,
    cross_shift,
    derangement,
    load_normalization,
    mono_cross_correlation,
    mono_shift,
    normalization_factor,
    normalized_shift,
    save_normalization,
    shift_analysis,
    shift_table_to_csv,
    success_distribution,
    success_distribution_to_csv,
)
from clsd.errors import DataError
from clsd.evaluator import (
    EvalReport,
    InstanceResult,
    cosine,
    evaluate,
    load_eval_report,
    save_eval_report,
)
from clsd.providers import LexicalEmbedder
from clsd.records import ClsdInstance, DiffAnnotation, ParallelPair, Sentence
from clsd.textmetrics import single_token_diff

from conftest import (
    FROZEN_BINS_CSV,
    FROZEN_CROSS_SHIFT_SWAP,
    FROZEN_MONO_SHIFT_SWAP,
    FROZEN_NORM_SEED17,
    FROZEN_SHIFT_CSV,
    LINKSPARTEI_D1,
    LINKSPARTEI_TARGET,
)


class DictEmbedder:
    def __init__(self, mapping, model_id="dict-1"):
        self.mapping = {k: np.asarray(v, dtype=np.float64) for k, v in mapping.items()}
        self.backend_id = "dict"
        self.model_id = model_id

    def embed(self, texts):
        return np.stack([self.mapping[t] for t in texts])


def unit_norm(value=1.0, direction=("de", "fr"), seed=0):
    return NormalizationFactor(
        value=value,
        model_id="dict-1",
        direction=direction,
        n_parallel=2,
        n_unrelated=2,
        seed=seed,
    )


class TestNormalizationFactorType:
    @pytest.mark.parametrize("value", [0.0, -0.2])
    def test_non_positive_value_rejected(self, value):
        with pytest.raises(DataError, match="degenerate"):
            unit_norm(value=value)

    def test_direction_must_be_a_pair(self):
        with pytest.raises(DataError):
            unit_norm(direction=("de", "fr", "en"))


class TestDerangement:
    @pytest.mark.parametrize("n", [2, 3, 5, 20, 41])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_no_fixed_points_and_permutation(self, n, seed):
        perm = derangement(n, seed)
        assert sorted(perm) == list(range(n))
        assert all(perm[i] != i for i in range(n))

    def test_deterministic(self):
        assert np.array_equal(derangement(12, 5), derangement(12, 5))

    def test_seed_changes_result(self):
        assert not np.array_equal(derangement(20, 1), derangement(20, 2))

    def test_n_below_two_rejected(self):
        with pytest.raises(DataError):
            derangement(1, 0)


def orthogonal_corpus(n=4):
    """Pairs whose source and target share a basis vector, pairs orthogonal."""
    pairs, mapping = [], {}
    e = np.eye(n)
    for i in range(n):
        src, tgt = f"quelle {i}", f"cible {i}"
        mapping[src] = e[i]
        mapping[tgt] = e[i]
        pairs.append(
            ParallelPair(
                id=f"n{i}",
                source=Sentence(text=src, lang="de"),
                target=Sentence(text=tgt, lang="fr"),
            )
        )
    return pairs, mapping


class TestNormalizationFactor:
    def test_orthogonal_pairs_give_unit_gap(self):
        pairs, mapping = orthogonal_corpus()
        norm = normalization_factor(DictEmbedder(mapping), pairs, seed=3)
        assert norm.value == pytest.approx(1.0, abs=1e-12)
        assert norm.direction == ("de", "fr")
        assert norm.n_parallel == norm.n_unrelated == 4
        assert norm.seed == 3

    def test_constant_embedder_degenerate(self):
        pairs, mapping = orthogonal_corpus()
        constant = {k: np.ones(4) for k in mapping}
        with pytest.raises(DataError, match="degenerate normalization"):
            normalization_factor(DictEmbedder(constant), pairs, seed=3)

    def test_mixed_directions_rejected(self):
        pairs, mapping = orthogonal_corpus()
        flipped = ParallelPair(
            id="flip", source=pairs[0].target, target=pairs[0].source
        )
        with pytest.raises(DataError, match="mix directions"):
            normalization_factor(DictEmbedder(mapping), [*pairs, flipped], seed=3)

    def test_fewer_than_two_pairs_rejected(self):
        pairs, mapping = orthogonal_corpus()
        with pytest.raises(DataError, match="at least 2"):
            normalization_factor(DictEmbedder(mapping), pairs[:1], seed=3)

    def test_frozen_lexical_value(self, fixture_corpus):
        norm = normalization_factor(LexicalEmbedder(dim=512), fixture_corpus, seed=17)
        assert norm.value == pytest.approx(FROZEN_NORM_SEED17, abs=1e-12)
        assert norm.model_id == "char3gram-512"
        assert norm.direction == ("de", "fr")

    def test_save_load_round_trip(self, tmp_path):
        norm = unit_norm(value=0.42)
        path = tmp_path / "norm.json"
        save_normalization(norm, path)
        assert load_normalization(path) == norm
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert list(payload) == [
            "value",
            "model_id",
            "direction",
            "n_parallel",
            "n_unrelated",
            "seed",
        ]

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "norm.json"
        path.write_text('{"value": 0.4}', encoding="utf-8")
        with pytest.raises(DataError, match="malformed normalization"):
            load_normalization(path)


class TestShiftPrimitives:
    def test_direct_substitution(self):
        assert normalized_shift(0.9, 0.7, 0.4) == pytest.approx(-0.5)

    def test_equal_similarities(self):
        assert normalized_shift(0.8, 0.8, 0.3) == 0.0

    def test_non_positive_norm_rejected(self):
        with pytest.raises(DataError):
            normalized_shift(0.9, 0.7, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        sim_pair=st.floats(-1.0, 1.0),
        sim_distractor=st.floats(-1.0, 1.0),
        value=st.floats(0.01, 2.0),
    )
    def test_matches_term_by_term_form(self, sim_pair, sim_distractor, value):
        # Oracle route: distance-increase form without the cancellation.
        oracle = ((1.0 - sim_pair) - (1.0 - sim_distractor)) / value
        assert abs(normalized_shift(sim_pair, sim_distractor, value) - oracle) < 1e-12

    def test_cross_shift_equal_similarity_is_zero(self):
        mapping = {
            "s": [1.0, 0.0, 0.0],
            "t": [0.5, math.sqrt(0.75), 0.0],
            "d": [0.5, 0.0, math.sqrt(0.75)],
        }
        got = cross_shift(
            DictEmbedder(mapping),
            Sentence(text="s", lang="de"),
            Sentence(text="t", lang="fr"),
            Sentence(text="d", lang="fr"),
            unit_norm(value=0.4),
        )
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_cross_shift_substitution(self):
        mapping = {
            "s": [1.0, 0.0, 0.0, 0.0],
            "t": [0.9, math.sqrt(1 - 0.81), 0.0, 0.0],
            "d": [0.7, 0.0, math.sqrt(1 - 0.49), 0.0],
        }
        got = cross_shift(
            DictEmbedder(mapping),
            Sentence(text="s", lang="de"),
            Sentence(text="t", lang="fr"),
            Sentence(text="d", lang="fr"),
            unit_norm(value=0.4),
        )
        assert got == pytest.approx(-0.5, abs=1e-9)

    def test_frozen_lexical_token_swap(self, fixture_corpus):
        embedder = LexicalEmbedder(dim=512)
        norm = normalization_factor(embedder, fixture_corpus, seed=17)
        source = Sentence(
            text="Le parti de gauche adopte à Bonn son programme pour les élections européennes.",
            lang="fr",
        )
        target = Sentence(text=LINKSPARTEI_TARGET, lang="de")
        distractor = Sentence(text=LINKSPARTEI_D1, lang="de")
        cross = cross_shift(embedder, source, target, distractor, norm)
        assert cross < 0
        assert cross == pytest.approx(FROZEN_CROSS_SHIFT_SWAP, abs=1e-12)
        mono = mono_shift(embedder, target, distractor, norm)
        assert mono == pytest.approx(FROZEN_MONO_SHIFT_SWAP, abs=1e-12)

    def test_mono_shift_of_target_itself_is_zero(self):
        mapping = {"t": [1.0, 0.0]}
        got = mono_shift(
            DictEmbedder(mapping),
            Sentence(text="t", lang="fr"),
            Sentence(text="t", lang="fr"),
            unit_norm(value=0.5),
        )
        assert got == 0.0

    def test_mono_shift_substitution(self):
        mapping = {"t": [1.0, 0.0], "d": [0.8, 0.6]}
        got = mono_shift(
            DictEmbedder(mapping),
            Sentence(text="t", lang="fr"),
            Sentence(text="d", lang="fr"),
            unit_norm(value=0.4),
        )
        assert got == pytest.approx(-0.5, abs=1e-12)

    def test_mono_shift_never_positive(self):
        embedder = LexicalEmbedder(dim=64)
        norm = unit_norm(value=0.2)
        target = Sentence(text="la fin de la guerre", lang="fr")
        for text in ("la fin de la paix", "tout autre chose", "la fin de la guerre!"):
            got = mono_shift(embedder, target, Sentence(text=text, lang="fr"), norm)
            assert got <= 0.0


class TestShiftRecordAndTable:
    def make_record(self, pos="NOUN", cross=-0.4, mono=-0.2, id="i1", index=0):
        return ShiftRecord(
            instance_id=id,
            distractor_index=index,
            pos=pos,
            cross_shift=cross,
            mono_shift=mono,
        )

    def test_empty_pos_rejected(self):
        with pytest.raises(DataError):
            self.make_record(pos="")

    def test_non_finite_shift_rejected(self):
        with pytest.raises(DataError):
            self.make_record(cross=float("nan"))

    def test_group_lookup_and_records_of(self):
        records = [
            self.make_record(pos="NOUN", cross=-0.4),
            self.make_record(pos="VERB", cross=-0.2, id="i2"),
        ]
        table = _build_table(records)
        assert table.group(ANY_GROUP).n == 2
        assert table.group("NOUN").n == 1
        assert len(table.records_of(ANY_GROUP)) == 2
        assert [r.pos for r in table.records_of("VERB")] == ["VERB"]
        with pytest.raises(DataError, match="no group"):
            table.group("ADV")

    def test_any_first_then_sorted_pos(self):
        records = [
            self.make_record(pos="VERB"),
            self.make_record(pos="ADJ", id="i2"),
            self.make_record(pos="NOUN", id="i3"),
        ]
        table = _build_table(records)
        assert [g.group for g in table.groups] == ["ANY", "ADJ", "NOUN", "VERB"]

    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            _build_table([])


class TestShiftAnalysis:
    def synthetic_setup(self):
        # one instance, distractors 0 and 1 annotated as NOUN swaps with
        # source similarities crafted for cross shifts -0.4 and -0.6
        e = np.eye(8)

        def unit(c, axis):
            return c * e[0] + math.sqrt(1.0 - c * c) * e[axis]

        mapping = {
            "die quelle": e[0],
            "wort eins hier": unit(0.9, 1),
            "wort zwei hier": unit(0.5, 2),
            "wort drei hier": unit(0.3, 3),
            "ganz anders lang jetzt": unit(0.1, 4),
            "noch mehr anders jetzt": unit(0.1, 5),
        }
        instance = ClsdInstance(
            id="s1",
            source=Sentence(text="die quelle", lang="de"),
            target=Sentence(text="wort eins hier", lang="fr"),
            distractors=(
                Sentence(text="wort zwei hier", lang="fr"),
                Sentence(text="wort drei hier", lang="fr"),
                Sentence(text="ganz anders lang jetzt", lang="fr"),
                Sentence(text="noch mehr anders jetzt", lang="fr"),
            ),
            meta={},
        )
        annotations = [
            DiffAnnotation(
                instance_id="s1",
                distractor_index=0,
                position=1,
                target_token="eins",
                distractor_token="zwei",
                pos="NOUN",
            ),
            DiffAnnotation(
                instance_id="s1",
                distractor_index=1,
                position=1,
                target_token="eins",
                distractor_token="drei",
                pos="NOUN",
            ),
        ]
        return DictEmbedder(mapping), [instance], annotations

    def test_two_noun_swaps(self):
        embedder, dataset, annotations = self.synthetic_setup()
        table = shift_analysis(embedder, dataset, annotations, unit_norm(value=1.0))
        noun = table.group("NOUN")
        pooled = table.group(ANY_GROUP)
        assert (noun.n, pooled.n) == (2, 2)
        assert noun.mean_cross_shift == pytest.approx(-0.5, abs=1e-9)
        assert pooled.mean_cross_shift == pytest.approx(-0.5, abs=1e-9)

    def test_unknown_instance_rejected(self):
        embedder, dataset, annotations = self.synthetic_setup()
        stray = DiffAnnotation(
            instance_id="ghost",
            distractor_index=0,
            position=1,
            target_token="eins",
            distractor_token="zwei",
            pos="NOUN",
        )
        with pytest.raises(DataError, match="annotation ghost/0: unknown instance"):
            shift_analysis(embedder, dataset, [*annotations, stray], unit_norm())

    def test_non_single_diff_annotation_rejected(self):
        embedder, dataset, annotations = self.synthetic_setup()
        multi = DiffAnnotation(
            instance_id="s1",
            distractor_index=2,  # differs in more than one token
            position=0,
            target_token="wort",
            distractor_token="ganz",
            pos="NOUN",
        )
        with pytest.raises(DataError, match=r"s1/2.*exactly one token"):
            shift_analysis(embedder, dataset, [multi], unit_norm())

    def test_position_disagreement_rejected(self):
        embedder, dataset, annotations = self.synthetic_setup()
        wrong = DiffAnnotation(
            instance_id="s1",
            distractor_index=0,
            position=2,
            target_token="eins",
            distractor_token="zwei",
            pos="NOUN",
        )
        with pytest.raises(DataError, match="disagrees with tokenizer"):
            shift_analysis(embedder, dataset, [wrong], unit_norm())

    def test_token_disagreement_rejected(self):
        embedder, dataset, annotations = self.synthetic_setup()
        wrong = DiffAnnotation(
            instance_id="s1",
            distractor_index=0,
            position=1,
            target_token="eins",
            distractor_token="zwo",
            pos="NOUN",
        )
        with pytest.raises(DataError, match="disagrees with tokenizer"):
            shift_analysis(embedder, dataset, [wrong], unit_norm())

    @pytest.mark.parametrize(
        "norm,what",
        [(NormalizationFactor(1.0, "other-1", ("de", "fr"), 2, 2, 0), "model 'other-1'"),
         (unit_norm(direction=("fr", "de")), "direction fr->de, not de->fr")],
    )
    def test_norm_of_another_model_or_direction_rejected(self, norm, what):
        embedder, dataset, _ = self.synthetic_setup()
        check_norm(unit_norm(), embedder, dataset)
        with pytest.raises(DataError, match=f"^norm is for {what}"):
            check_norm(norm, embedder, dataset)

    def test_empty_annotations_rejected(self):
        embedder, dataset, _ = self.synthetic_setup()
        with pytest.raises(DataError):
            shift_analysis(embedder, dataset, [], unit_norm())

    def test_frozen_fixture_table(self, fixture_corpus, fixture_instances, fixture_annotations):
        embedder = LexicalEmbedder(dim=512)
        norm = normalization_factor(embedder, fixture_corpus, seed=17)
        table = shift_analysis(embedder, fixture_instances, fixture_annotations, norm)
        assert shift_table_to_csv(table) == FROZEN_SHIFT_CSV

    def test_any_group_pools_pos_groups(
        self, fixture_corpus, fixture_instances, fixture_annotations
    ):
        embedder = LexicalEmbedder(dim=512)
        norm = normalization_factor(embedder, fixture_corpus, seed=17)
        table = shift_analysis(embedder, fixture_instances, fixture_annotations, norm)
        pos_groups = [g for g in table.groups if g.group != ANY_GROUP]
        pooled = table.group(ANY_GROUP)
        assert pooled.n == sum(g.n for g in pos_groups)
        weighted_cross = sum(g.n * g.mean_cross_shift for g in pos_groups) / pooled.n
        weighted_mono = sum(g.n * g.mean_mono_shift for g in pos_groups) / pooled.n
        assert pooled.mean_cross_shift == pytest.approx(weighted_cross, abs=1e-12)
        assert pooled.mean_mono_shift == pytest.approx(weighted_mono, abs=1e-12)


class TestMonoCrossCorrelation:
    def table_from_points(self, points, pos="NOUN"):
        records = [
            ShiftRecord(
                instance_id=f"i{k}",
                distractor_index=0,
                pos=pos,
                cross_shift=cross,
                mono_shift=mono,
            )
            for k, (mono, cross) in enumerate(points)
        ]
        return _build_table(records)

    def test_identical_coordinates(self):
        table = self.table_from_points([(-0.1, -0.1), (-0.5, -0.5), (-0.9, -0.9)])
        assert mono_cross_correlation(table) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_coordinates(self):
        table = self.table_from_points([(-0.1, 0.1), (-0.5, 0.5), (-0.9, 0.9)])
        assert mono_cross_correlation(table) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_covariance_oracle(self):
        table = self.table_from_points([(1, 2), (2, 1), (3, 3)])
        assert mono_cross_correlation(table) == pytest.approx(0.5, abs=1e-12)
        assert mono_cross_correlation(table, "NOUN") == pytest.approx(0.5, abs=1e-12)

    def test_single_record_rejected(self):
        table = self.table_from_points([(1, 2)])
        with pytest.raises(DataError, match="at least 2"):
            mono_cross_correlation(table)

    def test_zero_variance_rejected(self):
        table = self.table_from_points([(1, 2), (1, 3)])
        with pytest.raises(DataError, match="zero variance"):
            mono_cross_correlation(table)

    def test_group_stats_carry_none_when_undefined(self):
        table = self.table_from_points([(1, 2)])
        assert table.group("NOUN").corr_mono_cross is None


def twenty_chars(*edits):
    """A 20-char string plus a copy with the given positions replaced."""
    base = "abcdefghijklmnopqrst"
    out = list(base)
    for pos in edits:
        out[pos] = "X"
    return "".join(out)


class TestSuccessDistribution:
    def all_successful_instance(self):
        target = "abcdefghijklmnopqrst"
        distractors = (
            twenty_chars(0),           # distance 1 -> 0.95
            twenty_chars(0, 1, 2),     # distance 3 -> 0.85
            twenty_chars(3, 4, 5),     # distance 3 -> 0.85
            twenty_chars(*range(7)),   # distance 7 -> 0.65
        )
        instance = ClsdInstance(
            id="sd1",
            source=Sentence(text="die quelle", lang="de"),
            target=Sentence(text=target, lang="fr"),
            distractors=tuple(Sentence(text=t, lang="fr") for t in distractors),
            meta={},
        )
        result = InstanceResult(
            instance_id="sd1",
            sim_target=0.5,
            sim_distractors=(0.5, 0.6, 0.7, 0.8),
            rank_of_target=5,
            success=False,
        )
        report = EvalReport(
            dataset_id="d",
            backend_id="b",
            model_id="m",
            mode="direct",
            n=1,
            p_at_1=0.0,
            results=(result,),
        )
        return report, [instance]

    def test_four_successful_distractors(self):
        report, dataset = self.all_successful_instance()
        table = success_distribution(report, dataset)
        assert table.d_bin_totals == (1, 2, 0, 1, 0)
        assert table.success_counts == (1, 2, 0, 1, 0)
        assert table.underflow_total == 0
        assert table.n_successful == 4
        assert not table.flagged
        assert table.success_pcts() == pytest.approx((25.0, 50.0, 0.0, 25.0, 0.0, 0.0))

    def test_tie_counts_as_distractor_success(self):
        report, dataset = self.all_successful_instance()
        # distractor 0 ties the target at 0.5 and still counts
        assert report.results[0].sim_distractors[0] == report.results[0].sim_target
        table = success_distribution(report, dataset)
        assert table.success_counts[0] == 1

    def test_zero_successful_flagged(self):
        report, dataset = self.all_successful_instance()
        winning = EvalReport(
            dataset_id="d",
            backend_id="b",
            model_id="m",
            mode="direct",
            n=1,
            p_at_1=1.0,
            results=(
                InstanceResult(
                    instance_id="sd1",
                    sim_target=0.9,
                    sim_distractors=(0.1, 0.2, 0.3, 0.4),
                    rank_of_target=1,
                    success=True,
                ),
            ),
        )
        table = success_distribution(winning, dataset)
        assert table.flagged
        assert table.n_successful == 0
        assert table.success_pcts() == tuple([0.0] * 6)
        assert sum(table.d_bin_totals) + table.underflow_total == 4

    def test_id_mismatch_rejected(self):
        report, dataset = self.all_successful_instance()
        other = ClsdInstance(
            id="other",
            source=dataset[0].source,
            target=dataset[0].target,
            distractors=dataset[0].distractors,
            meta={},
        )
        with pytest.raises(DataError, match="different instance ids"):
            success_distribution(report, [other])

    def test_instance_fails_iff_a_distractor_succeeds(self, fixture_instances):
        report = evaluate(LexicalEmbedder(dim=512), fixture_instances)
        for result in report.results:
            distractor_success = any(
                s >= result.sim_target for s in result.sim_distractors
            )
            assert distractor_success == (not result.success)

    @settings(max_examples=300, deadline=None)
    @given(
        sim_target=st.floats(-0.9, 0.9),
        gaps=st.lists(
            st.one_of(st.floats(-2e-6, 2e-6), st.floats(-1.0, 1.0)),
            min_size=4,
            max_size=4,
        ),
    )
    def test_failed_iff_successful_distractor_after_round_trip(
        self, tmp_path_factory, sim_target, gaps
    ):
        # gaps of about 1e-6 make 6-decimal rounding turn strict wins into ties
        sims = [min(1.0, max(-1.0, sim_target - g)) for g in gaps]
        texts = ["tgt", "d0", "d1", "d2", "d3"]
        axes = np.eye(6)
        mapping = {"src": axes[0]}
        for k, (text, c) in enumerate(zip(texts, [sim_target, *sims])):
            mapping[text] = c * axes[0] + math.sqrt(1.0 - c * c) * axes[k + 1]
        instance = ClsdInstance(
            id="rt",
            source=Sentence(text="src", lang="de"),
            target=Sentence(text="tgt", lang="fr"),
            distractors=tuple(Sentence(text=t, lang="fr") for t in texts[1:]),
            meta={},
        )
        path = tmp_path_factory.getbasetemp() / "round-trip-report.json"
        save_eval_report(evaluate(DictEmbedder(mapping), [instance]), path)
        reloaded = load_eval_report(path)
        table = success_distribution(reloaded, [instance])
        assert (table.n_successful > 0) == (not reloaded.results[0].success)

    def test_frozen_fixture_csv(self, fixture_instances):
        report = evaluate(LexicalEmbedder(dim=512), fixture_instances)
        table = success_distribution(report, fixture_instances)
        assert success_distribution_to_csv(table) == FROZEN_BINS_CSV

    def test_fixture_percentages_sum_to_100(self, fixture_instances):
        report = evaluate(LexicalEmbedder(dim=512), fixture_instances)
        table = success_distribution(report, fixture_instances)
        assert not table.flagged
        assert sum(table.success_pcts()) == pytest.approx(100.0, abs=0.1)


class TestCsvRenderers:
    def test_shift_csv_exact(self):
        table = ShiftTable(
            records=(
                ShiftRecord(
                    instance_id="i1",
                    distractor_index=0,
                    pos="NOUN",
                    cross_shift=-0.4,
                    mono_shift=-0.25,
                ),
            ),
            groups=(
                GroupStats(
                    group="ANY",
                    n=1,
                    mean_cross_shift=-0.4,
                    mean_mono_shift=-0.25,
                    corr_mono_cross=None,
                ),
                GroupStats(
                    group="NOUN",
                    n=1,
                    mean_cross_shift=-0.4,
                    mean_mono_shift=-0.25,
                    corr_mono_cross=None,
                ),
            ),
        )
        assert shift_table_to_csv(table) == (
            "group,n,mean_cross_shift,mean_mono_shift,corr_mono_cross\n"
            "ANY,1,-0.400000,-0.250000,\n"
            "NOUN,1,-0.400000,-0.250000,\n"
        )

    def test_bins_csv_exact(self):
        table = SuccessDistributionTable(
            edges=((0.9, 1.0), (0.3, 0.6)),
            d_bin_totals=(3, 1),
            success_counts=(2, 0),
            underflow_total=2,
            underflow_success=2,
            n_successful=4,
        )
        assert success_distribution_to_csv(table) == (
            "bin_lo,bin_hi,d_bin_total,success_count,success_pct\n"
            "0.9,1,3,2,50.00\n"
            "0.3,0.6,1,0,0.00\n"
            "0,0.3,2,2,50.00\n"
        )


class TestSimilarityBitIdentity:
    """Every similarity the analyses compute equals per-pair ``cosine`` exactly.

    Scoring gathers rows of one embedding matrix; a batched product (einsum,
    gemv) can differ in the last bit, and the strict ``>`` tie rule sees
    unrounded values, so the comparison is ``==``, never approx.
    """

    @staticmethod
    def random_setup(dim, n, seed):
        rng = np.random.default_rng(seed)
        mapping, instances, pairs, annotations = {}, [], [], []
        for i in range(n):
            src = rng.normal(size=dim)
            tgt = src + 0.5 * rng.normal(size=dim)
            # near-ties with the target: within 1e-12, and one exact copy
            vectors = [tgt + 1e-12 * rng.normal(size=dim), tgt.copy(),
                       rng.normal(size=dim), -src]
            source = Sentence(text=f"quelle {i}", lang="de")
            target = Sentence(text=f"cible {i} alpha", lang="fr")
            distractors = tuple(Sentence(text=f"cible {i} d{k}", lang="fr") for k in range(4))
            mapping[source.text], mapping[target.text] = src, tgt
            for d, v in zip(distractors, vectors):
                mapping[d.text] = v
            instances.append(ClsdInstance(id=f"r{i}", source=source, target=target,
                                          distractors=distractors, meta={}))
            pairs.append(ParallelPair(id=f"r{i}", source=source, target=target))
            for k, d in enumerate(distractors):
                diff = single_token_diff(target, d)
                annotations.append(DiffAnnotation(
                    instance_id=f"r{i}", distractor_index=k, position=diff.position,
                    target_token=diff.target_token, distractor_token=diff.distractor_token,
                    pos="NOUN"))
        return mapping, instances, pairs, annotations

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 300), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_equals_per_pair_cosine(self, dim, n, seed):
        mapping, instances, pairs, annotations = self.random_setup(dim, n, seed)
        embedder = DictEmbedder(mapping)
        vec = lambda sentence: mapping[sentence.text]  # noqa: E731

        for inst, result in zip(instances, evaluate(embedder, instances).results):
            assert result.sim_target == cosine(vec(inst.source), vec(inst.target))
            assert result.sim_distractors == tuple(
                cosine(vec(inst.source), vec(d)) for d in inst.distractors
            )

        parallel = [cosine(vec(p.source), vec(p.target)) for p in pairs]
        perm = derangement(len(pairs), seed)
        unrelated = [cosine(vec(p.source), vec(pairs[j].target)) for p, j in zip(pairs, perm)]
        value = float(np.mean(parallel) - np.mean(unrelated))
        if value <= 1e-6:
            with pytest.raises(DataError, match="degenerate"):
                normalization_factor(embedder, pairs, seed)
        else:
            assert normalization_factor(embedder, pairs, seed).value == value

        norm = unit_norm(value=0.37)
        table = shift_analysis(embedder, instances, annotations, norm)
        by_id = {inst.id: inst for inst in instances}
        for record in table.records:
            inst = by_id[record.instance_id]
            s, t = vec(inst.source), vec(inst.target)
            d = vec(inst.distractors[record.distractor_index])
            cross = normalized_shift(cosine(s, t), cosine(s, d), 0.37)
            mono = normalized_shift(1.0, cosine(t, d), 0.37)
            assert (record.cross_shift, record.mono_shift) == (cross, mono)
            distractor = inst.distractors[record.distractor_index]
            assert cross_shift(embedder, inst.source, inst.target, distractor, norm) == cross
            assert mono_shift(embedder, inst.target, distractor, norm) == mono
