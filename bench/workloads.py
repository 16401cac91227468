"""The three benchmark workloads and the checks on their outputs.

Each round builds fresh inputs from ``(seed, round)`` outside the timed
section, then runs the same work twice on them: a cold pass (empty
embedding cache, first use of the inputs in the process) and a warm pass
(same inputs again, cache filled). Every pass writes into its own
directory; the warm outputs must equal the cold ones byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import synth
from fakes import FakeEmbeddingService, FakeTranslationService

from clsd import cli, evaluator, generator, providers, records
from clsd.errors import ProviderError
from clsd.records import Sentence

MAX_INFLIGHT = 2  # nproc on the reference machine
SAMPLE = 25  # instances per round checked against the reference scorer
LEXICAL_HASH_SEED = b"clsd-lexical-v1:"


class Timer:
    """Sums the wall time of the ``with`` blocks it guards, raw and scaled to
    the reference CPU speed.

    Only the user-mode CPU time of a block is scaled, by the speed of the
    reference kernel (``calibrate``) timed right before and right after the
    block, outside it. System time and time off the CPU (waiting on the fake
    services, on the disk, or for the host) count as measured. A probe taken
    less than ``REUSE_S`` before a block starts serves as that block's first
    probe, so back-to-back blocks share one.
    """

    REUSE_S = 0.005

    def __init__(self) -> None:
        self.seconds = 0.0
        self.scaled = 0.0
        self._probe = (-1.0, 0.0)  # (perf_counter when it ended, kernel seconds)

    def _sample(self) -> float:
        kernel_s = calibrate.sample()
        self._probe = (time.perf_counter(), kernel_s)
        return kernel_s

    def __enter__(self):
        ended, kernel_s = self._probe
        self._before = kernel_s if time.perf_counter() - ended < self.REUSE_S else self._sample()
        self._user = resource.getrusage(resource.RUSAGE_SELF).ru_utime
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        user = resource.getrusage(resource.RUSAGE_SELF).ru_utime - self._user
        kernel_s = (self._before + self._sample()) / 2
        self.seconds += elapsed
        self.scaled += calibrate.scaled(elapsed, user, kernel_s)
        return False


@dataclass
class PassResult:
    seconds: float  # wall time of the timed blocks
    scaled: float  # the same, scaled to the reference CPU speed
    units: int  # instances, or corpus pairs for generate-pivot
    ops: int
    failed_ops: int  # planted failures included
    errors: list[str] = field(default_factory=list)  # outcomes that differ from the plan


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _cli(argv: list, transcript: list[str], timer: Timer) -> int:
    out, err = io.StringIO(), io.StringIO()
    with timer, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([str(a) for a in argv])
    transcript.append(f"$ {argv[0]} -> {code}\n{out.getvalue()}")
    return code


def _provider_section(endpoint: str, model_id: str) -> dict:
    return {
        "endpoint": endpoint,
        "model_id": model_id,
        "max_batch": 32,
        "max_inflight": MAX_INFLIGHT,
        "retry_attempts": 3,
        "retry_base_ms": 1,
    }


# ---------------------------------------------------------------------------
# Independent reference scorer: pure Python, no numpy, no clsd.

def ref_lexical(text: str, dim: int) -> dict[int, int]:
    """Bucket counts of the documented character 3-gram hashing embedder."""
    padded = "\x00" + text.lower() + "\x00"
    counts: dict[int, int] = {}
    for i in range(len(padded) - 2):
        digest = hashlib.sha256(LEXICAL_HASH_SEED + padded[i : i + 3].encode("utf-8"))
        bucket = int.from_bytes(digest.digest()[:8], "big") % dim
        counts[bucket] = counts.get(bucket, 0) + 1
    return counts


def _ref_cosine(u, v) -> float:
    if isinstance(u, dict):
        dot = math.fsum(c * v.get(k, 0) for k, c in u.items())
        nu, nv = math.fsum(c * c for c in u.values()), math.fsum(c * c for c in v.values())
    else:
        dot = math.fsum(a * b for a, b in zip(u, v))
        nu, nv = math.fsum(a * a for a in u), math.fsum(b * b for b in v)
    return max(-1.0, min(1.0, dot / math.sqrt(nu * nv)))


def check_report(path: Path, instances: list[synth.Instance], vector, sample: list[int]) -> list[str]:
    """Reference cosines and the strict ``>`` rule against a saved report."""
    report = json.loads(path.read_text(encoding="utf-8"))
    errors = []
    if report["n"] != len(instances):
        errors.append(f"{path.name}: n={report['n']}, expected {len(instances)}")
        return errors
    for i in sample:
        inst, row = instances[i], report["results"][i]
        src = vector(inst.source)
        sims = [_ref_cosine(src, vector(t)) for t in [inst.target, *inst.distractors]]
        stored = [row["sim_target"], *row["sim_distractors"]]  # rounded to 6 decimals
        if row["id"] != inst.id or any(abs(a - b) > 5e-7 + 1e-12 for a, b in zip(sims, stored)):
            errors.append(f"{path.name}: {inst.id} sims {stored} != reference {sims}")
            continue
        if min(abs(sims[0] - d) for d in sims[1:]) < 1e-9:
            continue  # an exact tie in real arithmetic; float order may decide
        success = all(sims[0] > d for d in sims[1:])
        rank = 1 + sum(d >= sims[0] for d in sims[1:])
        if row["success"] != success or row["rank_of_target"] != rank:
            errors.append(f"{path.name}: {inst.id} success/rank differ from reference")
    return errors


def compare_dirs(cold: Path, warm: Path, names: list[str]) -> list[str]:
    return [
        f"warm {name} differs from cold"
        for name in names
        if (cold / name).read_bytes() != (warm / name).read_bytes()
    ]


# ---------------------------------------------------------------------------

class Workload:
    name = ""
    unit = "instances"
    sizes: dict[str, int] = {}

    def __init__(self, seed: int, size: str, tracer=None) -> None:
        self.seed = seed
        self.n = self.sizes[size]
        self.tracer = tracer

    def prepare(self, r: int, work: Path):
        raise NotImplementedError

    def run_pass(self, inp, out: Path, cold: bool) -> PassResult:
        raise NotImplementedError

    def check(self, inp, cold: Path, warm: Path) -> list[str]:
        raise NotImplementedError

    def outputs(self, out: Path) -> dict[str, bytes]:
        """Every output of a pass except manifests, as digested bytes."""
        raise NotImplementedError

    def sample(self, r: int, n: int) -> list[int]:
        return sorted(synth.rng_for(self.seed, self.name, "sample", r).sample(range(n), min(SAMPLE, n)))


# ---------------------------------------------------------------------------

@dataclass
class CliInputs:
    r: int
    instances: list[synth.Instance]
    dataset: Path
    corpus: Path
    corrupt: Path


CLI_OUTPUTS = [
    "stats.json", "lexical.json", "lexical128.json", "compare.json", "norm.json",
    "candidates.jsonl", "shift.csv", "bins.csv", "report.md", "transcript.txt",
]


class CliScore(Workload):
    """The analysis path through ``clsd.cli.run`` on the lexical backend."""

    name = "cli-score"
    sizes = {"default": 40, "tiny": 12}

    def prepare(self, r: int, work: Path) -> CliInputs:
        instances = synth.make_dataset(self.seed, f"r{r}", self.n)
        inp = CliInputs(r, instances, work / "dataset.jsonl", work / "corpus.jsonl",
                        work / "corrupt.jsonl")
        synth.write_dataset(inp.dataset, instances)
        synth.write_corpus(inp.corpus, instances)
        synth.write_corrupt_copy(inp.dataset, inp.corrupt, synth.rng_for(self.seed, "corrupt", r))
        return inp

    def run_pass(self, inp: CliInputs, out: Path, cold: bool) -> PassResult:
        timer, log = Timer(), []
        ds = inp.dataset
        steps = [
            (["validate", "--dataset", ds], 0),
            (["stats", "--dataset", ds, "--out", out / "stats.json"], 0),
            (["eval", "--dataset", ds, "--backend", "lexical", "--out", out / "lexical.json"], 0),
            (["eval", "--dataset", ds, "--backend", "lexical:128",
              "--out", out / "lexical128.json"], 0),
            (["compare", "--report-a", out / "lexical.json", "--report-b",
              out / "lexical128.json", "--out", out / "compare.json"], 0),
            (["norm", "--corpus", inp.corpus, "--backend", "lexical", "--seed", self.seed,
              "--out", out / "norm.json"], 0),
            (["diff-annotate", "--dataset", ds, "--out", out / "candidates.jsonl"], 0),
            (None, None),  # POS tags are filled in here, outside the timer
            (["shift", "--dataset", ds, "--annotations", out / "tagged.jsonl", "--norm",
              out / "norm.json", "--backend", "lexical", "--out", out / "shift.csv"], 0),
            (["bins", "--report", out / "lexical.json", "--dataset", ds,
              "--out", out / "bins.csv"], 0),
            (["report", "--inputs", out / "lexical.json", out / "lexical128.json",
              "--out", out / "report.md"], 0),
            # planted failure: a dataset with one line cut in half must exit 1
            (["validate", "--dataset", inp.corrupt], 1),
        ]
        errors, ops, failed = [], 0, 0
        for argv, expected in steps:
            if argv is None:
                self._tag(out / "candidates.jsonl", out / "tagged.jsonl")
                continue
            code = _cli(argv, log, timer)
            ops += 1
            failed += code != 0
            if code != expected:
                errors.append(f"clsd {argv[0]} exited {code}, expected {expected}")
                break
        (out / "transcript.txt").write_text("".join(log), encoding="utf-8")
        return PassResult(timer.seconds, timer.scaled, len(inp.instances), ops, failed, errors)

    @staticmethod
    def _tag(src: Path, dst: Path) -> None:
        rows = _jsonl(src)
        for row in rows:
            row["pos"] = synth.pos_of(row["target_token"])
        synth.write_jsonl(dst, rows)

    def check(self, inp: CliInputs, cold: Path, warm: Path) -> list[str]:
        n = len(inp.instances)
        planted = [
            [inst.id, s.distractor_index, s.position, s.target_token, s.distractor_token]
            for inst in inp.instances
            for s in inst.swaps
        ]
        found = [
            [c["instance_id"], c["distractor_index"], c["position"], c["target_token"],
             c["distractor_token"]]
            for c in _jsonl(cold / "candidates.jsonl")
        ]
        errors = []
        if found != planted:
            errors.append(f"diff-annotate found {len(found)} swaps, planted {len(planted)}")
        stats = json.loads((cold / "stats.json").read_text(encoding="utf-8"))
        if stats["n_instances"] != n or stats["single_diff_count"] != {synth.TGT_LANG: len(planted)}:
            errors.append(f"stats disagree with the plan: {stats}")
        bins = (cold / "bins.csv").read_text(encoding="utf-8").splitlines()[1:]
        if sum(int(line.split(",")[2]) for line in bins) != 4 * n:
            errors.append("bins do not cover every distractor")
        sample = self.sample(inp.r, n)
        for name, dim in (("lexical.json", 512), ("lexical128.json", 128)):
            errors += check_report(cold / name, inp.instances,
                                   lambda t, d=dim: ref_lexical(t, d), sample)
        return errors + compare_dirs(cold, warm, CLI_OUTPUTS)

    def outputs(self, out: Path) -> dict[str, bytes]:
        return {name: (out / name).read_bytes() for name in CLI_OUTPUTS}


# ---------------------------------------------------------------------------

@dataclass
class CacheInputs:
    r: int
    instances: list[synth.Instance]
    dataset: list  # clsd.records.ClsdInstance
    dead_dataset: list
    vectors: dict[str, array]
    faults: synth.FaultSchedule
    cfg: providers.ProviderConfig
    cache_dir: Path
    unique: int


class ServiceCache(Workload):
    """``evaluate`` through ServiceEmbedder + EmbeddingCache + a fake service."""

    name = "service-cache"
    sizes = {"default": 150, "tiny": 12}

    def prepare(self, r: int, work: Path) -> CacheInputs:
        instances = synth.make_dataset(self.seed, f"r{r}", self.n)
        dead = synth.make_dataset(self.seed, f"dead{r}", 1)
        synth.write_dataset(work / "dataset.jsonl", instances)
        synth.write_dataset(work / "dead.jsonl", dead)
        texts = list(dict.fromkeys(
            t for inst in instances for t in (inst.source, inst.target, *inst.distractors)
        ))
        unique = len(texts)
        rng = synth.rng_for(self.seed, self.name, "faults", r)
        faults = synth.FaultSchedule(
            dead=frozenset([dead[0].source]),
            flaky=frozenset(synth.pick(rng, texts, synth.EMBED_FLAKY_SHARE, unique)),
        )
        texts += [t for t in (dead[0].source, dead[0].target, *dead[0].distractors)]
        cfg = cli.load_run_config(self._config(work)).embedding
        return CacheInputs(
            r, instances,
            records.load_clsd_dataset(work / "dataset.jsonl"),
            records.load_clsd_dataset(work / "dead.jsonl"),
            {t: synth.fake_vector(t) for t in texts}, faults, cfg, work / "cache", unique,
        )

    @staticmethod
    def _config(work: Path) -> Path:
        path = work / "config.json"
        path.write_text(json.dumps(
            {"embedding": _provider_section("fake://embed", "hash-256")}), encoding="utf-8")
        return path

    def run_pass(self, inp: CacheInputs, out: Path, cold: bool) -> PassResult:
        timer, errors = Timer(), []
        service = FakeEmbeddingService(inp.vectors, inp.faults, self.tracer)
        embedder = providers.ServiceEmbedder(
            inp.cfg, cache=providers.EmbeddingCache(inp.cache_dir), transport=service
        )
        with timer:
            report = evaluator.evaluate(embedder, inp.dataset, dataset_id="dataset")
            evaluator.save_eval_report(report, out / "report.json")
        ops, failed = inp.unique, 0
        if cold:
            # planted failure: one text is refused by the service on every attempt
            try:
                with timer:
                    evaluator.evaluate(embedder, inp.dead_dataset, dataset_id="dead")
                errors.append("evaluate over a dead text did not fail")
            except ProviderError:
                pass
            ops += 6
            failed += 6
            if service.items < inp.unique:
                errors.append(f"cold pass requested {service.items} of {inp.unique} texts")
        elif service.requests:
            errors.append(f"warm pass sent {service.requests} requests; expected only hits")
        return PassResult(timer.seconds, timer.scaled, len(inp.dataset), ops, failed, errors)

    def check(self, inp: CacheInputs, cold: Path, warm: Path) -> list[str]:
        sample = self.sample(inp.r, len(inp.instances))
        errors = check_report(cold / "report.json", inp.instances, inp.vectors.__getitem__, sample)
        return errors + compare_dirs(cold, warm, ["report.json"])

    def outputs(self, out: Path) -> dict[str, bytes]:
        return {"report.json": (out / "report.json").read_bytes()}


# ---------------------------------------------------------------------------

@dataclass
class GenInputs:
    r: int
    n_pairs: int
    corpus: Path
    config: Path
    translation: providers.ProviderConfig
    expected: list[dict]
    skipped_pairs: set[str]
    pivots: list[dict]
    faults: synth.FaultSchedule


GEN_OUTPUTS = ["dataset.jsonl", "log.jsonl", "stats.json", "pivot.jsonl", "transcript.txt"]


class GeneratePivot(Workload):
    """``clsd generate`` over a replay file, then validate, stats, save, pivot."""

    name = "generate-pivot"
    unit = "pairs"
    sizes = {"default": 60, "tiny": 20}
    model_id = "replay-chat"

    def prepare(self, r: int, work: Path) -> GenInputs:
        instances = synth.make_dataset(self.seed, f"r{r}", self.n)
        rng = synth.rng_for(self.seed, self.name, "faults", r)
        solo = [inst for inst in instances if not inst.shared]
        bad = {
            inst.id: synth.BAD_REPLY_KINDS[(k + r) % len(synth.BAD_REPLY_KINDS)]
            for k, inst in enumerate(synth.pick(rng, solo, synth.BAD_REPLY_SHARE, self.n))
        }
        config = work / "config.json"
        config.write_text(json.dumps({
            "chat": _provider_section(f"replay:{work / 'replay.jsonl'}", self.model_id),
            "translation": _provider_section("fake://translate", "fake-mt"),
        }), encoding="utf-8")
        run_config = cli.load_run_config(config)
        gcfg = generator.GenerationConfig(chat=run_config.chat)

        replies: dict[str, str | None] = {}
        distractors_of: dict[str, list[str]] = {}
        expected, made = [], []
        for inst in instances:
            prompt = generator.build_prompt(Sentence(inst.target, synth.TGT_LANG), gcfg)[-1]["content"]
            if prompt not in replies:
                distractors_of[prompt] = inst.distractors
                replies[prompt] = (
                    synth.bad_reply(bad[inst.id], inst.target, inst.distractors)
                    if inst.id in bad
                    else synth.good_reply(rng, inst.distractors)
                )
            if inst.id not in bad:
                expected.append({
                    **inst.to_obj({"model": self.model_id, "prompt_version": gcfg.prompt_version}),
                    "distractors": list(distractors_of[prompt]),
                })
                if not inst.shared:
                    made.append(expected[-1])
        synth.write_jsonl(
            work / "replay.jsonl",
            ({"key": k, "content": v} for k, v in replies.items() if v is not None),
        )
        synth.write_corpus(work / "corpus.jsonl", instances)

        dead = synth.pick(rng, made, synth.PIVOT_DEAD_SHARE, len(expected))
        flaky = synth.pick(rng, [e for e in made if e not in dead],
                           synth.PIVOT_FLAKY_SHARE, len(expected))
        faults = synth.FaultSchedule(
            dead=frozenset(e["source"] for e in dead),
            flaky=frozenset(e["target"] for e in flaky),
        )
        dead_ids = {e["id"] for e in dead}
        tr = synth.translate_text
        pivots = [
            {
                "id": e["id"], "src_lang": synth.PIVOT_LANG, "tgt_lang": synth.PIVOT_LANG,
                "source": tr(e["source"], synth.SRC_LANG, synth.PIVOT_LANG),
                "target": tr(e["target"], synth.TGT_LANG, synth.PIVOT_LANG),
                "distractors": [tr(d, synth.TGT_LANG, synth.PIVOT_LANG) for d in e["distractors"]],
                "meta": {}, "pivot_lang": synth.PIVOT_LANG, "original_id": e["id"],
            }
            for e in expected
            if e["id"] not in dead_ids
        ]
        return GenInputs(r, self.n, work / "corpus.jsonl", config, run_config.translation,
                         expected, set(bad), pivots, faults)

    def run_pass(self, inp: GenInputs, out: Path, cold: bool) -> PassResult:
        timer, log = Timer(), []
        code = _cli(["generate", "--corpus", inp.corpus, "--config", inp.config,
                     "--seed", self.seed, "--out", out / "dataset.jsonl"], log, timer)
        if code != 0:
            return PassResult(timer.seconds, timer.scaled, inp.n_pairs, 1, 1,
                              [f"clsd generate exited {code}"])
        service = FakeTranslationService(inp.faults, self.tracer)
        with timer:
            instances = records.load_clsd_dataset(out / "dataset.jsonl")
            validation = records.validate_dataset(instances)
            stats = generator.dataset_stats(instances)
            records.save_clsd_dataset(instances, out / "resaved.jsonl")
            translator = providers.make_translator(inp.translation, transport=service)
            pivots, skipped = evaluator.pivot_dataset(instances, translator, synth.PIVOT_LANG)
            records.save_pivot_dataset(pivots, out / "pivot.jsonl")
        (out / "stats.json").write_text(json.dumps(stats.to_json(), indent=2), encoding="utf-8")
        (out / "transcript.txt").write_text("".join(log), encoding="utf-8")
        run_log = _jsonl(out / "dataset.jsonl.log.jsonl")
        for row in run_log:
            row.pop("latency_ms")
        synth.write_jsonl(out / "log.jsonl", run_log)

        errors = []
        if not validation.ok:
            errors.append(f"validate_dataset found errors: {validation.errors[:3]}")
        if stats.n_instances != len(instances):
            errors.append("dataset_stats counted the wrong number of instances")
        expected_skips = {e["id"] for e in inp.expected} - {p["id"] for p in inp.pivots}
        if {s[0] for s in skipped} != expected_skips:
            errors.append(f"pivot skipped {sorted(s[0] for s in skipped)}, planted {sorted(expected_skips)}")
        n_skipped = sum(row["outcome"] == "skipped" for row in run_log)
        return PassResult(
            timer.seconds, timer.scaled, inp.n_pairs, inp.n_pairs + len(instances),
            n_skipped + len(skipped), errors,
        )

    def check(self, inp: GenInputs, cold: Path, warm: Path) -> list[str]:
        errors = []
        if _jsonl(cold / "dataset.jsonl") != inp.expected:
            errors.append("generated dataset differs from the planted one")
        run_log = _jsonl(cold / "log.jsonl")
        skipped = {row["pair_id"] for row in run_log if row["outcome"] == "skipped"}
        if skipped != inp.skipped_pairs:
            errors.append(f"generate skipped {sorted(skipped)}, planted {sorted(inp.skipped_pairs)}")
        if any(row["attempts"] != 1 for row in run_log if row["outcome"] == "ok"):
            errors.append("a pair with a good reply needed more than one attempt")
        if (cold / "resaved.jsonl").read_bytes() != (cold / "dataset.jsonl").read_bytes():
            errors.append("save_clsd_dataset does not reproduce the generated bytes")
        if _jsonl(cold / "pivot.jsonl") != inp.pivots:
            errors.append("pivot dataset differs from the planted one")
        return errors + compare_dirs(cold, warm, GEN_OUTPUTS)

    def outputs(self, out: Path) -> dict[str, bytes]:
        return {name: (out / name).read_bytes() for name in GEN_OUTPUTS}


WORKLOADS = {w.name: w for w in (CliScore, ServiceCache, GeneratePivot)}
