"""Evaluate through a pivot language and compare against the direct route.

Pivot evaluation translates the source and all five candidates into a third
language and ranks there, turning a cross-lingual comparison into a
monolingual one. With the offline ``identity:`` translator the texts pass
through unchanged, so the pivot run must reproduce the direct numbers
exactly; that equality is the standard sanity check before plugging in a
real translation service.

    python3 demos/01_build_dataset.py
    python3 demos/03_pivot_evaluation.py
"""

import sys
from pathlib import Path

from clsd.evaluator import disagreement, evaluate, pivot_dataset
from clsd.providers import LexicalEmbedder, ProviderConfig, make_translator
from clsd.records import load_clsd_dataset, save_clsd_dataset

OUT = Path("demo_output")
dataset_path = OUT / "dataset.jsonl"
if not dataset_path.exists():
    sys.exit("demo_output/dataset.jsonl missing; run demos/01_build_dataset.py first")

instances = load_clsd_dataset(dataset_path)

translator = make_translator(
    ProviderConfig(kind="translation", endpoint="identity:", model_id="identity-mt")
)
pivoted, skipped = pivot_dataset(instances, translator, pivot_lang="en")
print(f"pivoted {len(pivoted)} instances, skipped {len(skipped)}")
save_clsd_dataset(pivoted, OUT / "pivot.jsonl")

embedder = LexicalEmbedder(1024)
direct = evaluate(embedder, instances, dataset_id="demo")
via_pivot = evaluate(embedder, pivoted, dataset_id="demo")
print(f"direct P@1 = {direct.p_at_1:.4f}   pivot P@1 = {via_pivot.p_at_1:.4f}")

# Per-instance success sets must coincide under the identity translator.
only_direct, only_pivot = disagreement(direct, via_pivot)
print(f"successes only in direct: {only_direct}")
print(f"successes only in pivot:  {only_pivot}")
assert only_direct == [] and only_pivot == []
print("identity pivot reproduces the direct evaluation, as it must")
