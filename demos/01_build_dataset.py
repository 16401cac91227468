"""Build a small DE->FR discrimination dataset without any network access.

The chat backend here is the offline ``replay:`` scheme: we precompute the
prompt for every target sentence and store a scripted numbered reply next to
it. The generator then runs exactly as it would against a live endpoint,
including prompt construction, reply parsing and validation.

Run from the repository root:

    python3 demos/01_build_dataset.py
"""

from pathlib import Path
import json

from clsd.generator import GenerationConfig, build_prompt, dataset_stats, generate_dataset
from clsd.providers import ProviderConfig
from clsd.records import ParallelPair, Sentence, save_clsd_dataset, save_parallel_corpus

OUT = Path("demo_output")
OUT.mkdir(exist_ok=True)

# A hand-written parallel corpus. Each entry is (id, German source, French target).
PAIRS = [
    ("d01", "Der Zug nach Lyon fährt um sieben Uhr ab.",
     "Le train pour Lyon part à sept heures."),
    ("d02", "Die Bibliothek bleibt am Sonntag geschlossen.",
     "La bibliothèque reste fermée le dimanche."),
    ("d03", "Unser Nachbar repariert sein altes Fahrrad im Hof.",
     "Notre voisin répare son vieux vélo dans la cour."),
    ("d04", "Die Regierung senkt die Steuern auf Strom ab Januar.",
     "Le gouvernement baisse les impôts sur l'électricité dès janvier."),
    ("d05", "Nach dem Regen roch der Wald nach frischer Erde.",
     "Après la pluie, la forêt sentait la terre fraîche."),
    ("d06", "Die Mannschaft gewann das Spiel in der letzten Minute.",
     "L'équipe a gagné le match à la dernière minute."),
]

# Scripted replies: four French variants per target, each close in wording but
# different in meaning. A live model would produce these; here we write them.
REPLIES = {
    "d01": ["Le train pour Lyon part à neuf heures.",
            "Le bus pour Lyon part à sept heures.",
            "Le train pour Dijon part à sept heures.",
            "Le train pour Lyon arrive à sept heures."],
    "d02": ["La bibliothèque reste ouverte le dimanche.",
            "La bibliothèque reste fermée le mardi.",
            "La piscine reste fermée le dimanche.",
            "La bibliothèque restera fermée tout l'été."],
    "d03": ["Notre voisin répare son vieux vélo dans la rue.",
            "Notre voisin vend son vieux vélo dans la cour.",
            "Notre voisin répare sa vieille voiture dans la cour.",
            "Notre fils répare son vieux vélo dans la cour."],
    "d04": ["Le gouvernement augmente les impôts sur l'électricité dès janvier.",
            "Le gouvernement baisse les impôts sur l'essence dès janvier.",
            "Le gouvernement baisse les impôts sur l'électricité dès juillet.",
            "La région baisse les impôts sur l'électricité dès janvier."],
    "d05": ["Après la pluie, la forêt sentait la fumée froide.",
            "Avant la pluie, la forêt sentait la terre fraîche.",
            "Après la pluie, la ville sentait la terre fraîche.",
            "Après l'orage, la forêt sentait la terre brûlée."],
    "d06": ["L'équipe a perdu le match à la dernière minute.",
            "L'équipe a gagné le match à la première minute.",
            "L'arbitre a arrêté le match à la dernière minute.",
            "L'équipe a gagné le tournoi à la dernière seconde."],
}

corpus = [
    ParallelPair(
        id=pid,
        source=Sentence(text=de, lang="de"),
        target=Sentence(text=fr, lang="fr"),
    )
    for pid, de, fr in PAIRS
]
save_parallel_corpus(corpus, OUT / "corpus.jsonl")

# The replay file maps the exact prompt text to a canned completion, so we
# build the prompt with the same function the generator uses.
chat = ProviderConfig(kind="chat", endpoint="", model_id="scripted-chat")
cfg = GenerationConfig(chat=chat)

replay_path = OUT / "replies.jsonl"
with replay_path.open("w", encoding="utf-8") as fh:
    for pair in corpus:
        prompt = build_prompt(pair.target, cfg)[0]["content"]
        reply = "\n".join(f"{i}. {text}" for i, text in enumerate(REPLIES[pair.id], 1))
        fh.write(json.dumps({"key": prompt, "content": reply}, ensure_ascii=False) + "\n")

chat = ProviderConfig(kind="chat", endpoint=f"replay:{replay_path}", model_id="scripted-chat")
cfg = GenerationConfig(chat=chat)

instances, log = generate_dataset(corpus, cfg)
print(f"generated {len(instances)} instances ({len(log)} log entries)")
for entry in log:
    print(f"  {entry.pair_id}: {entry.outcome} after {entry.attempts} attempt(s)")

print()
first = instances[0]
print(f"instance {first.id}  ({first.source.lang} -> {first.target.lang})")
print(f"  source: {first.source.text}")
print(f"  target: {first.target.text}")
for i, d in enumerate(first.distractors, 1):
    print(f"  distractor {i}: {d.text}")

save_clsd_dataset(instances, OUT / "dataset.jsonl")
print(f"\nwrote {OUT / 'dataset.jsonl'}")

# How hard is the dataset? Word-set overlap between target and distractors.
stats = dataset_stats(instances)
print(f"target/distractor jaccard: mean={stats.jaccard_mean:.3f} std={stats.jaccard_std:.3f}")
print(f"single-token swaps by language: {stats.single_diff_count}")
print(f"intra-distractor jaccard mean: {stats.intra_jaccard_mean:.3f}")
