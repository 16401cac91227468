"""Seeded input synthesis for the benchmark workloads.

Everything here is a pure function of ``(seed, workload, round)``: the same
arguments give the same corpus, dataset, replay file and fault schedule on
every machine. The program under test only ever sees the files and objects
built here.

Input properties, and why they were chosen:

* Target sentences are 40 to 200 characters long, spread evenly over that
  range in every dataset, because Levenshtein cost grows with the product of
  the two lengths; the even spread keeps the cost of equal-sized datasets
  equal, so rounds and seeds compare.
* Every distractor is a 1 to 3 token edit of its target, because real CLSD
  distractors are near-copies. Exactly ``SWAP_SHARE`` of all distractors are
  single-token swaps, so ``diff-annotate`` and ``shift`` have work; the rest
  are 2-3 swaps, or 1-3 insertions, or 1-3 deletions, none of which is a
  single-token swap.
* Exactly ``DUP_SHARE`` of the instances repeat the source and target of an
  earlier instance, as real corpora do, so text de-duplication has work.
* Sources are word-by-word German renderings of French targets that keep
  proper nouns and numbers, so parallel pairs share more character n-grams
  than unrelated pairs and the normalization gap is positive.
* Planted faults come in exact counts, chosen by the seed, so the number of
  failed operations is fixed by the seed and independent of thread timing.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from dataclasses import dataclass
from pathlib import Path

SRC_LANG = "de"
TGT_LANG = "fr"
PIVOT_LANG = "en"

MIN_CHARS = 40
MAX_CHARS = 200
SWAP_SHARE = 0.40
DUP_SHARE = 0.05
BAD_REPLY_SHARE = 0.05
PIVOT_DEAD_SHARE = 0.02
PIVOT_FLAKY_SHARE = 0.05
EMBED_FLAKY_SHARE = 0.003
EMBED_DIM = 256

# French word -> German word, by part of speech. Proper nouns and numbers are
# written the same way in both languages.
_LEXICON: dict[str, dict[str, str]] = {
    "NOUN": {
        "appareils": "Maschinen", "clients": "Kunden", "gouvernement": "Regierung",
        "loi": "Gesetz", "budget": "Haushalt", "dépenses": "Ausgaben",
        "éducation": "Bildung", "festival": "Festival", "programme": "Programm",
        "production": "Produktion", "prix": "Preise", "marché": "Markt",
        "entreprise": "Unternehmen", "banque": "Bank", "ville": "Stadt",
        "région": "Region", "usine": "Fabrik", "emplois": "Arbeitsplätze",
        "salaires": "Löhne", "impôts": "Steuern", "élection": "Wahl",
        "parlement": "Parlament", "ministre": "Minister", "projet": "Projekt",
        "réseau": "Netz", "énergie": "Energie", "électricité": "Strom",
        "voitures": "Autos", "train": "Zug", "aéroport": "Flughafen",
        "hôpital": "Krankenhaus", "école": "Schule", "étudiants": "Studenten",
        "recherche": "Forschung", "données": "Daten", "logiciel": "Software",
        "contrat": "Vertrag", "accord": "Abkommen", "croissance": "Wachstum",
        "inflation": "Inflation", "exportations": "Exporte",
        "investissements": "Investitionen", "bénéfices": "Gewinne",
        "pertes": "Verluste", "actions": "Aktien", "secteur": "Sektor",
        "centre": "Zentrum", "stade": "Stadion", "musée": "Museum",
        "concert": "Konzert", "l'industrie": "Industrie", "l'usine": "Werk",
    },
    "VERB": {
        "livre": "liefert", "augmente": "erhöht", "réduit": "senkt",
        "prépare": "plant", "prévoit": "sieht", "annonce": "kündigt",
        "ouvre": "eröffnet", "ferme": "schließt", "vend": "verkauft",
        "achète": "kauft", "construit": "baut", "présente": "präsentiert",
        "signe": "unterzeichnet", "critique": "kritisiert",
        "soutient": "unterstützt", "rejette": "lehnt", "retarde": "verzögert",
        "accélère": "beschleunigt", "finance": "finanziert",
        "publie": "veröffentlicht",
    },
    "ADJ": {
        "nouveaux": "neue", "grand": "großes", "petit": "kleines",
        "important": "wichtiges", "public": "öffentliches",
        "national": "nationales", "européen": "europäisches",
        "rapide": "schnelles", "lent": "langsames", "fort": "starkes",
        "faible": "schwaches", "élevé": "hohes", "modeste": "bescheidenes",
        "récent": "jüngstes", "ancien": "altes", "moderne": "modernes",
        "numérique": "digitales", "régional": "regionales",
        "annuel": "jährliches", "prochain": "nächstes",
    },
    "ADV": {
        "encore": "noch", "déjà": "bereits", "aussi": "auch",
        "fortement": "stark", "nettement": "deutlich", "rapidement": "schnell",
        "lentement": "langsam", "bientôt": "bald",
    },
    "DET": {
        "le": "der", "la": "die", "les": "die", "un": "ein", "une": "eine",
        "des": "einige", "ses": "seine", "cette": "diese",
    },
    "ADP": {
        "de": "von", "à": "in", "en": "im", "pour": "für", "avec": "mit",
        "sur": "über", "dans": "innerhalb", "par": "durch", "sans": "ohne",
        "près": "nahe",
    },
    "PROPN": {
        name: name
        for name in (
            "Airbus", "Toyota", "Amazon", "Nasdaq", "Siemens", "Renault",
            "Michelin", "Bosch", "Berlin", "Lyon", "Paris", "Hamburg",
            "Marseille", "Mozart", "Macron", "Dax", "Lufthansa", "Nestlé",
            "Danone", "Genève",
        )
    },
}

_POS_WEIGHTS = {
    "NOUN": 25, "VERB": 12, "ADJ": 15, "ADV": 5, "DET": 14, "ADP": 14,
    "PROPN": 7, "NUM": 8,
}
_INSERTABLE = ("NOUN", "ADJ", "ADV")

_POS_OF = {word: pos for pos, words in _LEXICON.items() for word in words}
_WORDS = {pos: sorted(words) for pos, words in _LEXICON.items()}


def pos_of(token: str) -> str:
    """Universal POS tag of a French token, as a tagger would give it."""
    if token.isdigit():
        return "NUM"
    return _POS_OF.get(token, "X")


def rng_for(seed: int, *parts: object) -> random.Random:
    """Independent, reproducible random stream for one (seed, parts) tuple."""
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def _word(rng: random.Random, pos: str, avoid: str | None = None) -> str:
    while True:
        if pos == "NUM":
            word = str(rng.randint(2, 2030))
        else:
            word = rng.choice(_WORDS[pos])
        if word != avoid:
            return word


def _sentence_tokens(rng: random.Random, limit: int) -> list[str]:
    limit -= 1  # room for the final period
    tokens = [_word(rng, "PROPN")]
    pos_names = list(_POS_WEIGHTS)
    weights = list(_POS_WEIGHTS.values())
    while True:
        word = _word(rng, rng.choices(pos_names, weights)[0])
        length = sum(len(t) + 1 for t in tokens) - 1
        if length >= MIN_CHARS - 1 and length + 1 + len(word) > limit:
            return tokens
        tokens.append(word)


def _text(tokens: list[str]) -> str:
    return " ".join(tokens) + "."


def _source_of(tokens: list[str]) -> str:
    return _text([_LEXICON.get(pos_of(t), {}).get(t, t) for t in tokens])


@dataclass(frozen=True)
class Swap:
    """A planted single-token swap: what ``diff-annotate`` must report."""

    distractor_index: int
    position: int
    target_token: str
    distractor_token: str
    pos: str


def _edit(
    rng: random.Random, tokens: list[str], kind: str, index: int
) -> tuple[list[str], Swap | None]:
    out = list(tokens)
    if kind == "swap":
        i = rng.randrange(len(out))
        pos = pos_of(out[i])
        new = _word(rng, pos, avoid=out[i])
        swap = Swap(index, i, out[i], new, pos)
        out[i] = new
        return out, swap
    n_edits = rng.randint(2, 3) if kind == "multi" else rng.randint(1, 3)
    if kind == "multi":
        for i in rng.sample(range(len(out)), n_edits):
            out[i] = _word(rng, pos_of(out[i]), avoid=out[i])
    elif kind == "insert":
        for _ in range(n_edits):
            out.insert(rng.randint(1, len(out)), _word(rng, rng.choice(_INSERTABLE)))
    else:  # delete, keeping at least two tokens
        for _ in range(min(n_edits, len(out) - 2)):
            del out[rng.randrange(1, len(out))]
    return out, None


def _edit_kinds(rng: random.Random, n_distractors: int) -> list[str]:
    n_swap = round(SWAP_SHARE * n_distractors)
    rest = n_distractors - n_swap
    n_multi = rest // 2
    n_insert = (rest - n_multi) // 2
    kinds = (
        ["swap"] * n_swap
        + ["multi"] * n_multi
        + ["insert"] * n_insert
        + ["delete"] * (rest - n_multi - n_insert)
    )
    rng.shuffle(kinds)
    return kinds


@dataclass
class Instance:
    id: str
    source: str
    target: str
    distractors: list[str]
    swaps: list[Swap]
    shared: bool  # its source and target also appear in another instance

    def to_obj(self, meta: dict[str, str] | None = None) -> dict:
        return {
            "id": self.id,
            "src_lang": SRC_LANG,
            "tgt_lang": TGT_LANG,
            "source": self.source,
            "target": self.target,
            "distractors": list(self.distractors),
            "meta": dict(sorted((meta or {}).items())),
        }


def make_dataset(seed: int, tag: str, n: int) -> list[Instance]:
    """``n`` instances with exact swap and duplicate shares."""
    rng = rng_for(seed, "dataset", tag)
    kinds = _edit_kinds(rng, 4 * n)
    # evenly spread lengths, so every dataset of size n costs about the same
    limits = [round(MIN_CHARS + (MAX_CHARS - MIN_CHARS) * (k + 0.5) / n) for k in range(n)]
    rng.shuffle(limits)
    n_dup = round(DUP_SHARE * n)
    dup_slots = set(rng.sample(range(1, n), n_dup)) if n > 1 else set()
    instances: list[Instance] = []
    token_lists: list[list[str]] = []
    for i in range(n):
        if i in dup_slots:
            j = rng.choice([j for j in range(i) if j not in dup_slots])
            tokens = token_lists[j]
            instances[j].shared = True
        else:
            tokens = _sentence_tokens(rng, limits[i])
        token_lists.append(tokens)
        distractors, swaps = [], []
        for d in range(4):
            edited, swap = _edit(rng, tokens, kinds[4 * i + d], d)
            distractors.append(_text(edited))
            if swap is not None:
                swaps.append(swap)
        instances.append(
            Instance(
                id=f"{tag}-{i:05d}",
                source=_source_of(tokens),
                target=_text(tokens),
                distractors=distractors,
                swaps=swaps,
                shared=i in dup_slots,
            )
        )
    return instances


def write_jsonl(path: Path, objs) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def write_dataset(path: Path, instances: list[Instance]) -> None:
    write_jsonl(path, (inst.to_obj() for inst in instances))


def write_corpus(path: Path, instances: list[Instance]) -> None:
    write_jsonl(
        path,
        (
            {"id": inst.id, "src_lang": SRC_LANG, "tgt_lang": TGT_LANG,
             "source": inst.source, "target": inst.target}
            for inst in instances
        ),
    )


def write_corrupt_copy(src: Path, dst: Path, rng: random.Random) -> None:
    """Copy a JSONL file with one seed-chosen line cut in half."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    k = rng.randrange(len(lines))
    lines[k] = lines[k][: len(lines[k]) // 2] + "\n"
    dst.write_text("".join(lines), encoding="utf-8")


def pick(rng: random.Random, candidates: list, share: float, total: int) -> list:
    """Exactly ``round(share * total)`` (at least one) of ``candidates``."""
    k = min(len(candidates), max(1, round(share * total)))
    return rng.sample(candidates, k)


# ---------------------------------------------------------------------------
# generate-pivot inputs

_GOOD_FORMATS = (
    "{n}. {text}",
    "{n}) {text}",
    '{n}. "{text}"',
    "{n}. “{text}”",
    "  {n}) «{text}»",
)
BAD_REPLY_KINDS = ("three_items", "duplicate_number", "equals_target", "blank", "missing")


def good_reply(rng: random.Random, distractors: list[str]) -> str:
    fmt = rng.choice(_GOOD_FORMATS)
    lines = [fmt.format(n=n, text=t) for n, t in enumerate(distractors, start=1)]
    if rng.random() < 0.3:
        lines.insert(0, "Voici quelques phrases :")
    return "\n".join(lines)


def bad_reply(kind: str, target: str, distractors: list[str]) -> str | None:
    """A reply the generator must reject on every attempt (None: no entry)."""
    if kind == "three_items":
        return "\n".join(f"{n}. {t}" for n, t in enumerate(distractors[:3], start=1))
    if kind == "duplicate_number":
        return "\n".join(f"1. {t}" for t in distractors)
    if kind == "equals_target":
        items = [target] + distractors[1:]
        return "\n".join(f"{n}. {t}" for n, t in enumerate(items, start=1))
    if kind == "blank":
        return "   "
    return None


def translate_text(text: str, src: str, tgt: str) -> str:
    """What the fake translation service returns for one text."""
    return f"[{src}>{tgt}] {text}"


# ---------------------------------------------------------------------------
# service-cache inputs

def fake_vector(text: str) -> array:
    """Finite, non-zero vector derived from a hash of the text alone."""
    raw = hashlib.shake_256(text.encode("utf-8")).digest(4 * EMBED_DIM)
    values = array("d", (
        int.from_bytes(raw[i : i + 4], "little") / 2**31 - 1.0
        for i in range(0, len(raw), 4)
    ))
    if not any(values):
        values[0] = 1.0
    return values


@dataclass
class FaultSchedule:
    """Texts whose requests fail, keyed by content, never by arrival order."""

    dead: frozenset[str] = frozenset()  # every request containing one fails
    flaky: frozenset[str] = frozenset()  # the first request containing one fails
