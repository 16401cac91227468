"""Pure text algorithms: tokenization, edit and set similarity, swap detection.

Tokenization splits on Unicode whitespace and strips leading/trailing
punctuation from each token; tokens that were punctuation-only are dropped.
The ``set`` scheme additionally lowercases, the ``diff`` scheme preserves
case. Keeping two schemes apart matters: set metrics (Jaccard) should treat
"Der"/"der" as one word, while swap detection must not conflate an
inflection change with a case change.

Edit distance is the bit-parallel algorithm of Myers ("A fast bit-vector
algorithm for approximate string matching based on dynamic programming",
J. ACM 46(3), 1999) in Hyyrö's form for global Levenshtein distance ("A
bit-vector algorithm for computing Levenshtein and Damerau edit distances",
2003), over Python ints so the pattern has no word-size limit. The common
prefix and suffix are stripped first: distractors are near-copies of their
target, so little is left for the bit-vector pass.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataError
from .records import Sentence

SCHEME_DIFF = "diff"
SCHEME_SET = "set"

#: Bin edges used for the similarity distribution tables, highest bin first.
DEFAULT_BIN_EDGES: tuple[tuple[float, float], ...] = (
    (0.9, 1.0),
    (0.8, 0.9),
    (0.7, 0.8),
    (0.6, 0.7),
    (0.3, 0.6),
)


@dataclass(frozen=True)
class TokenSeq:
    tokens: tuple[str, ...]
    scheme: str


@dataclass(frozen=True)
class DiffRecord:
    """A single differing position between two equal-length token sequences."""

    position: int
    target_token: str
    distractor_token: str

    def __post_init__(self) -> None:
        if self.target_token == self.distractor_token:
            raise DataError("diff record with equal tokens")


@dataclass(frozen=True)
class BinTable:
    """Counts of values per similarity bin, plus an underflow bucket."""

    edges: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    underflow: int

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow


def _strip_boundary_punct(token: str) -> str:
    # no alphanumeric code point is in a P* category
    if token[0].isalnum() and token[-1].isalnum():
        return token
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(text: str, scheme: str = SCHEME_SET) -> TokenSeq:
    """Split into word tokens; empty text gives an empty sequence."""
    if scheme not in (SCHEME_DIFF, SCHEME_SET):
        raise DataError(f"unknown tokenization scheme {scheme!r}")
    tokens = []
    for raw in text.split():
        token = _strip_boundary_punct(raw)
        if token:
            tokens.append(token.lower() if scheme == SCHEME_SET else token)
    return TokenSeq(tokens=tuple(tokens), scheme=scheme)


def levenshtein_distance(a: str, b: str) -> int:
    """Unit-cost edit distance over Unicode scalar values."""
    if a == b:
        return 0
    start, end = 0, min(len(a), len(b))
    while start < end and a[start] == b[start]:
        start += 1
    end_a, end_b = len(a), len(b)
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a, b = a[start:end_a], b[start:end_b]
    if len(b) > len(a):
        a, b = b, a
    if not b:
        return len(a)
    # Column j of the DP matrix as bit-vectors over the rows of the pattern b:
    # bit i of pv/mv is set where D[i+1][j] - D[i][j] is +1/-1.
    peq: dict[str, int] = {}
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    pv, mv, score = mask, 0, len(b)
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # the shifted-in 1 is row 0's horizontal delta: D[0][j] = j
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - distance/max(len); two empty strings are fully similar."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / longest


def jaccard_similarity(a: TokenSeq, b: TokenSeq) -> float:
    """Word-set overlap |A∩B| / |A∪B|; two empty sets are fully similar."""
    if a.scheme != SCHEME_SET or b.scheme != SCHEME_SET:
        raise DataError("jaccard_similarity requires 'set' scheme token sequences")
    set_a, set_b = set(a.tokens), set(b.tokens)
    if not set_a and not set_b:
        return 1.0
    return len(set_a & set_b) / len(set_a | set_b)


def _text_of(sentence: Sentence | str) -> str:
    return sentence.text if isinstance(sentence, Sentence) else sentence


def intra_distractor_jaccard(distractors: Sequence[Sentence | str]) -> list[float]:
    """For each of the four distractors, its mean Jaccard against the other three."""
    if len(distractors) != 4:
        raise DataError(f"expected 4 distractors, got {len(distractors)}")
    token_sets = [tokenize(_text_of(d), SCHEME_SET) for d in distractors]
    out = []
    for i in range(4):
        others = [jaccard_similarity(token_sets[i], token_sets[j]) for j in range(4) if j != i]
        out.append(sum(others) / 3.0)
    return out


def single_token_diff(target: Sentence, distractor: Sentence) -> DiffRecord | None:
    """Detect a single-token swap between target and distractor.

    Returns a record iff both tokenize (case-sensitively) to the same length
    and differ at exactly one position; anything else returns ``None``.
    """
    if target.lang != distractor.lang:
        raise DataError(
            f"single_token_diff across languages: {target.lang!r} vs {distractor.lang!r}"
        )
    t_tokens = tokenize(target.text, SCHEME_DIFF).tokens
    d_tokens = tokenize(distractor.text, SCHEME_DIFF).tokens
    if len(t_tokens) != len(d_tokens):
        return None
    diffs = [
        (i, t, d) for i, (t, d) in enumerate(zip(t_tokens, d_tokens)) if t != d
    ]
    if len(diffs) != 1:
        return None
    position, target_token, distractor_token = diffs[0]
    return DiffRecord(
        position=position, target_token=target_token, distractor_token=distractor_token
    )


def validate_edges(edges: Sequence[Sequence[float]]) -> tuple[tuple[float, float], ...]:
    """Check bin edges: descending, inside [0, 1], and tiling: each bin's ``lo``
    is the next bin's ``hi``, so underflow is exactly ``[0, lowest lo)``."""
    out = tuple((float(lo), float(hi)) for lo, hi in edges)
    if not out:
        raise DataError("empty bin edges")
    for lo, hi in out:
        if not (0.0 <= lo < hi <= 1.0):
            raise DataError(f"bad bin ({lo}, {hi}): need 0 <= lo < hi <= 1")
    for upper, lower in zip(out, out[1:]):
        if lower[1] > upper[0]:
            raise DataError("bin edges overlap or are not sorted descending")
        if lower[1] < upper[0]:
            raise DataError(f"gap between bins {upper} and {lower}: each lo must be the next hi")
    return out


def bin_index(value: float, edges: Sequence[Sequence[float]]) -> int | None:
    """Index of the bin containing ``value``; ``None`` means underflow.

    A value sits in bin (lo, hi) iff lo <= value < hi; the topmost bin also
    includes value == hi, so a similarity of exactly 1.0 is representable.
    Values above the topmost bin are a caller error.
    """
    return _bin_of(value, validate_edges(edges))


def _bin_of(value: float, checked: tuple[tuple[float, float], ...]) -> int | None:
    """:func:`bin_index` over edges that :func:`validate_edges` returned; as
    the bins tile, the first one whose ``lo`` is at most ``value`` holds it."""
    if value > checked[0][1]:
        raise DataError(f"value {value} above the topmost bin {checked[0]}")
    for i, (lo, _) in enumerate(checked):
        if lo <= value:
            return i
    return None


def bin_by_similarity(
    values: Iterable[float],
    edges: Sequence[Sequence[float]] = DEFAULT_BIN_EDGES,
) -> BinTable:
    """Histogram of similarity values over descending bins."""
    checked = validate_edges(edges)
    counts = [0] * len(checked)
    underflow = 0
    for value in values:
        idx = _bin_of(value, checked)
        if idx is None:
            underflow += 1
        else:
            counts[idx] += 1
    return BinTable(edges=checked, counts=tuple(counts), underflow=underflow)
