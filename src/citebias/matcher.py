"""Existence verification: does a generated reference denote a real,
indexed work?

Each generated reference is checked against the scholarly index: take the
top three title-search hits, score each on title and author similarity,
and accept when some candidate clears both calibrated thresholds.

Similarity is character-level throughout. Titles use a best-matching-
substring ratio: the shorter normalized string is slid across the longer
one and the best window is scored by longest-common-subsequence length,
so a score of 1.0 means one string contains the other exactly. Authors
are pooled into deduplicated word tokens and the score is the mean, over
the generated tokens, of each token's best ratio against any candidate
token; a generated "et al." restricts both sides to the first author.

Both scores count LCS lengths bit-parallel (Allison & Dix 1986, in
Hyyrö's 2004 form) with many comparisons packed as lanes of one integer.
Each lane holds one pattern's bits followed by a clear guard bit; the
guard is masked off after every step, so an addition's carry dies at its
lane's edge and the lanes never mix. Within a lane each clear bit marks
one more character of LCS, so the clear bits count the LCS length. A title packs every window of the
longer string as a lane of the shorter one's bits: window j reads
character j + t at step t, so each step's character mask is the last one
slid down a lane with the next character's mask entering the top lane,
and the shorter title's length in steps scores all windows. An author
list packs the candidate tokens as the lanes, so one mask table serves
every candidate token and each generated token's characters are read
once. The kernels are exact, not approximations: they give the same LCS
lengths as the textbook O(mn) table, so the same scores and verdicts.

Thresholds ship as calibrated defaults (from the bundled labelled pair
set) and every verdict records the thresholds used.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
from dataclasses import dataclass, field
from importlib import resources
from itertools import repeat
from pathlib import Path

from .errors import CalibrationError
from .textnorm import ET_AL_RE, normalize, tokens

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Similarity scores
# ---------------------------------------------------------------------------


def title_similarity(a: str, b: str) -> float:
    """Best-matching-substring ratio of two titles after normalization.

    Symmetric in its arguments; returns 1.0 exactly when one normalized
    title contains the other.
    """
    na, nb = normalize(a), normalize(b)
    if not na and not nb:
        return 1.0
    if not na or not nb:
        return 0.0
    short, long = (na, nb) if len(na) <= len(nb) else (nb, na)
    if short in long:
        return 1.0
    # window j is the lane at bit j*w, with a guard bit above it, and
    # reads long[j + t] at step t: each step's mask is the last one slid
    # down a lane, with the next character's mask entering the top lane,
    # where the masks are built; the first k - 1 characters only fill
    # the lanes below it
    n = len(short)
    k = len(long) - n + 1
    w = n + 1
    masks: dict[str, int] = {}
    for i, ch in enumerate(short, (k - 1) * w):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    lane = (1 << n) - 1
    get = masks.get
    if k == 1:
        # one window, the whole of ``long``: the top lane is the only one,
        # so each character's mask is read as it is, with nothing to slide
        v = lane
        for m in map(get, long, repeat(0)):
            u = v & m
            v = ((v + u) | (v - u)) & lane
        return (n - v.bit_count()) / n
    full = lane * (((1 << (k * w)) - 1) // ((1 << w) - 1))
    step = 0
    for m in map(get, long[: k - 1], repeat(0)):
        step = (step >> w) | m
    v = full
    for m in map(get, long[k - 1 :], repeat(0)):
        step = (step >> w) | m
        u = v & step
        v = ((v + u) | (v - u)) & full
    fewest = min(((v >> s) & lane).bit_count() for s in range(0, k * w, w))
    return (n - fewest) / n


def _lane_lcs(patterns: list[str], texts: list[str]) -> list[list[int]]:
    """LCS length of every text against every pattern, one row per text.

    The patterns are the lanes of one integer, so one mask table serves
    them all and each text's characters are read once for all of them.
    """
    masks: dict[str, int] = {}
    lanes = []
    full = offset = 0
    for pattern in patterns:
        for i, ch in enumerate(pattern, offset):
            masks[ch] = masks.get(ch, 0) | (1 << i)
        lane = (1 << len(pattern)) - 1
        lanes.append((offset, lane, len(pattern)))
        full |= lane << offset
        offset += len(pattern) + 1
    get = masks.get
    rows = []
    for text in texts:
        v = full
        for m in map(get, text, repeat(0)):
            u = v & m
            v = ((v + u) | (v - u)) & full
        rows.append([n - ((v >> s) & lane).bit_count() for s, lane, n in lanes])
    return rows


def author_similarity(
    generated: list[str], candidate: list[str], generated_et_al: bool = False
) -> float:
    """Token-set partial-match score between two author lists.

    Both lists are split into deduplicated word tokens; the score is the
    mean over generated tokens of the best character-level ratio against
    any candidate token. When the generated record used "et al.", only
    the first author on each side is compared.
    """
    if not generated or not candidate:
        raise ValueError("author_similarity needs at least one author per side")
    if generated_et_al:
        generated = generated[:1]
        candidate = candidate[:1]
    gen_tokens = sorted({t for name in generated for t in tokens(name)})
    cand_tokens = sorted({t for name in candidate for t in tokens(name)})
    if not gen_tokens or not cand_tokens:
        return 0.0
    cand_lens = [len(c) for c in cand_tokens]
    total = 0.0
    for g, row in zip(gen_tokens, _lane_lcs(cand_tokens, gen_tokens)):
        n = len(g)
        total += max(2.0 * lcs / (n + m) for lcs, m in zip(row, cand_lens))
    return total / len(gen_tokens)


# ---------------------------------------------------------------------------
# Candidates and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchCandidate:
    """One index hit with its locally computed scores."""

    index_id: str
    title_score: float
    author_score: float


@dataclass(frozen=True)
class Thresholds:
    title_threshold: float
    author_threshold: float
    provenance: str = "config"

    def as_tuple(self) -> tuple[float, float]:
        return (self.title_threshold, self.author_threshold)


@dataclass
class MatchVerdict:
    exists: bool
    matched_index_id: str | None
    best_candidate: MatchCandidate | None
    thresholds_used: tuple[float, float]


def score_candidate(
    generated_title: str,
    generated_authors: list[str],
    et_al: bool,
    record: dict,
) -> MatchCandidate:
    """Score one index record against a generated reference."""
    title_score = title_similarity(generated_title, record.get("title", ""))
    cand_authors = list(record.get("authors", []))
    if generated_authors and cand_authors:
        author_score = author_similarity(generated_authors, cand_authors, et_al)
    else:
        author_score = 0.0
    return MatchCandidate(
        index_id=record["index_id"],
        title_score=title_score,
        author_score=author_score,
    )


def search_candidates(
    scholar,
    generated_title: str,
    generated_authors: list[str],
    et_al: bool = False,
    limit: int = 3,
) -> list[MatchCandidate]:
    """Up to ``limit`` scored candidates, in the index's relevance order."""
    if not generated_title.strip():
        raise ValueError("generated title must be non-empty")
    records = scholar.search_title(generated_title, limit=limit)
    return [
        score_candidate(generated_title, generated_authors, et_al, rec)
        for rec in records[:limit]
    ]


def _candidate_order(candidate: MatchCandidate) -> tuple:
    # higher scores first; id as the final tie-break keeps the verdict a
    # pure function of the candidate multiset
    return (-candidate.title_score, -candidate.author_score, candidate.index_id)


def decide_existence(
    candidates: list[MatchCandidate], thresholds: Thresholds
) -> MatchVerdict:
    """Existence verdict: some candidate clears both thresholds.

    Ties are broken by higher title score, then higher author score, then
    index id, so candidate input order never affects the result.
    """
    qualifying = [
        c
        for c in candidates
        if c.title_score >= thresholds.title_threshold
        and c.author_score >= thresholds.author_threshold
    ]
    if qualifying:
        best = min(qualifying, key=_candidate_order)
        return MatchVerdict(
            exists=True,
            matched_index_id=best.index_id,
            best_candidate=best,
            thresholds_used=thresholds.as_tuple(),
        )
    best = min(candidates, key=_candidate_order) if candidates else None
    return MatchVerdict(
        exists=False,
        matched_index_id=None,
        best_candidate=best,
        thresholds_used=thresholds.as_tuple(),
    )


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


@dataclass
class LabelledPair:
    """One human-labelled (generated reference, index candidate) pair."""

    generated_title: str
    generated_authors: list[str]
    candidate_id: str
    candidate_title: str
    candidate_authors: list[str]
    label: bool
    et_al: bool = False

    def scores(self) -> tuple[float, float]:
        record = {
            "index_id": self.candidate_id,
            "title": self.candidate_title,
            "authors": self.candidate_authors,
        }
        scored = score_candidate(self.generated_title, self.generated_authors, self.et_al, record)
        return (scored.title_score, scored.author_score)


@dataclass
class CalibrationReport:
    """Confusion counts at the selected thresholds.

    ``missed_true`` counts genuinely existing references classified
    non-existent (the quantity calibration minimizes); ``accepted_false``
    counts fabricated references classified existing.
    """

    thresholds: Thresholds
    total: int
    true_accepted: int
    missed_true: int
    accepted_false: int
    false_rejected: int
    predictions: list[bool] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        return (self.true_accepted + self.false_rejected) / self.total

    def confusion_matrix(self) -> dict[str, int]:
        return {
            "true_accepted": self.true_accepted,
            "missed_true": self.missed_true,
            "accepted_false": self.accepted_false,
            "false_rejected": self.false_rejected,
        }


def _evaluate(scored: list[tuple[float, float, bool]], tt: float, ta: float):
    true_accepted = missed_true = accepted_false = false_rejected = 0
    predictions = []
    for title, author, label in scored:
        predicted = title >= tt and author >= ta
        predictions.append(predicted)
        if label and predicted:
            true_accepted += 1
        elif label and not predicted:
            missed_true += 1
        elif not label and predicted:
            accepted_false += 1
        else:
            false_rejected += 1
    return true_accepted, missed_true, accepted_false, false_rejected, predictions


def calibrate(pairs: list[LabelledPair]) -> CalibrationReport:
    """Grid-search thresholds on a labelled pair set.

    Selection minimizes the number of true matches rejected, then
    maximizes accuracy, then prefers the lowest thresholds (by sum, then
    lexicographically). Raises CalibrationError when only one class is
    present.
    """
    if not pairs:
        raise CalibrationError("labelled set is empty")
    labels = {p.label for p in pairs}
    if len(labels) < 2:
        raise CalibrationError("labelled set must contain both classes")

    scored = [(*p.scores(), p.label) for p in pairs]
    title_grid = sorted({0.0, 1.0, *(s[0] for s in scored)})
    author_grid = sorted({0.0, 1.0, *(s[1] for s in scored)})

    best_key = None
    best: CalibrationReport | None = None
    for tt in title_grid:
        for ta in author_grid:
            ta_, mt, af, fr, preds = _evaluate(scored, tt, ta)
            accuracy = (ta_ + fr) / len(scored)
            key = (mt, -accuracy, tt + ta, tt, ta)
            if best_key is None or key < best_key:
                best_key = key
                best = CalibrationReport(
                    thresholds=Thresholds(tt, ta, provenance="calibrated"),
                    total=len(scored),
                    true_accepted=ta_,
                    missed_true=mt,
                    accepted_false=af,
                    false_rejected=fr,
                    predictions=preds,
                )
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Labelled-set and threshold I/O
# ---------------------------------------------------------------------------

_AUTHOR_SEP = ";"


def _parse_authors_cell(cell: str) -> tuple[list[str], bool]:
    authors, et_al = [], False
    for part in cell.split(_AUTHOR_SEP):
        part = part.strip()
        if ET_AL_RE.fullmatch(part):
            et_al = True
        elif part:
            authors.append(part)
    return authors, et_al


def load_labelled_csv(path: Path | str) -> list[LabelledPair]:
    """Read a labelled calibration set.

    Columns: generated_title, generated_authors, candidate_id,
    candidate_title, candidate_authors, label. Author cells are
    semicolon-separated; a literal "et al." entry marks truncation.
    """
    pairs = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            gen_authors, et_al = _parse_authors_cell(row["generated_authors"])
            cand_authors, _ = _parse_authors_cell(row["candidate_authors"])
            pairs.append(
                LabelledPair(
                    generated_title=row["generated_title"],
                    generated_authors=gen_authors,
                    candidate_id=row["candidate_id"],
                    candidate_title=row["candidate_title"],
                    candidate_authors=cand_authors,
                    label=row["label"].strip().lower() in ("true", "1", "yes"),
                    et_al=et_al,
                )
            )
    return pairs


def bundled_labelled_pairs() -> list[LabelledPair]:
    """The labelled pair set shipped with the package."""
    with resources.as_file(
        resources.files("citebias.data").joinpath("labelled_matches.csv")
    ) as path:
        return load_labelled_csv(path)


@functools.cache
def default_thresholds() -> Thresholds:
    """Calibrated defaults shipped with the package, read once per process."""
    text = resources.files("citebias.data").joinpath("default_thresholds.json").read_text("utf-8")
    payload = json.loads(text)
    return Thresholds(
        title_threshold=payload["title_threshold"],
        author_threshold=payload["author_threshold"],
        provenance=payload.get("provenance", "bundled"),
    )
