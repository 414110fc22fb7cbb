"""Similarity scoring, existence verdicts, and threshold calibration."""

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citebias.clients import FixtureIndexClient
from citebias.errors import CalibrationError
from citebias.matcher import (
    LabelledPair,
    MatchCandidate,
    Thresholds,
    _lane_lcs,
    _parse_authors_cell,
    author_similarity,
    bundled_labelled_pairs,
    calibrate,
    decide_existence,
    default_thresholds,
    search_candidates,
    title_similarity,
)
from citebias.textnorm import normalize, tokens

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def oracle_lcs(a: str, b: str) -> int:
    """Longest common subsequence by the O(mn) table, row by row
    (independent of the implementation's bit-parallel kernels)."""
    row = [0] * (len(b) + 1)
    for ch in a:
        prev = row
        row = [0]
        for j, other in enumerate(b):
            row.append(prev[j] + 1 if ch == other else max(prev[j + 1], row[j]))
    return row[-1]


def oracle_title(a: str, b: str) -> float:
    """Best window score by exhaustive enumeration."""
    na, nb = normalize(a), normalize(b)
    if not na and not nb:
        return 1.0
    if not na or not nb:
        return 0.0
    short, long = (na, nb) if len(na) <= len(nb) else (nb, na)
    n = len(short)
    return max(oracle_lcs(short, long[i : i + n]) / n for i in range(len(long) - n + 1))


def oracle_author(gen: list[str], cand: list[str], et_al: bool = False) -> float:
    """Mean over generated tokens of the best pairwise LCS ratio."""

    def toks(names):
        out = set()
        for name in names:
            out |= set(normalize(name).replace(".", " ").replace("-", " ").split())
        return sorted(out)

    def ratio(x, y):
        return 2 * oracle_lcs(x, y) / (len(x) + len(y))

    if et_al:
        gen, cand = gen[:1], cand[:1]
    g, c = toks(gen), toks(cand)
    if not g or not c:
        return 0.0
    return sum(max(ratio(t, u) for u in c) for t in g) / len(g)


def oracle_search(papers: list[dict], query: str, limit: int) -> list[dict]:
    """Fixture title search by a full scan: set Jaccard, ties by id."""
    query_tokens = set(tokens(query))
    if not query_tokens:
        return []
    scored = []
    for rec in papers:
        rec_tokens = set(tokens(rec.get("title", "")))
        if rec_tokens & query_tokens:
            jaccard = len(rec_tokens & query_tokens) / len(rec_tokens | query_tokens)
            scored.append((-jaccard, rec["index_id"], rec))
    scored.sort(key=lambda item: item[:2])
    return [rec for _, _, rec in scored[:limit]]


def oracle_longest_common_substring(a: str, b: str) -> int:
    best = 0
    for i in range(len(a)):
        for j in range(i + 1, len(a) + 1):
            if a[i:j] in b:
                best = max(best, j - i)
    return best


# ---------------------------------------------------------------------------
# Title similarity
# ---------------------------------------------------------------------------


def test_title_identity():
    assert title_similarity("Attention is all you need", "Attention is all you need") == 1.0


def test_title_terminal_punctuation_normalized():
    assert title_similarity("Attention is all you need", "Attention is all you need.") == 1.0


def test_title_containment_scores_one():
    assert title_similarity("deep learning", "A deep learning survey") == 1.0


def test_title_symmetry():
    a, b = "Robust graph learning", "Learning robust graphs at scale"
    assert title_similarity(a, b) == title_similarity(b, a)


def test_title_matches_window_oracle_on_random_strings():
    # short sides of 1-40 characters against long sides of up to 160, so
    # the packed windows span a few to thousands of bits
    rng = random.Random(4242)
    alphabet = "abcdef "
    for _ in range(200):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40))).strip() or "a"
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 160))).strip() or "b"
        assert title_similarity(a, b) == oracle_title(a, b)


# Accents, ligatures, dashes, quotes, CJK and punctuation that normalize
# folds, keeps or strips.
NON_ASCII = "abcé É ßæøł–—’“.,;-中文字日本語한국어αβγ"


def sized_text(alphabet: str, longest: int):
    # draw the length first: plain st.text mostly yields short strings,
    # and the kernels' lanes cross 30-bit digits and 64- and 128-bit words
    return st.integers(0, longest).flatmap(
        lambda n: st.text(alphabet, min_size=n, max_size=n)
    )


@settings(deadline=None, max_examples=40)
@given(pattern=sized_text("abcd", 160), text=sized_text("abcde", 160))
@example(pattern="ab" * 32, text="ba" * 40)
@example(pattern="abcd" * 16 + "a", text="dcba" * 20)
@example(pattern="abc" * 43, text="cab" * 50)
@example(pattern="a" * 129, text="a" * 64 + "b" + "a" * 70)
def test_bit_lcs_matches_oracle(pattern, text):
    # each string is a lane beside the other, so a carry out of either
    # lane would show in its neighbour
    lcs = oracle_lcs(pattern, text)
    assert _lane_lcs([pattern, text], [text, pattern]) == [
        [lcs, len(text)],
        [len(pattern), lcs],
    ]


# k windows of an n-character short side take k * (n + 1) bits; the
# examples put that total at or just past 30, 60, 64, 96 and 128 bits
@settings(deadline=None, max_examples=80)
@given(
    a=st.one_of(sized_text(NON_ASCII, 40), st.text(max_size=12)),
    b=st.one_of(sized_text(NON_ASCII, 160), st.text(max_size=12)),
)
@example(a="", b="")
@example(a="", b="中文")
@example(a="Économie", b="economie.")
@example(a="Straße—ß", b="strasse-ss")
@example(a="abcab", b="bacbacbca")  # 5 windows of 6 bits: 30
@example(a="abcab", b="bacbacbcab")  # 36
@example(a="ab", b="bbbbbaaaaaa")  # 10 windows of 3 bits: 30
@example(a="ab", b="bbbbbbaaaaaa")  # 33
@example(a="abcdabc", b="dcbadcbadcbadc")  # 8 of 8: 64
@example(a="abcdabc", b="dcbadcbadcbadcb")  # 72
@example(a="ab" * 15 + "c", b="ba" * 16 + "c")  # 3 of 32: 96
@example(a="ab" * 15 + "c", b="ba" * 17)  # 4 of 32: 128
@example(a="abc" * 9 + "ab", b="cba" * 10)  # 2 of 30: 60
@example(a="abcde" * 3, b="edcba" * 4 + "ab")  # 8 of 16: 128
@example(a="abcde" * 3, b="edcba" * 4 + "abc")  # 144
@example(a="abcdef" * 6 + "abcd", b="fedcba" * 26 + "fedc")  # 121 of 41
def test_title_matches_window_oracle_on_non_ascii(a, b):
    assert title_similarity(a, b) == oracle_title(a, b)


# equal lengths leave one window, which runs the single-lane loop; the
# examples put the lane at or just past 30, 60, 64 and 128 bits
@settings(deadline=None, max_examples=80)
@given(
    pair=st.integers(1, 160).flatmap(
        lambda n: st.tuples(
            st.text("abcd", min_size=n, max_size=n), st.text("abcde", min_size=n, max_size=n)
        )
    )
)
@example(pair=("ab" * 15, "ba" * 15))
@example(pair=("abc" * 10 + "a", "cba" * 10 + "b"))
@example(pair=("abcd" * 15, "dcba" * 15))
@example(pair=("ab" * 32, "ba" * 32))
@example(pair=("a" * 64 + "b", "b" + "a" * 64))
@example(pair=("abcd" * 32, "dcba" * 32))
@example(pair=("abcd" * 32 + "a", "dcba" * 32 + "e"))
def test_title_of_equal_lengths_matches_the_textbook_lcs(pair):
    a, b = pair
    assert title_similarity(a, b) == oracle_lcs(a, b) / len(a)


def test_title_disjoint_alphabets_equal_substring_oracle():
    rng = random.Random(99)
    for _ in range(50):
        a = "".join(rng.choice("abcde") for _ in range(rng.randint(1, 30)))
        b = "".join(rng.choice("vwxyz") for _ in range(rng.randint(1, 30)))
        lcs_str = oracle_longest_common_substring(normalize(a), normalize(b))
        ratio = lcs_str / min(len(normalize(a)), len(normalize(b)))
        assert title_similarity(a, b) == ratio == 0.0


def test_title_empty_inputs():
    assert title_similarity("", "") == 1.0
    assert title_similarity("", "something") == 0.0


# ---------------------------------------------------------------------------
# Author similarity
# ---------------------------------------------------------------------------


def test_author_identity():
    authors = ["Grace Hopper", "Alan Turing"]
    assert author_similarity(authors, list(authors)) == 1.0


def test_author_initial_vs_full_golden_value():
    # tokens {j, smith} vs {john, smith}: j->john 2*1/(1+4)=0.4, smith->1.0
    score = author_similarity(["J. Smith"], ["John Smith"])
    assert score == pytest.approx(0.7)


def test_author_token_oracle_on_fixture():
    generated = [["J. Smith"], ["Ada Lovelace", "C. Babbage"], ["Yann LeCun"]]
    candidates = [["John Smith"], ["Ada Lovelace", "Charles Babbage"], ["Y. LeCun", "L. Bottou"]]
    for gen, cand in zip(generated, candidates):
        assert author_similarity(gen, cand) == pytest.approx(oracle_author(gen, cand))


# Letters the token regex keeps (after folding), and the "." and "-" that
# the oracle splits on; words of up to 90 letters, so a candidate token
# can fill more than a 64-bit word on its own
AUTHOR_WORD = st.one_of(sized_text("abcdeAé", 8), sized_text("abcdeAéß.-", 90))
AUTHOR_NAMES = st.lists(
    st.lists(AUTHOR_WORD, min_size=1, max_size=3).map(" ".join), min_size=1, max_size=6
)


@settings(deadline=None, max_examples=60)
@given(gen=AUTHOR_NAMES, cand=AUTHOR_NAMES, et_al=st.booleans())
@example(gen=["a" * 70 + "b"], cand=["b" + "a" * 70, "ab"], et_al=False)
@example(gen=["Ada Lovelace", "C. Babbage"], cand=["Ada Lovelace", "Charles Babbage"], et_al=True)
@example(gen=["e d c b a"] * 2, cand=["a b c d e", "ab-cd.e"], et_al=False)
@example(gen=["-"], cand=["abc"], et_al=False)
def test_author_matches_token_oracle(gen, cand, et_al):
    # the same integer LCS lengths and the same float expression in the
    # same order, so the scores are equal, not just close
    assert author_similarity(gen, cand, et_al) == oracle_author(gen, cand, et_al)


def test_author_et_al_compares_first_author_only():
    full = author_similarity(["Jane Doe"], ["Jane Doe"])
    truncated = author_similarity(
        ["Jane Doe"], ["Jane Doe", "Someone Unrelated", "Another Person"], generated_et_al=True
    )
    assert truncated == full == 1.0


def test_author_requires_both_sides():
    with pytest.raises(ValueError):
        author_similarity([], ["A"])
    with pytest.raises(ValueError):
        author_similarity(["A"], [])


# ---------------------------------------------------------------------------
# Existence verdicts
# ---------------------------------------------------------------------------


def _cand(index_id, title, author):
    return MatchCandidate(index_id=index_id, title_score=title, author_score=author)


THRESHOLDS = Thresholds(0.9, 0.6)


def test_decide_perfect_candidate_exists():
    verdict = decide_existence([_cand("p1", 1.0, 1.0)], THRESHOLDS)
    assert verdict.exists and verdict.matched_index_id == "p1"
    assert verdict.thresholds_used == (0.9, 0.6)


def test_decide_empty_candidates():
    verdict = decide_existence([], THRESHOLDS)
    assert not verdict.exists and verdict.matched_index_id is None


def test_decide_straddling_candidates_picks_qualifier():
    candidates = [_cand("low", 0.95, 0.4), _cand("high", 0.92, 0.8)]
    verdict = decide_existence(candidates, THRESHOLDS)
    assert verdict.exists and verdict.matched_index_id == "high"
    # input order must not matter
    verdict_rev = decide_existence(list(reversed(candidates)), THRESHOLDS)
    assert verdict_rev.matched_index_id == "high"


def test_decide_tie_breaks_are_order_invariant():
    rng = random.Random(7)
    scores = [round(rng.random(), 2) for _ in range(6)]
    candidates = [
        _cand(f"p{i}", scores[i % len(scores)], scores[(i + 1) % len(scores)]) for i in range(6)
    ]
    baseline = decide_existence(candidates, THRESHOLDS)
    for _ in range(10):
        rng.shuffle(candidates)
        verdict = decide_existence(candidates, THRESHOLDS)
        assert (verdict.exists, verdict.matched_index_id) == (
            baseline.exists,
            baseline.matched_index_id,
        )


def test_decide_monotone_in_thresholds():
    rng = random.Random(13)
    for _ in range(200):
        candidates = [
            _cand(f"p{i}", round(rng.random(), 2), round(rng.random(), 2))
            for i in range(rng.randint(0, 4))
        ]
        t1 = Thresholds(round(rng.random(), 2), round(rng.random(), 2))
        t2 = Thresholds(
            min(1.0, t1.title_threshold + rng.random() * 0.5),
            min(1.0, t1.author_threshold + rng.random() * 0.5),
        )
        low = decide_existence(candidates, t1)
        high = decide_existence(candidates, t2)
        if high.exists:
            assert low.exists


# ---------------------------------------------------------------------------
# Candidate search against a fixture index
# ---------------------------------------------------------------------------


@pytest.fixture()
def scholar(tmp_path):
    papers = [
        {"index_id": "p1", "title": "Spectral Methods for Graph Clustering", "authors": ["A. One"]},
        {"index_id": "p2", "title": "Graph Clustering with Spectral Tools", "authors": ["B. Two"]},
        {"index_id": "p3", "title": "Spectral Graph Clustering Revisited", "authors": ["C. Three"]},
        {"index_id": "p4", "title": "Clustering Graphs by Spectra", "authors": ["D. Four"]},
        {"index_id": "p5", "title": "A Spectral View of Graph Clustering", "authors": ["E. Five"]},
        {"index_id": "p6", "title": "Unrelated Botany Field Guide", "authors": ["F. Six"]},
    ]
    papers_dir = tmp_path / "scholar" / "papers"
    papers_dir.mkdir(parents=True)
    for rec in papers:
        (papers_dir / f"{rec['index_id']}.json").write_text(json.dumps(rec))
    return FixtureIndexClient(tmp_path)


def test_search_exact_title_first_with_score_one(scholar):
    candidates = search_candidates(
        scholar, "Spectral Methods for Graph Clustering", ["A. One"], limit=3
    )
    assert candidates[0].index_id == "p1"
    assert candidates[0].title_score == 1.0


def test_search_gibberish_returns_empty(scholar):
    assert search_candidates(scholar, "zqx jkwv pmtr", ["Nobody"], limit=3) == []


def test_search_caps_at_three(scholar):
    candidates = search_candidates(scholar, "spectral graph clustering", ["X. Y"], limit=3)
    assert len(candidates) == 3


# A small vocabulary, with case and plural variants, makes Jaccard ties
# common; "zzz" and "qqq" appear in queries only.
VOCAB = ["graph", "Graph", "graphs", "spectral", "learning", "deep", "of", "the", "é"]
vocab_titles = st.lists(st.sampled_from(VOCAB), max_size=5).map(" ".join)


@settings(deadline=None, max_examples=60)
@given(
    index=st.lists(st.one_of(vocab_titles, st.none()), max_size=25),
    ids=st.randoms(use_true_random=False),
    queries=st.lists(
        st.lists(st.sampled_from([*VOCAB, "zzz", "qqq"]), max_size=4).map(" ".join),
        min_size=1,
        max_size=6,
    ),
    limit=st.sampled_from([0, 1, 3, 10, 30]),
)
def test_fixture_search_matches_full_scan(index, ids, queries, limit):
    # files load in name order and the ids are shuffled against it, so a
    # tie broken by load order instead of by id shows; a None title is a
    # record without one
    names = [f"p{i:03d}" for i in range(len(index))]
    ids.shuffle(names)
    papers = [
        {"index_id": index_id} if title is None else {"index_id": index_id, "title": title}
        for index_id, title in zip(names, index)
    ]
    with tempfile.TemporaryDirectory() as root:
        papers_dir = Path(root) / "scholar" / "papers"
        papers_dir.mkdir(parents=True)
        for position, rec in enumerate(papers):
            (papers_dir / f"{position:03d}.json").write_text(json.dumps(rec))
        client = FixtureIndexClient(root)
        for query in queries:
            assert client.search_title(query, limit=limit) == oracle_search(papers, query, limit)


PAPER_IDS = ["p0", "p1", "p2", "p3", "p4"]


@st.composite
def paper_files(draw):
    """Paper file bytes in load order: ids from a small pool, so some
    repeat; titles absent, null or drawn from VOCAB; UTF-8, UTF-8 with a
    BOM or UTF-16; now and then a file cut short."""
    files = []
    for position in range(draw(st.integers(0, 10))):
        rec = {"index_id": draw(st.sampled_from(PAPER_IDS)), "year": 2000 + position}
        title = draw(st.sampled_from(["absent", "null", "text"]))
        if title != "absent":
            rec["title"] = draw(vocab_titles) if title == "text" else None
        text = json.dumps(rec, ensure_ascii=draw(st.booleans()))
        data = text.encode(draw(st.sampled_from(["utf-8", "utf-8-sig", "utf-16"])))
        if draw(st.integers(0, 15)) == 0:
            data = data[: draw(st.integers(0, len(data) - 1))]
        files.append(data)
    return files


def reference_index(files: list[bytes]) -> dict[str, dict]:
    """The fixture papers by ``json.loads`` per file, the later file
    winning a repeated id."""
    papers = {}
    for data in files:
        rec = json.loads(data)
        papers[rec["index_id"]] = rec
    return papers


@settings(deadline=None, max_examples=80)
@given(
    files=paper_files(),
    queries=st.lists(
        st.lists(st.sampled_from([*VOCAB, "zzz"]), min_size=1, max_size=4).map(" ".join),
        min_size=1,
        max_size=4,
    ),
    limit=st.sampled_from([0, 1, 3, 10]),
    search_first=st.booleans(),
)
def test_fixture_index_matches_json_loads_per_file(files, queries, limit, search_first):
    try:
        papers, expected_error = reference_index(files), None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        papers, expected_error = None, exc
    with tempfile.TemporaryDirectory() as root:
        papers_dir = Path(root) / "scholar" / "papers"
        papers_dir.mkdir(parents=True)
        for position, data in enumerate(files):
            (papers_dir / f"{position:03d}.json").write_bytes(data)
        client = FixtureIndexClient(root)
        if expected_error is not None:
            with pytest.raises(type(expected_error)) as err:
                if search_first:
                    client.search_title(queries[0], limit)
                else:
                    client.get_paper(PAPER_IDS[0])
            assert str(err.value) == str(expected_error)
            return
        if search_first:
            assert client.search_title(queries[0], limit) == oracle_search(
                list(papers.values()), queries[0], limit
            )
        for index_id in [*PAPER_IDS, "missing"]:
            assert client.get_paper(index_id) == papers.get(index_id)
        for query in queries:
            assert client.search_title(query, limit) == oracle_search(
                list(papers.values()), query, limit
            )
        for index_id in papers:
            # each call decodes afresh: a caller's edit reaches no other call
            client.get_paper(index_id).clear()
            assert client.get_paper(index_id) == papers[index_id]


def test_search_requires_title():
    with pytest.raises(ValueError):
        search_candidates(None, "   ", ["A"], limit=3)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def _separable_pairs():
    pairs = []
    for i in range(6):
        pairs.append(
            LabelledPair(
                generated_title="Exact Same Title Here",
                generated_authors=["Alice Alpha"],
                candidate_id=f"t{i}",
                candidate_title="Exact Same Title Here",
                candidate_authors=["Alice Alpha"],
                label=True,
            )
        )
    for i in range(6):
        pairs.append(
            LabelledPair(
                generated_title="Exact Same Title Here",
                generated_authors=["Alice Alpha"],
                candidate_id=f"f{i}",
                candidate_title="Utterly Different Words",
                candidate_authors=["Bob Beta"],
                label=False,
            )
        )
    return pairs


def test_calibrate_separable_set_is_perfect():
    report = calibrate(_separable_pairs())
    assert report.accuracy == 1.0
    assert report.missed_true == 0 and report.accepted_false == 0


def test_calibrate_single_class_errors():
    pairs = [p for p in _separable_pairs() if p.label]
    with pytest.raises(CalibrationError):
        calibrate(pairs)


def test_calibrate_empty_errors():
    with pytest.raises(CalibrationError):
        calibrate([])


def test_calibrated_thresholds_reproduce_verdicts():
    pairs = bundled_labelled_pairs()
    report = calibrate(pairs)
    for pair, predicted in zip(pairs, report.predictions):
        title, author = pair.scores()
        verdict = decide_existence(
            [MatchCandidate(pair.candidate_id, title, author)], report.thresholds
        )
        assert verdict.exists == predicted


def test_author_cell_marks_truncation_only_by_a_whole_et_al_entry():
    assert _parse_authors_cell("Janet Alvarez; Bo Li") == (["Janet Alvarez", "Bo Li"], False)
    assert _parse_authors_cell("Sandro Etalle;  ; Bo Li") == (["Sandro Etalle", "Bo Li"], False)
    assert _parse_authors_cell("Ian Goodfellow; et al.") == (["Ian Goodfellow"], True)
    assert _parse_authors_cell("Tian Li; Et Al") == (["Tian Li"], True)


def test_bundled_fixture_meets_protocol_bounds():
    pairs = bundled_labelled_pairs()
    assert len(pairs) == 100
    report = calibrate(pairs)
    assert report.accuracy >= 0.95
    assert report.missed_true <= 5
    assert report.accepted_false <= 5


def test_default_thresholds_come_from_bundled_calibration():
    thresholds = default_thresholds()
    report = calibrate(bundled_labelled_pairs())
    assert thresholds.title_threshold == pytest.approx(report.thresholds.title_threshold)
    assert thresholds.author_threshold == pytest.approx(report.thresholds.author_threshold)
