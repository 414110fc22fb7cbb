"""Corpus harvesting, resolution, enrichment, and the client layer."""

import json
import os
import re
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citebias.clients import (
    CachedScholarClient,
    FixtureIndexClient,
    JsonCache,
    atomic_write_text,
    dump_json,
    to_json,
)
from citebias.corpus import (
    CandidateStub,
    EnrichedRecord,
    Venue,
    VenueTable,
    enrich_reference,
    filter_candidates,
    harvest_candidates,
    resolve_paper,
)
from citebias.errors import Exclusion, IndexParseError
from citebias.live import TokenBucket

# ---------------------------------------------------------------------------
# Fixture index
# ---------------------------------------------------------------------------

PREPRINT_RECORDS = [
    {
        "preprint_id": "2203.00001",
        "title": "Robust Widgets at Scale",
        "journal_ref": "NeurIPS 2022",
        "posted_date": "2022-03-05",
        "categories": ["cs.LG"],
        "authors": ["A. One"],
        "license": "CC-BY-4.0",
    },
    {
        "preprint_id": "2204.00002",
        "title": "Sparse Gadget Training",
        "journal_ref": "ICML 2022 poster",
        "posted_date": "2022-04-01",
        "categories": ["cs.LG"],
        "authors": ["B. Two"],
    },
    {
        "preprint_id": "2205.00003",
        "title": "A Journal Article",
        "journal_ref": "Journal of Obscure Results 12(3)",
        "posted_date": "2022-05-01",
        "categories": ["cs.LG"],
        "authors": ["C. Three"],
    },
    {
        "preprint_id": "2206.00004",
        "title": "Vision Stuff",
        "journal_ref": "CVPR 2022",
        "posted_date": "2022-06-01",
        "categories": ["cs.CV", "cs.LG"],
        "authors": ["D. Four"],
    },
    {
        "preprint_id": "2201.00005",
        "title": "Too Early",
        "journal_ref": "NeurIPS 2021",
        "posted_date": "2022-01-15",
        "categories": ["cs.LG"],
        "authors": ["E. Five"],
    },
]

SCHOLAR_PAPERS = [
    {
        "index_id": "s_widgets",
        "title": "Robust Widgets at Scale",
        "authors": ["A. One"],
        "venue": "NeurIPS",
        "year": 2022,
        "citation_count": 12,
        "influential_citation_count": 2,
        "reference_count": 30,
        "references": ["s_ref1", "s_ref2"],
    },
    {
        "index_id": "s_ref1",
        "title": "Foundations of Widgetry",
        "authors": ["W. Founder"],
        "venue": "ICML",
        "year": 2015,
        "citation_count": 900,
        "influential_citation_count": 90,
        "reference_count": 25,
        "references": ["s_ref2", "s_ref3", "s_widgets"],
    },
    {
        "index_id": "s_ref2",
        "title": "Zero Citations so Far",
        "authors": ["N. Ewcomer"],
        "venue": "arXiv preprint arXiv:2301.00001",
        "year": 2023,
        "citation_count": 0,
        "influential_citation_count": 0,
        "reference_count": 10,
        "references": [],
    },
    {
        "index_id": "s_dup_a",
        "title": "An Ambiguous Name",
        "authors": ["X"],
        "venue": "ICLR",
        "year": 2020,
        "citation_count": 1,
        "influential_citation_count": 0,
        "reference_count": 5,
        "references": [],
    },
    {
        "index_id": "s_dup_b",
        "title": "An Ambiguous Name",
        "authors": ["Y"],
        "venue": "AAAI",
        "year": 2021,
        "citation_count": 2,
        "influential_citation_count": 0,
        "reference_count": 6,
        "references": [],
    },
]


@pytest.fixture()
def index_dir(tmp_path):
    preprint = tmp_path / "index" / "preprint"
    preprint.mkdir(parents=True)
    (preprint / "records.json").write_text(json.dumps(PREPRINT_RECORDS))
    papers = tmp_path / "index" / "scholar" / "papers"
    papers.mkdir(parents=True)
    for rec in SCHOLAR_PAPERS:
        (papers / f"{rec['index_id']}.json").write_text(json.dumps(rec))
    return tmp_path / "index"


@pytest.fixture()
def fixture_client(index_dir):
    return FixtureIndexClient(index_dir)


@pytest.fixture()
def venue_table():
    return VenueTable.default()


def test_lookup_during_the_paper_load_waits_for_the_record(fixture_client, monkeypatch):
    # a lookup from a second thread while the first loads the papers waits
    # for the whole index; seeing the id missing would let the cached
    # client store a permanent not-found entry
    import citebias.clients as clients_mod

    loading, release = threading.Event(), threading.Event()
    read_tree = clients_mod.read_tree

    def held_read_tree(root):
        loading.set()
        release.wait(timeout=10)
        return read_tree(root)

    monkeypatch.setattr(clients_mod, "read_tree", held_read_tree)
    found = {}

    def lookup(name):
        found[name] = fixture_client.get_paper("s_widgets")

    first = threading.Thread(target=lookup, args=("first",))
    second = threading.Thread(target=lookup, args=("second",))
    first.start()
    assert loading.wait(timeout=10)
    second.start()
    second.join(timeout=0.2)
    assert second.is_alive()  # held until the load is whole
    release.set()
    for thread in (first, second):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert found["second"] == found["first"] == SCHOLAR_PAPERS[0]


def test_first_search_from_four_threads_sees_the_whole_title_index(index_dir, monkeypatch):
    # four threads make the client's first search at once, while the papers
    # load slowly: each waits for the whole title index, and none builds
    # one from the titles the first build dropped
    import citebias.clients as clients_mod

    queries = ["Widgets", "An Ambiguous Name", "Zero Citations so Far"]
    expected = [FixtureIndexClient(index_dir).search_title(q) for q in queries]
    assert all(expected)
    read_tree = clients_mod.read_tree

    def slow_read_tree(root):
        time.sleep(0.05)  # the other threads reach the lock meanwhile
        return read_tree(root)

    monkeypatch.setattr(clients_mod, "read_tree", slow_read_tree)
    client = FixtureIndexClient(index_dir)
    gate = threading.Barrier(4, timeout=30)
    found = {}

    def search(thread):
        gate.wait()
        found[thread] = [client.search_title(q) for q in queries]

    threads = [threading.Thread(target=search, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert found == {t: expected for t in range(4)}
    assert client._titles == {}


@pytest.mark.parametrize("given_files", [False, True], ids=["reads", "given-files"])
def test_client_reads_its_directory_once_and_a_lookup_tokenizes_no_title(
    index_dir, monkeypatch, given_files
):
    import citebias.clients as clients_mod

    # one pass loads both parts, so the directory is read at most once,
    # and only a search builds the title index
    read_tree, tokens = clients_mod.read_tree, clients_mod.tokens
    files = read_tree(index_dir) if given_files else None
    reads, tokenized = [], []

    def counted_read_tree(root):
        reads.append(root)
        return read_tree(root)

    def counted_tokens(text):
        tokenized.append(text)
        return tokens(text)

    monkeypatch.setattr(clients_mod, "read_tree", counted_read_tree)
    monkeypatch.setattr(clients_mod, "tokens", counted_tokens)
    client = FixtureIndexClient(index_dir, files)
    assert client.get_paper("s_widgets") == SCHOLAR_PAPERS[0]
    assert client._title_index is None and tokenized == []
    assert client.list_records(*WINDOW, "cs.LG") == PREPRINT_RECORDS[:4]
    assert client.search_title("Widgets")[0] == SCHOLAR_PAPERS[0]
    assert client.get_paper("s_missing") is None
    assert reads == ([] if given_files else [index_dir])


@pytest.mark.parametrize(
    "record",
    [
        ["index_id", "s_bad"],
        {"title": "No Identifier"},
        {"index_id": "s_bad", "title": 5},
    ],
    ids=["not-an-object", "no-index-id", "title-not-a-string"],
)
def test_malformed_paper_is_an_index_parse_error_naming_its_file(index_dir, record):
    (index_dir / "scholar" / "papers" / "zz_bad.json").write_text(json.dumps(record))
    client = FixtureIndexClient(index_dir)
    # the second call fails too: a load that failed leaves no empty index
    # behind, whose misses a cached client would store as not-found
    for call in (lambda: client.get_paper("s_widgets"), lambda: client.search_title("Widgets")):
        with pytest.raises(IndexParseError, match="scholar/papers/zz_bad.json") as err:
            call()
        assert err.value.record == record


def test_paper_index_holds_little_beyond_its_file_bytes(tmp_path):
    # the client keeps each paper's bytes and title, not its decoded
    # record; the bytes were read before tracing, as run_pipeline reads
    # them for the input digest
    import random
    import tracemalloc

    from citebias.clients import read_tree

    rng = random.Random(7)
    words = [f"w{i}" for i in range(160)]
    papers_dir = tmp_path / "scholar" / "papers"
    papers_dir.mkdir(parents=True)
    for i in range(2000):
        rec = {
            "index_id": f"p{i:04d}",
            "title": " ".join(rng.choices(words, k=6)),
            "authors": [f"A. Author{rng.randrange(500)}", f"B. Author{rng.randrange(500)}"],
            "venue": "NeurIPS",
            "year": 2000 + i % 24,
            "citation_count": rng.randrange(5000),
            "influential_citation_count": rng.randrange(300),
            "reference_count": rng.randrange(5, 60),
            "references": [f"p{rng.randrange(2000):04d}" for _ in range(3)],
        }
        (papers_dir / f"p{i:04d}.json").write_text(dump_json(rec))
    files = read_tree(tmp_path)
    size = sum(len(data) for _, data in files)
    tracemalloc.start()
    try:
        client = FixtureIndexClient(tmp_path, files)
        assert client.get_paper("p0007")["index_id"] == "p0007"
        assert client.search_title(" ".join(words[:3]), limit=10)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1.5 * size, (held, size)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_space = st.sampled_from([b"", b" ", b"\n", b"\t\r\n ", b"\x0c", b"\xc2\xa0"])


@st.composite
def _record_bytes(draw):
    """JSON documents in the shapes a fixture file may take, good and bad."""
    text = json.dumps(draw(_json_values), ensure_ascii=draw(st.booleans()))
    encoding = draw(st.sampled_from(["utf-8", "utf-8", "utf-8-sig", "utf-16", "utf-16-le",
                                     "utf-32", "utf-32-be"]))
    body = draw(_space) + text.encode(encoding, "surrogatepass") + draw(_space)
    cut = draw(st.integers(0, len(body)))
    insert = draw(st.sampled_from([b"", b"\xed\xa0\x80", b"\x00", b"\xef\xbb\xbf",
                                   b'"\xed\xb0\x80"', b"{}", b"1", b" x", b"\xff"]))
    if draw(st.booleans()):
        body = body[:cut] + insert + body[cut:]
    return body


def _parse_outcome(parse, data):
    try:
        return "value", repr(parse(data))
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None)
@given(_record_bytes() | st.binary(max_size=12))
@example(b"\xef\xbb\xbf{}")
@example(b'"\xed\xa0\x80"')
@example(b"\x00{")
@example(b"{}\x00")
@example(b' {"a": 1}  \n')
@example(b'{"a": 1} {"b": 2}')
@example(b"[1] x")
@example(b"")
@example(b"NaN")
@example(b"  ")
def test_parse_record_is_json_loads(data):
    from citebias.clients import parse_record

    assert _parse_outcome(parse_record, data) == _parse_outcome(json.loads, data)


# ---------------------------------------------------------------------------
# Harvest and filter
# ---------------------------------------------------------------------------

WINDOW = ("2022-03-01", "2023-10-31")
KEYWORDS = ["AAAI", "NeurIPS", "ICLR", "ICML"]


def test_harvest_matches_keywords_and_orders_by_date(fixture_client):
    stubs = harvest_candidates(fixture_client, WINDOW, "cs.LG", KEYWORDS)
    assert [s.preprint_id for s in stubs] == ["2203.00001", "2204.00002"]


def test_harvest_empty_window(fixture_client):
    stubs = harvest_candidates(fixture_client, ("2010-01-01", "2010-01-02"), "cs.LG", KEYWORDS)
    assert stubs == []


def test_harvest_fixture_scan_matches_brute_force(fixture_client):
    stubs = harvest_candidates(fixture_client, WINDOW, "cs.LG", KEYWORDS)
    expected = [
        rec["preprint_id"]
        for rec in sorted(PREPRINT_RECORDS, key=lambda r: (r["posted_date"], r["preprint_id"]))
        if WINDOW[0] <= rec["posted_date"] <= WINDOW[1]
        and "cs.LG" in rec["categories"]
        and any(kw.lower() in rec["journal_ref"].lower() for kw in KEYWORDS)
    ]
    assert [s.preprint_id for s in stubs] == expected == ["2203.00001", "2204.00002"]


def test_harvest_rejects_malformed_window(fixture_client):
    with pytest.raises(ValueError):
        harvest_candidates(fixture_client, ("2023-01-01", "2022-01-01"), "cs.LG", KEYWORDS)
    with pytest.raises(ValueError):
        harvest_candidates(fixture_client, WINDOW, "", KEYWORDS)


def test_harvest_malformed_record_names_it():
    class BrokenIndex:
        def list_records(self, start, end, category):
            return [{"title": "no id or date"}]

    with pytest.raises(IndexParseError) as err:
        harvest_candidates(BrokenIndex(), WINDOW, "cs.LG", KEYWORDS)
    assert err.value.record == {"title": "no id or date"}


def _one_record_client(**fields):
    record = {**PREPRINT_RECORDS[0], **fields}
    return FixtureIndexClient(".", [("preprint/records.json", json.dumps([record]).encode())])


def test_null_journal_ref_reads_as_absent():
    client = _one_record_client(journal_ref=None)
    assert harvest_candidates(client, WINDOW, "cs.LG", KEYWORDS) == []
    assert harvest_candidates(client, WINDOW, "cs.LG", [""])[0].journal_ref == ""


def test_null_license_reads_as_absent():
    stub = CandidateStub.from_record({**PREPRINT_RECORDS[0], "license": None})
    assert stub.license == ""


def test_null_authors_reads_as_absent():
    (stub,) = harvest_candidates(_one_record_client(authors=None), WINDOW, "cs.LG", KEYWORDS)
    assert stub.authors == []


def test_null_categories_reads_as_no_categories():
    client = _one_record_client(categories=None)
    assert client.list_records(*WINDOW, "cs.LG") == []
    assert [rec["preprint_id"] for rec in client.list_records(*WINDOW, "")] == ["2203.00001"]


@pytest.mark.parametrize("records", [{"a": 1}, 2022, None], ids=["object", "number", "null"])
def test_preprint_records_that_are_not_a_list_are_an_error_naming_the_file(index_dir, records):
    (index_dir / "preprint" / "records.json").write_text(json.dumps(records))
    client = FixtureIndexClient(index_dir)
    # the one-pass load fails, for a lookup too, and fails again
    for call in (lambda: client.list_records(*WINDOW, ""), lambda: client.get_paper("s_widgets")):
        for _ in range(2):
            with pytest.raises(IndexParseError, match="^preprint/records.json: not a JSON list$") as err:
                call()
            assert err.value.record == records


def test_absent_preprint_records_fail_only_the_listing(index_dir):
    (index_dir / "preprint" / "records.json").unlink()
    client = FixtureIndexClient(index_dir)
    assert client.get_paper("s_widgets")["index_id"] == "s_widgets"
    path = index_dir / "preprint" / "records.json"
    with pytest.raises(IndexParseError, match=f"^{re.escape(str(path))}: no such file$"):
        client.list_records(*WINDOW, "")


@pytest.mark.parametrize(
    "fields",
    [
        {"journal_ref": 2022},
        {"license": ["CC-BY-4.0"]},
        {"authors": "A. One"},
        {"authors": ["A. One", None]},
        {"categories": "cs.LG"},
    ],
    ids=["int-journal-ref", "list-license", "string-authors", "null-author", "string-categories"],
)
def test_optional_preprint_field_of_another_type_names_the_record(fields):
    record = {**PREPRINT_RECORDS[0], **fields}
    with pytest.raises(IndexParseError, match="malformed preprint record") as err:
        harvest_candidates(_one_record_client(**fields), WINDOW, "cs.LG", KEYWORDS)
    assert err.value.record == record
    assert repr(record) in str(err.value)


def _stub(i, journal_ref):
    return CandidateStub(
        preprint_id=f"p{i}", title=f"t{i}", journal_ref=journal_ref, posted_date="2022-06-01"
    )


def test_filter_removes_workshop_entries():
    stubs = [_stub(0, "NeurIPS 2023 Workshop on X"), _stub(1, "NeurIPS 2023")]
    kept = filter_candidates(stubs, ["workshop", "2021"])
    assert [s.preprint_id for s in kept] == ["p1"]


def test_filter_empty_blacklist_keeps_everything():
    stubs = [_stub(i, "ICML 2022") for i in range(4)]
    assert filter_candidates(stubs, []) == stubs


def test_filter_counts_on_fixture_of_ten():
    stubs = [
        _stub(i, "ICLR 2021" if i in (2, 5, 8) else "ICLR 2022") for i in range(10)
    ]
    kept = filter_candidates(stubs, ["2021"])
    assert len(kept) == 7
    assert all("2021" not in s.journal_ref for s in kept)


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


def test_resolve_exact_title_hit(fixture_client, venue_table):
    stub = _stub(0, "NeurIPS 2022")
    stub.title = "Robust Widgets at Scale"
    record = resolve_paper(stub, fixture_client, venue_table)
    assert record.index_id == "s_widgets"
    assert record.reference_ids == ["s_ref1", "s_ref2"]
    assert record.venue.canonical == "NeurIPS"


def test_resolve_absent_title_not_found(fixture_client, venue_table):
    stub = _stub(0, "ICML 2022")
    stub.title = "This Paper Does Not Exist Anywhere"
    result = resolve_paper(stub, fixture_client, venue_table)
    assert isinstance(result, Exclusion) and result.code == "index-not-found"


@pytest.mark.parametrize("title", ["", "  ", "\t\n"])
def test_resolve_blank_title_not_found_without_a_search(venue_table, title):
    class NoSearch:
        def search_title(self, query, limit=10):
            raise AssertionError(f"searched for {query!r}")

    stub = _stub(0, "ICML 2022")
    stub.title = title
    result = resolve_paper(stub, NoSearch(), venue_table)
    assert result == Exclusion("index-not-found", "blank title")


def test_resolve_duplicate_titles_ambiguous(fixture_client, venue_table):
    stub = _stub(0, "ICLR 2020")
    stub.title = "An Ambiguous Name"
    result = resolve_paper(stub, fixture_client, venue_table)
    assert result == Exclusion(
        "index-ambiguous", "title 'An Ambiguous Name' matches 2 index records: s_dup_a, s_dup_b"
    )


def test_resolve_fuzzy_threshold_catches_near_titles(fixture_client, venue_table):
    stub = _stub(0, "NeurIPS 2022")
    stub.title = "Robust Widgets at Scale."  # trailing punctuation normalizes away anyway
    record = resolve_paper(stub, fixture_client, venue_table)
    assert record.index_id == "s_widgets"
    stub.title = "Robust Widgets at Very Large Scale"
    assert isinstance(resolve_paper(stub, fixture_client, venue_table), Exclusion)
    record = resolve_paper(stub, fixture_client, venue_table, fuzzy_threshold=0.7)
    assert record.index_id == "s_widgets"


def test_harvest_resolve_twice_is_byte_identical(fixture_client, venue_table):
    def run():
        stubs = harvest_candidates(fixture_client, WINDOW, "cs.LG", KEYWORDS)
        stubs = filter_candidates(stubs, ["workshop"])
        out = []
        for stub in stubs:
            resolved = resolve_paper(stub, fixture_client, venue_table)
            if not isinstance(resolved, Exclusion):
                out.append(to_json(resolved))
        return dump_json(out)

    assert run() == run()


# ---------------------------------------------------------------------------
# Enrichment and the cache contract
# ---------------------------------------------------------------------------


class CountingScholar:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def search_title(self, query, limit=10):
        self.calls += 1
        return self.inner.search_title(query, limit)

    def get_paper(self, index_id):
        self.calls += 1
        return self.inner.get_paper(index_id)


def test_enrich_populates_outgoing_ids(fixture_client, tmp_path):
    cache = JsonCache(tmp_path / "cache", "scholar")
    record = enrich_reference("s_ref1", CachedScholarClient(fixture_client, cache))
    assert record.outgoing_reference_ids == ["s_ref2", "s_ref3", "s_widgets"]
    assert record.citation_count == 900


def test_enrich_zero_citations_is_zero_not_unknown(fixture_client, tmp_path):
    cache = JsonCache(tmp_path / "cache", "scholar")
    record = enrich_reference("s_ref2", CachedScholarClient(fixture_client, cache))
    assert record.citation_count == 0
    assert record.influential_citation_count == 0


def test_enrich_second_call_hits_cache_only(fixture_client, tmp_path):
    cache = JsonCache(tmp_path / "cache", "scholar")
    counting = CountingScholar(fixture_client)
    enrich_reference("s_ref1", CachedScholarClient(counting, cache))
    assert counting.calls == 1
    enrich_reference("s_ref1", CachedScholarClient(counting, cache))
    assert counting.calls == 1  # served from disk


def _log_lines(path):
    """The lines of a cache log, newline included, split on bytes as the
    cache reads them."""
    return path.read_bytes().splitlines(keepends=True)


def test_enrich_not_found_leaves_marker(fixture_client, tmp_path):
    cache = JsonCache(tmp_path / "cache", "scholar")
    counting = CountingScholar(fixture_client)
    result = enrich_reference("s_ghost", CachedScholarClient(counting, cache))
    assert isinstance(result, Exclusion)
    # the marker, read back from disk, prevents a second network call
    reopened = JsonCache(tmp_path / "cache", "scholar")
    result = enrich_reference("s_ghost", CachedScholarClient(counting, reopened))
    assert isinstance(result, Exclusion)
    assert counting.calls == 1
    (line,) = _log_lines(tmp_path / "cache" / "scholar.jsonl")
    marker = json.loads(line)
    assert (marker["id"], marker["status"]) == ("s_ghost", "not_found")


def test_corrupt_cache_entry_recomputed_others_untouched(fixture_client, tmp_path):
    cache = JsonCache(tmp_path / "cache", "scholar")
    enrich_reference("s_ref1", CachedScholarClient(fixture_client, cache))
    enrich_reference("s_ref2", CachedScholarClient(fixture_client, cache))
    log = tmp_path / "cache" / "scholar.jsonl"
    ref1, ref2 = _log_lines(log)
    assert json.loads(ref1)["id"] == "s_ref1"
    log.write_bytes(b"{corrupt json!!\n" + ref2)
    before = log.read_bytes()
    counting = CountingScholar(fixture_client)
    reopened = JsonCache(tmp_path / "cache", "scholar")
    record = enrich_reference("s_ref1", CachedScholarClient(counting, reopened))
    assert isinstance(record, EnrichedRecord) and counting.calls == 1
    enrich_reference("s_ref2", CachedScholarClient(counting, reopened))
    assert counting.calls == 1
    # the recomputed key is one appended line; the rest of the log is as it was
    after = log.read_bytes()
    assert after.startswith(before)
    (appended,) = after[len(before) :].splitlines()
    assert json.loads(appended) == json.loads(ref1)
    assert JsonCache(tmp_path / "cache", "scholar").load("paper", "s_ref1")["status"] == "ok"


def test_cache_refresh_bypasses_reads(fixture_client, tmp_path):
    cache = JsonCache(tmp_path / "cache", "scholar")
    enrich_reference("s_ref1", CachedScholarClient(fixture_client, cache))
    refreshing = JsonCache(tmp_path / "cache", "scholar", refresh=True)
    counting = CountingScholar(fixture_client)
    enrich_reference("s_ref1", CachedScholarClient(counting, refreshing))
    assert counting.calls == 1
    # what the refreshing cache fetched itself it serves again
    enrich_reference("s_ref1", CachedScholarClient(counting, refreshing))
    assert counting.calls == 1


def test_cached_search_avoids_second_call(fixture_client, tmp_path):
    counting = CountingScholar(fixture_client)
    client = CachedScholarClient(counting, JsonCache(tmp_path / "cache", "scholar"))
    first = client.search_title("Robust Widgets at Scale", limit=3)
    second = client.search_title("Robust Widgets at Scale", limit=3)
    assert counting.calls == 1
    assert first == second


def test_old_per_key_cache_tree_is_ignored_and_left_in_place(fixture_client, tmp_path):
    old = tmp_path / "cache" / "scholar" / "s_ref1.json"
    old.parent.mkdir(parents=True)
    envelope = {"schema_version": 1, "endpoint": "paper", "id": "s_ref1", "status": "not_found"}
    old.write_text(dump_json({**envelope, "reason": "id-not-in-index"}))
    before = old.read_bytes()
    counting = CountingScholar(fixture_client)
    cache = JsonCache(tmp_path / "cache", "scholar")
    record = enrich_reference("s_ref1", CachedScholarClient(counting, cache))
    assert isinstance(record, EnrichedRecord)
    assert counting.calls == 1
    assert old.read_bytes() == before
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["scholar", "scholar.jsonl"]


def test_cache_rejects_a_lone_surrogate_without_appending(tmp_path):
    # json.loads accepts "\ud800", which has no UTF-8 encoding
    record = json.loads('{"title": "Broken \\ud800 title"}')
    cache = JsonCache(tmp_path, "scholar")
    cache.store("paper", "good-1", {"title": "Fine"})
    before = Path(cache.path).read_bytes()
    with pytest.raises(IndexParseError, match=r"paper.*'bad-1'"):
        cache.store("paper", "bad-1", record)
    with pytest.raises(IndexParseError, match=r"search.*'q'"):
        cache.store_not_found("search", "q", "reason \ud800")
    assert Path(cache.path).read_bytes() == before
    assert cache.load("paper", "bad-1") is None
    cache.store("paper", "good-2", {"title": "Also fine"})
    reopened = JsonCache(tmp_path, "scholar")
    assert reopened.load("paper", "good-2")["payload"] == {"title": "Also fine"}
    assert len(Path(cache.path).read_bytes().splitlines()) == 2


def test_cache_stores_from_four_threads_lose_no_entry(tmp_path):
    # four threads open one cache at once and append to its log: every
    # entry is in the map and on its own line, and a reopened cache
    # serves each key's last store
    cache = JsonCache(tmp_path, "scholar")
    payload = "x" * 5_000
    errors = []
    gate = threading.Barrier(4, timeout=30)

    def writer(thread):
        try:
            for i in range(100):
                cache.store("paper", f"t{thread}-{i}", [thread, i, payload])
                gate.wait()  # all four store the shared key at once
                cache.store("search", f"shared-{i}", [thread, i])
        except (OSError, threading.BrokenBarrierError) as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    lines = [json.loads(line) for line in (tmp_path / "scholar.jsonl").read_bytes().splitlines()]
    assert len(lines) == 800
    reopened = JsonCache(tmp_path, "scholar")
    for i in range(100):
        for t in range(4):
            assert cache.load("paper", f"t{t}-{i}")["payload"] == [t, i, payload]
            assert reopened.load("paper", f"t{t}-{i}")["payload"] == [t, i, payload]
        # the map and the log agree on which thread stored a shared key last
        last = [e for e in lines if e["id"] == f"shared-{i}"][-1]
        assert cache.load("search", f"shared-{i}") == reopened.load("search", f"shared-{i}") == last


def test_cache_hit_returns_a_fresh_envelope(tmp_path):
    # a caller that changes what a hit gave it changes neither the next
    # hit nor what a stored payload reads back as
    payload = {"index_id": "p1", "authors": ["A. One"], "references": ["p2"]}
    cache = JsonCache(tmp_path, "scholar")
    cache.store("paper", "p1", payload)
    payload["authors"].clear()
    for opened in (cache, JsonCache(tmp_path, "scholar")):
        first = opened.load("paper", "p1")
        first["payload"].clear()
        assert opened.load("paper", "p1")["payload"] == {
            "index_id": "p1", "authors": ["A. One"], "references": ["p2"]
        }


def test_cache_holds_little_beyond_its_log_bytes(tmp_path):
    # the cache keeps each id's last line, not its decoded envelope: after
    # the log is read and one entry served, it holds about the log's size
    import random
    import tracemalloc

    rng = random.Random(11)
    words = [f"w{i}" for i in range(160)]

    def record(i):
        return {
            "index_id": f"p{i:04d}",
            "title": " ".join(rng.choices(words, k=6)),
            "authors": [f"A. Author{rng.randrange(500)}", f"B. Author{rng.randrange(500)}"],
            "venue": "NeurIPS",
            "year": 2000 + i % 24,
            "citation_count": rng.randrange(5000),
            "influential_citation_count": rng.randrange(300),
            "reference_count": rng.randrange(5, 60),
            "references": [f"p{rng.randrange(2000):04d}" for _ in range(3)],
        }

    writer = JsonCache(tmp_path, "scholar")
    for i in range(1500):
        writer.store("paper", f"p{i:04d}", record(i))
    for i in range(300):
        writer.store("search", f"search__q{i}__3", [record(j) for j in range(3)])
    size = os.path.getsize(writer.path)
    tracemalloc.start()
    try:
        cache = JsonCache(tmp_path, "scholar")
        assert cache.load("paper", "p0007")["payload"]["index_id"] == "p0007"
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1.5 * size, (held, size)


# ---------------------------------------------------------------------------
# The cache log against a dict oracle
# ---------------------------------------------------------------------------

CACHE_KEYS = ("a", "b", "search__q__3", "\u00fc")
CACHE_ENDPOINTS = ("paper", "search")
BAD = object()  # a line that does not parse

cache_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
cache_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("store"), st.sampled_from(CACHE_ENDPOINTS), st.sampled_from(CACHE_KEYS),
            cache_payloads,
        ),
        st.tuples(
            st.just("not_found"), st.sampled_from(CACHE_ENDPOINTS), st.sampled_from(CACHE_KEYS),
            st.text(max_size=6),
        ),
        # a new cache on the same log, reading it, or not with refresh=True
        st.tuples(st.just("reopen"), st.booleans()),
        # one line replaced, by bytes picked by the second number
        st.tuples(st.just("corrupt"), st.integers(0, 40), st.integers(0, 3)),
        # a writer dies mid-line: the last line loses its end, then a new cache opens
        st.tuples(st.just("crash"), st.integers(0, 400)),
    ),
    max_size=25,
)


def _parsed(line):
    try:
        return json.loads(line)
    except ValueError:
        return BAD


def _corruption(kind, old):
    """Replacement bytes for a log line: not JSON, JSON that is no
    envelope, an envelope without an id, or the line's envelope under
    another schema version."""
    if kind == 3 and isinstance(old, dict) and "id" in old:
        return json.dumps({**old, "schema_version": 0}).encode()
    return (b"{corrupt", b"[1, 2]", b'{"status": "ok"}', b"{corrupt")[kind]


def _oracle_map(lines):
    """The last parsed envelope per id: what a cache opened on the log holds."""
    return {
        value["id"]: value
        for value in lines
        if isinstance(value, dict) and isinstance(value.get("id"), str)
    }


def _oracle_load(entries, endpoint, key):
    envelope = entries.get(key)
    if (
        envelope is None
        or envelope.get("schema_version") != 1
        or envelope.get("endpoint") != endpoint
        or envelope.get("status") not in ("ok", "not_found")
    ):
        return None
    return envelope


def _split_log(data):
    """The log's lines without their newlines; a last line with no
    newline (a torn one) is kept."""
    lines = data.split(b"\n")
    return lines[:-1] if data.endswith(b"\n") or not data else lines


@settings(max_examples=200, deadline=None)
@given(cache_ops)
def test_cache_log_matches_dict_oracle(ops):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "scholar.jsonl"
        cache = JsonCache(tmp, "scholar")
        lines = []  # the model: each log line parsed, BAD when it does not parse
        entries = {}  # the model of the open cache's map

        def reopen(new_refresh):
            nonlocal cache, entries
            cache = JsonCache(tmp, "scholar", refresh=new_refresh)
            # a refreshing cache serves only what it stored itself
            entries = {} if new_refresh else _oracle_map(lines)

        for op in ops:
            if op[0] in ("store", "not_found"):
                _, endpoint, key, value = op
                if op[0] == "store":
                    got = cache.store(endpoint, key, value)
                    entry = {"status": "ok", "payload": value}
                else:
                    got = cache.store_not_found(endpoint, key, value)
                    entry = {"status": "not_found", "reason": value}
                expected = {"schema_version": 1, "endpoint": endpoint, "id": key, **entry}
                assert got == expected
                lines.append(expected)
                entries[key] = expected
            elif op[0] == "reopen":
                reopen(op[1])
            elif op[0] == "corrupt" and lines:
                _, index, kind = op
                index %= len(lines)
                data = log.read_bytes()
                raw = _split_log(data)
                raw[index] = _corruption(kind, lines[index])
                log.write_bytes(b"\n".join(raw) + (b"\n" if data.endswith(b"\n") else b""))
                lines[index] = _parsed(raw[index])
            elif op[0] == "crash" and lines:
                raw = _split_log(log.read_bytes())
                if len(raw[-1]) > 1:
                    raw[-1] = raw[-1][: 1 + op[1] % (len(raw[-1]) - 1)]
                    log.write_bytes(b"\n".join(raw))
                    lines[-1] = _parsed(raw[-1])
                    reopen(False)

            on_disk = _split_log(log.read_bytes()) if log.exists() else []
            assert [_parsed(line) for line in on_disk] == lines
            for endpoint in CACHE_ENDPOINTS:
                for key in CACHE_KEYS:
                    assert cache.load(endpoint, key) == _oracle_load(entries, endpoint, key)
        reopened = JsonCache(tmp, "scholar")
        final = _oracle_map(lines)
        for endpoint in CACHE_ENDPOINTS:
            for key in CACHE_KEYS:
                assert reopened.load(endpoint, key) == _oracle_load(final, endpoint, key)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "deep" / "file.json"
    atomic_write_text(target, "contents")
    assert target.read_text() == "contents"
    assert [p.name for p in target.parent.iterdir()] == ["file.json"]


def test_atomic_write_of_invalid_unicode_leaves_nothing_behind(tmp_path):
    # a lone surrogate cannot be encoded: no temp file is created, and the
    # file already there is left as it was
    target = tmp_path / "out.txt"
    target.write_text("old")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "bad \ud800 text")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert target.read_text() == "old"


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path):
    target = tmp_path / "taken"
    (target / "inner").mkdir(parents=True)  # a non-empty directory cannot be replaced
    with pytest.raises(OSError):
        atomic_write_text(target, "contents")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_atomic_write_of_a_str_and_a_path_target_writes_the_same_bytes(tmp_path):
    # each target's parent directories are missing and are made
    text = "línea\nzweite Zeile\n"
    targets = [str(tmp_path / "str" / "deep" / "file.json"), tmp_path / "path" / "file.json"]
    for target in targets:
        atomic_write_text(target, text)
    assert [Path(target).read_bytes() for target in targets] == [text.encode("utf-8")] * 2
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "path", "path/file.json", "str", "str/deep", "str/deep/file.json",
    ]


def test_atomic_write_to_a_str_removes_its_temp_file_when_the_rename_fails(tmp_path):
    target = tmp_path / "taken"
    (target / "inner").mkdir(parents=True)
    with pytest.raises(OSError):
        atomic_write_text(str(target), "contents")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_read_tree_matches_read_bytes(tmp_path):
    # files of no bytes, of one read and of more than one 64 KiB read
    from citebias.clients import read_tree

    sizes = {"empty": 0, "one": 5, "two.bin": (1 << 16) + 7, "three.bin": 3 << 16}
    for name, size in sizes.items():
        (tmp_path / name).write_bytes(bytes(i % 251 for i in range(size)))
    assert read_tree(tmp_path) == [(p.name, p.read_bytes()) for p in sorted(tmp_path.iterdir())]
    for name in sizes:
        assert read_tree(tmp_path / name) == [(".", (tmp_path / name).read_bytes())]
    assert read_tree(tmp_path / "missing") == []


def test_read_tree_order_and_links_match_sorted_rglob(tmp_path):
    # path-component order, symlinked files read through, symlinked
    # directories not entered, and every descriptor closed again
    import os

    from citebias.clients import read_tree

    root = tmp_path / "root"
    for rel in ["b/z.json", "b/a.json", "a-b.json", "a/c/d.json", "a/e.json", "a.json"]:
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(rel.encode())
    (tmp_path / "outside").mkdir()
    (tmp_path / "outside" / "x.json").write_bytes(b"x")
    (root / "linked.json").symlink_to(root / "a.json")
    (root / "linkdir").symlink_to(tmp_path / "outside")
    (root / "dangling.json").symlink_to(tmp_path / "missing.json")
    expected = [
        (p.relative_to(root).as_posix(), p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file() and "linkdir" not in p.parts
    ]
    fds = set(os.listdir("/proc/self/fd"))
    assert read_tree(root) == expected
    assert [rel for rel, _ in expected][:3] == ["a/c/d.json", "a/e.json", "a-b.json"]
    assert set(os.listdir("/proc/self/fd")) == fds


def test_read_tree_result_is_freed_with_its_last_reference(tmp_path):
    # the index client drops the fixture bytes once parsed; nothing else
    # may hold them until the cyclic collector runs
    from citebias.clients import read_tree

    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.json").write_bytes(b"{}")
    files = read_tree(tmp_path)
    assert files == [("sub/a.json", b"{}")]
    assert sys.getrefcount(files) == 2  # the name and the call's argument


def test_atomic_writes_of_one_path_from_two_threads(tmp_path):
    # each thread writes through its own temp file, so neither replaces
    # the other's half-written file or finds its own temp file gone
    target = tmp_path / "entry.json"
    texts = ["a" * 50_000 + "\n", "b" * 50_000 + "\n"]
    errors = []

    def writer(text):
        try:
            for _ in range(200):
                atomic_write_text(target, text)
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(text,)) for text in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert target.read_text() in texts
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


# ---------------------------------------------------------------------------
# Venue canonicalization
# ---------------------------------------------------------------------------


def test_venue_keyword_and_exact_aliases(venue_table):
    assert venue_table.canonicalize("Advances in Neural Information Processing Systems").canonical == "NeurIPS"
    assert venue_table.canonicalize("NeurIPS 2023").canonical == "NeurIPS"
    assert venue_table.canonicalize("Proc. AAAI").canonical == "AAAI"
    assert venue_table.canonicalize("arXiv preprint arXiv:2310.00001").canonical == "arXiv"
    assert venue_table.canonicalize("Nature Communications").canonical == "Nature"
    assert venue_table.canonicalize("Journal of Fancy Results").canonical == "Others"


def test_venue_canonicalization_is_total(venue_table):
    import random

    rng = random.Random(5)
    for _ in range(300):
        raw = "".join(rng.choice(" abcXYZ0123!@#é—") for _ in range(rng.randint(0, 25)))
        venue = venue_table.canonicalize(raw)
        assert venue.canonical in ("AAAI", "NeurIPS", "ICML", "ICLR", "arXiv", "Nature", "Others")
    assert venue_table.canonicalize(None).canonical == "Others"
    assert venue_table.canonicalize("").canonical == "Others"


def test_venue_table_from_custom_file(tmp_path):
    path = tmp_path / "aliases.json"
    path.write_text(json.dumps({"Nature": {"exact": ["my journal"], "keywords": []}}))
    table = VenueTable.from_file(path)
    assert table.canonicalize("My Journal").canonical == "Nature"
    assert table.canonicalize("NeurIPS").canonical == "Others"


# ---------------------------------------------------------------------------
# HTTP client retry policy
# ---------------------------------------------------------------------------


class FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class FakeSession:
    """Yields scripted responses, raising any that is an exception;
    records each request's URL and params (for a POST, its JSON body)."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0
        self.sent = []
        self.headers = {}

    def _next(self):
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response

    def get(self, url, params=None, timeout=None):
        self.calls += 1
        self.sent.append((url, params))
        return self._next()

    def post(self, url, json=None, timeout=None):
        self.calls += 1
        self.sent.append((url, json))
        return self._next()


def test_http_client_retries_rate_limit_then_succeeds(monkeypatch):
    import citebias.live as live_mod
    from citebias.live import HttpScholarClient, RetryPolicy

    monkeypatch.setattr(live_mod.time, "sleep", lambda s: None)
    session = FakeSession([FakeResponse(429), FakeResponse(200, {"index_id": "x"})])
    client = HttpScholarClient(
        "http://index.test", session=session, retry=RetryPolicy(max_attempts=3, backoff_base=0)
    )
    assert client.get_paper("x") == {"index_id": "x"}
    assert session.calls == 2


def test_http_client_hard_fails_after_configured_attempts(monkeypatch):
    import citebias.live as live_mod
    from citebias.live import HttpScholarClient, RetryPolicy
    from citebias.errors import TransportError

    monkeypatch.setattr(live_mod.time, "sleep", lambda s: None)
    session = FakeSession([FakeResponse(500)] * 3)
    client = HttpScholarClient(
        "http://index.test", session=session, retry=RetryPolicy(max_attempts=3, backoff_base=0)
    )
    with pytest.raises(TransportError):
        client.get_paper("x")
    assert session.calls == 3


def test_http_client_connection_errors_exhaust_the_attempts(monkeypatch):
    import requests

    import citebias.live as live_mod
    from citebias.live import HttpScholarClient, RetryPolicy
    from citebias.errors import TransportError

    sleeps = []
    monkeypatch.setattr(live_mod.time, "sleep", sleeps.append)
    session = FakeSession([requests.ConnectionError(f"refused #{i}") for i in range(1, 4)])
    client = HttpScholarClient(
        "http://index.test", session=session, retry=RetryPolicy(max_attempts=3, backoff_base=0.5)
    )
    with pytest.raises(TransportError) as err:
        client.get_paper("x")
    assert str(err.value) == "http://index.test/papers/x failed after 3 attempts: refused #3"
    assert err.value.retryable
    assert session.calls == 3
    assert sleeps == [0.5, 1.0]


def test_http_client_retries_connection_error_then_succeeds(monkeypatch):
    import requests

    import citebias.live as live_mod
    from citebias.live import HttpScholarClient, RetryPolicy

    monkeypatch.setattr(live_mod.time, "sleep", lambda s: None)
    session = FakeSession([requests.ConnectionError("reset"), FakeResponse(200, {"index_id": "x"})])
    client = HttpScholarClient(
        "http://index.test", session=session, retry=RetryPolicy(max_attempts=3, backoff_base=0)
    )
    assert client.get_paper("x") == {"index_id": "x"}
    assert session.calls == 2


def test_http_client_without_a_session_builds_one(monkeypatch):
    import requests

    from citebias.live import HttpScholarClient

    monkeypatch.setenv("TEST_SCHOLAR_KEY", "s2-fixture")
    client = HttpScholarClient("http://index.test", api_key_env="TEST_SCHOLAR_KEY")
    assert isinstance(client.session, requests.Session)
    assert client.session.headers["x-api-key"] == "s2-fixture"


def test_http_client_404_is_not_found_not_error():
    from citebias.live import HttpScholarClient

    session = FakeSession([FakeResponse(404)])
    client = HttpScholarClient("http://index.test", session=session)
    assert client.get_paper("ghost") is None


def test_http_scholar_search_sends_query_and_limit():
    from citebias.live import HttpScholarClient

    session = FakeSession([FakeResponse(200, SCHOLAR_PAPERS[:2]), FakeResponse(404)])
    client = HttpScholarClient("http://index.test", session=session)
    assert client.search_title("Robust Widgets", limit=2) == SCHOLAR_PAPERS[:2]
    assert client.search_title("Nothing Like It") == []  # a 404 finds nothing
    assert session.sent == [
        ("http://index.test/papers/search", {"query": "Robust Widgets", "limit": 2}),
        ("http://index.test/papers/search", {"query": "Nothing Like It", "limit": 10}),
    ]


def test_http_scholar_search_rejects_non_list_payload():
    from citebias.live import HttpScholarClient

    payload = {"data": SCHOLAR_PAPERS[:1]}
    session = FakeSession([FakeResponse(200, payload)])
    client = HttpScholarClient("http://index.test", session=session)
    with pytest.raises(IndexParseError, match="non-list payload") as err:
        client.search_title("Robust Widgets")
    assert err.value.record == payload


def test_http_client_4xx_is_not_retryable():
    from citebias.live import HttpScholarClient
    from citebias.errors import TransportError

    session = FakeSession([FakeResponse(403)])
    client = HttpScholarClient("http://index.test", session=session)
    with pytest.raises(TransportError) as err:
        client.get_paper("x")
    assert not err.value.retryable
    assert session.calls == 1


def test_scholar_client_sends_api_key_from_environment(monkeypatch):
    from citebias.live import HttpScholarClient

    monkeypatch.setenv("TEST_SCHOLAR_KEY", "s2-fixture")
    session = FakeSession([])
    HttpScholarClient("http://index.test", session=session, api_key_env="TEST_SCHOLAR_KEY")
    assert session.headers == {"x-api-key": "s2-fixture"}


def test_preprint_client_sends_window_and_category():
    from citebias.live import HttpPreprintClient

    records = [{"preprint_id": "2203.01234"}]
    session = FakeSession([FakeResponse(200, records)])
    client = HttpPreprintClient("http://preprint.test/", session=session)
    assert client.list_records("2022-01-01", "2022-12-31", "cs.LG") == records
    assert session.sent == [
        (
            "http://preprint.test/records",
            {"start": "2022-01-01", "end": "2022-12-31", "category": "cs.LG"},
        )
    ]
    assert session.headers == {}


def test_preprint_client_retries_server_error(monkeypatch):
    import citebias.live as live_mod
    from citebias.live import HttpPreprintClient, RetryPolicy

    sleeps = []
    monkeypatch.setattr(live_mod.time, "sleep", sleeps.append)
    session = FakeSession([FakeResponse(503), FakeResponse(200, [])])
    client = HttpPreprintClient(
        "http://preprint.test", session=session, retry=RetryPolicy(max_attempts=2, backoff_base=0.25)
    )
    assert client.list_records("2022-01-01", "2022-12-31", "cs.LG") == []
    assert session.calls == 2
    assert sleeps == [0.25]


@pytest.mark.parametrize("payload", [{"records": []}, None], ids=["object", "non-json"])
def test_preprint_client_rejects_non_list_payload(payload):
    from citebias.live import HttpPreprintClient
    from citebias.errors import IndexParseError

    session = FakeSession([FakeResponse(200, payload)])
    client = HttpPreprintClient("http://preprint.test", session=session)
    with pytest.raises(IndexParseError):
        client.list_records("2022-01-01", "2022-12-31", "cs.LG")


def test_preprint_client_404_is_transport_error():
    from citebias.live import HttpPreprintClient
    from citebias.errors import TransportError

    session = FakeSession([FakeResponse(404)])
    client = HttpPreprintClient("http://preprint.test", session=session)
    with pytest.raises(TransportError, match="http://preprint.test/records") as err:
        client.list_records("2022-01-01", "2022-12-31", "cs.LG")
    assert not err.value.retryable
    assert session.calls == 1


@pytest.mark.parametrize(
    "payload",
    [
        None,
        {"error": "x"},
        {"choices": []},
        {"choices": [{"message": {"content": "a \ud800 b"}}]},
        {"choices": [{"message": {"content": 7}}]},
    ],
    ids=["non-json", "error", "no-choices", "lone-surrogate", "non-string"],
)
def test_provider_malformed_success_body_is_transport_error(payload):
    from citebias.errors import TransportError
    from citebias.live import OpenAIChatProvider

    session = FakeSession([FakeResponse(200, payload)])
    provider = OpenAIChatProvider("http://llm.test/v1", model="m", session=session)
    with pytest.raises(TransportError, match="http://llm.test/v1/chat/completions") as err:
        provider.send([("user", "hello")], {})
    assert not err.value.retryable
    assert session.calls == 1


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------


def test_token_bucket_spaces_acquisitions():
    clock = {"t": 0.0}
    sleeps = []

    def fake_clock():
        return clock["t"]

    def fake_sleep(seconds):
        sleeps.append(seconds)
        clock["t"] += seconds

    bucket = TokenBucket(rate=2.0, capacity=1.0, clock=fake_clock, sleep=fake_sleep)
    for _ in range(4):
        bucket.acquire()
    # after the initial token, each acquisition waits 1/rate seconds
    assert sleeps == pytest.approx([0.5, 0.5, 0.5])


def test_token_bucket_burst_capacity():
    clock = {"t": 0.0}
    sleeps = []
    bucket = TokenBucket(
        rate=1.0, capacity=3.0, clock=lambda: clock["t"], sleep=lambda s: sleeps.append(s)
    )
    for _ in range(3):
        bucket.acquire()
    assert sleeps == []


def test_parallel_map_preserves_order():
    from citebias.clients import parallel_map

    items = list(range(50))
    assert parallel_map(lambda x: x * x, items, max_in_flight=1) == [x * x for x in items]
    assert parallel_map(lambda x: x * x, items, max_in_flight=4) == [x * x for x in items]


def test_parallel_map_runs_concurrently():
    from citebias.clients import parallel_map

    gate = threading.Barrier(4, timeout=5)

    def wait_at_gate(_):
        gate.wait()  # deadlocks unless four workers arrive together
        return True

    assert parallel_map(wait_at_gate, [0, 1, 2, 3], max_in_flight=4) == [True] * 4


def test_token_bucket_is_thread_safe():
    bucket = TokenBucket(rate=10000.0, capacity=1.0)
    acquired = []

    def worker():
        for _ in range(50):
            bucket.acquire()
            acquired.append(1)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(acquired) == 200
