"""Prompt rendering, the replay provider, table parsing, and merging."""

import pytest

from citebias.errors import MockResponseMissing, ProviderRefusal, TableParseError
from citebias.llmgate import (
    ITERATIVE,
    SYSTEM_MESSAGE,
    VANILLA,
    DirectoryMockProvider,
    GeneratedReference,
    GenerationRun,
    generate,
    merge_iterative,
    parse_reference_table,
    postprocess_references,
    prompt_digest,
    render_iterative_prompt,
    render_postprocess_prompt,
    render_vanilla_prompt,
    store_mock_response,
    template_hashes,
    template_text,
)

CONTENT = "A Fixture Paper\n\n1 Introduction\nWidgets [1] and gadgets [2,3]."


# ---------------------------------------------------------------------------
# Prompt rendering
# ---------------------------------------------------------------------------


def test_vanilla_system_message_is_exact():
    system, user = render_vanilla_prompt(CONTENT)
    assert system == ("system", "You are a helpful assistant")
    assert user[0] == "user"


def test_vanilla_content_follows_separator():
    _, (_, user) = render_vanilla_prompt(CONTENT)
    head, _, tail = user.partition("===")
    assert tail.strip() == CONTENT.strip()
    assert "omitted the references" in head


def test_vanilla_rejects_empty_content():
    with pytest.raises(ValueError):
        render_vanilla_prompt("   \n")


def test_vanilla_rendered_minus_content_is_the_template():
    _, (_, user) = render_vanilla_prompt(CONTENT)
    assert user.replace(CONTENT, "{content}") == template_text("vanilla").rstrip("\n")


def test_postprocess_prompt_contains_every_reference_line():
    refs = "[1] A. One. First. V, 2001.\n[2] B. Two. Second. V, 2002.\n[3] C. Three. Third. V, 2003."
    _, (_, user) = render_postprocess_prompt(refs)
    for line in refs.split("\n"):
        assert line in user


def test_postprocess_rendered_minus_content_is_the_template():
    refs = "[1] Someone. Something. Somewhere, 2000."
    _, (_, user) = render_postprocess_prompt(refs)
    assert user.replace(refs, "{content}") == template_text("postprocess").rstrip("\n")


def test_postprocess_rejects_empty_list():
    with pytest.raises(ValueError):
        render_postprocess_prompt("")


def _parent_run(response="[1] A reference."):
    run = GenerationRun("m", VANILLA, 1)
    run.transcript = [*render_vanilla_prompt(CONTENT), ("assistant", response)]
    return run


def test_iterative_numbers_slot_format():
    messages = render_iterative_prompt(_parent_run(), {7, 3}, CONTENT)
    assert "[3], [7]" in messages[-1][1]


def test_iterative_prefix_is_parent_transcript_verbatim():
    parent = _parent_run()
    messages = render_iterative_prompt(parent, {2}, CONTENT)
    assert messages[: len(parent.transcript)] == parent.transcript
    assert messages[-1][0] == "user"


def test_iterative_empty_set_is_a_skip_signal():
    with pytest.raises(ValueError):
        render_iterative_prompt(_parent_run(), set(), CONTENT)


def test_iterative_requires_complete_parent():
    run = GenerationRun("m", VANILLA, 1)
    run.transcript = list(render_vanilla_prompt(CONTENT))  # no assistant turn
    with pytest.raises(ValueError):
        render_iterative_prompt(run, {1}, CONTENT)


def test_template_hashes_cover_all_templates():
    hashes = template_hashes()
    assert set(hashes) == {"vanilla", "postprocess", "iterative"}
    assert all(len(h) == 64 for h in hashes.values())


def test_generation_run_validation():
    with pytest.raises(ValueError):
        GenerationRun("m", "other", 1)
    with pytest.raises(ValueError):
        GenerationRun("m", VANILLA, 0)
    with pytest.raises(ValueError):
        GenerationRun("m", ITERATIVE, 1)  # no parent
    GenerationRun("m", ITERATIVE, 1, parent=_parent_run())


# ---------------------------------------------------------------------------
# Replay provider and the audit trail
# ---------------------------------------------------------------------------


def test_mock_provider_roundtrip(tmp_path):
    messages = render_vanilla_prompt(CONTENT)
    store_mock_response(tmp_path, messages, "[1] Canned reference.")
    provider = DirectoryMockProvider(tmp_path)
    assert provider.send(messages, {}) == "[1] Canned reference."


def test_mock_provider_missing_key_raises(tmp_path):
    provider = DirectoryMockProvider(tmp_path)
    with pytest.raises(MockResponseMissing):
        provider.send(render_vanilla_prompt(CONTENT), {})


def test_prompt_digest_is_order_and_content_sensitive():
    m1 = [("system", SYSTEM_MESSAGE), ("user", "a")]
    m2 = [("system", SYSTEM_MESSAGE), ("user", "b")]
    m3 = [("user", "a"), ("system", SYSTEM_MESSAGE)]
    assert prompt_digest(m1) != prompt_digest(m2)
    assert prompt_digest(m1) != prompt_digest(m3)
    assert prompt_digest(m1) == prompt_digest(list(m1))


def test_generate_persists_raw_and_extends_transcript(tmp_path):
    messages = render_vanilla_prompt(CONTENT)
    store_mock_response(tmp_path / "mock", messages, "[1] A ref.")
    run = GenerationRun("m", VANILLA, 1)
    raw = tmp_path / "raw.txt"
    text = generate(run, messages, DirectoryMockProvider(tmp_path / "mock"), raw)
    assert text == "[1] A ref."
    assert raw.read_text() == "[1] A ref."
    assert run.transcript == [*messages, ("assistant", "[1] A ref.")]


def test_generate_empty_response_is_refusal_after_persisting(tmp_path):
    messages = render_vanilla_prompt(CONTENT)
    store_mock_response(tmp_path / "mock", messages, "")
    run = GenerationRun("m", VANILLA, 1)
    raw = tmp_path / "raw.txt"
    with pytest.raises(ProviderRefusal):
        generate(run, messages, DirectoryMockProvider(tmp_path / "mock"), raw)
    assert raw.exists()


def test_generate_rejects_messages_that_fork_the_transcript(tmp_path):
    messages = render_vanilla_prompt(CONTENT)
    store_mock_response(tmp_path, messages, "[1] A ref.")
    run = GenerationRun("m", VANILLA, 1)
    generate(run, messages, DirectoryMockProvider(tmp_path))
    with pytest.raises(ValueError):
        generate(run, [("user", "a different conversation")], DirectoryMockProvider(tmp_path))


class FakePostSession:
    headers: dict

    def __init__(self, responses):
        self.responses = list(responses)
        self.bodies = []
        self.headers = {}

    def post(self, url, json=None, timeout=None):
        self.bodies.append(json)
        status, payload = self.responses.pop(0)

        class R:
            status_code = status
            text = ""

            def json(self_inner):
                return payload

        return R()


def test_openai_provider_sends_messages_and_retries(monkeypatch):
    import citebias.live as live_mod
    from citebias.live import OpenAIChatProvider, RetryPolicy

    monkeypatch.setattr(live_mod.time, "sleep", lambda s: None)
    ok = {"choices": [{"message": {"content": "[1] A reference."}}]}
    session = FakePostSession([(429, None), (200, ok)])
    provider = OpenAIChatProvider(
        "http://gateway.test/v1",
        "some-model",
        session=session,
        retry=RetryPolicy(max_attempts=2, backoff_base=0),
    )
    text = provider.send([("system", "s"), ("user", "u")], {"temperature": 0.7})
    assert text == "[1] A reference."
    body = session.bodies[-1]
    assert body["model"] == "some-model"
    assert body["temperature"] == 0.7
    assert body["messages"] == [
        {"role": "system", "content": "s"},
        {"role": "user", "content": "u"},
    ]


def test_openai_provider_4xx_is_not_retryable():
    from citebias.errors import TransportError
    from citebias.live import OpenAIChatProvider

    session = FakePostSession([(400, None)])
    provider = OpenAIChatProvider("http://gateway.test/v1", "some-model", session=session)
    with pytest.raises(TransportError) as err:
        provider.send([("user", "u")], {})
    assert not err.value.retryable
    assert len(session.bodies) == 1


def test_openai_provider_reads_key_from_environment(monkeypatch):
    from citebias.live import OpenAIChatProvider

    monkeypatch.setenv("TEST_PROVIDER_KEY", "sk-fixture")
    session = FakePostSession([])
    OpenAIChatProvider("http://g.test", "m", api_key_env="TEST_PROVIDER_KEY", session=session)
    assert session.headers["Authorization"] == "Bearer sk-fixture"


# ---------------------------------------------------------------------------
# Markdown table parsing
# ---------------------------------------------------------------------------

GOOD_TABLE = """Here is the table:

| Citation Number | Authors | Number of Authors | Title | Publication Year | Publication Venue |
|---|---|---|---|---|---|
| 1 | Jane Doe, John Roe | 2 | A Fine Paper | 2020 | NeurIPS |
| 2 | Ada Lovelace, Charles Babbage | 2 | Engines of Note | 1843 | Nature |
"""


def test_parse_well_formed_table():
    parsed = parse_reference_table(GOOD_TABLE)
    assert len(parsed.references) == 2
    first = parsed.references[0]
    assert first.citation_number == 1
    assert first.title == "A Fine Paper"
    assert first.authors == ["Jane Doe", "John Roe"]
    assert first.author_count == 2
    assert first.year == 2020
    assert first.venue.canonical == "NeurIPS"


def test_parse_skips_trailing_ellipsis_row():
    table = GOOD_TABLE + "| ... | ... | ... | ... | ... | ... |\n"
    parsed = parse_reference_table(table)
    assert len(parsed.references) == 2
    assert any("filler" in a for a in parsed.anomalies)


def test_parse_et_al_yields_unknown_count_and_first_author():
    # "et al" inside a surname ("Etalle") is part of the name
    table = (
        "| Citation Number | Authors | Number of Authors | Title | Publication Year | Publication Venue |\n"
        "|---|---|---|---|---|---|\n"
        "| 3 | Grace Hopper et al. | 5 | Compiling Thoughts | 1952 | Others |\n"
        "| 4 | Sandro Etalle et.al | 5 | Trust Revisited | 2006 | Others |\n"
        "| 5 | Sandro Etalle, Jerry den Hartog | 2 | Trust Management | 2004 | Others |\n"
    )
    refs = parse_reference_table(table).references
    assert [(r.authors, r.author_count, r.et_al) for r in refs] == [
        (["Grace Hopper"], None, True),
        (["Sandro Etalle"], None, True),
        (["Sandro Etalle", "Jerry den Hartog"], 2, False),
    ]


def test_parse_unreadable_year_is_unknown():
    table = (
        "| Citation Number | Authors | Number of Authors | Title | Publication Year | Publication Venue |\n"
        "|---|---|---|---|---|---|\n"
        "| 4 | A. Person | 1 | Undated Work | n.d. | arXiv |\n"
    )
    (ref,) = parse_reference_table(table).references
    assert ref.year is None


def test_parse_range_label_fans_out_flagged_rows():
    table = (
        "| Citation Number | Authors | Number of Authors | Title | Publication Year | Publication Venue |\n"
        "|---|---|---|---|---|---|\n"
        "| 4-6 | B. Person | 1 | A Ranged Suggestion | 2019 | ICML |\n"
    )
    refs = parse_reference_table(table).references
    assert [r.citation_number for r in refs] == [4, 5, 6]
    assert all(r.range_derived for r in refs)


def test_parse_quarantines_unreadable_numbers():
    table = (
        "| Citation Number | Authors | Number of Authors | Title | Publication Year | Publication Venue |\n"
        "|---|---|---|---|---|---|\n"
        "| ? | C. Person | 1 | Mystery Slot | 2018 | ICLR |\n"
        "| 7 | D. Person | 1 | Known Slot | 2018 | ICLR |\n"
    )
    parsed = parse_reference_table(table)
    assert [r.citation_number for r in parsed.references] == [7]
    assert len(parsed.quarantined) == 1
    assert "Mystery Slot" in parsed.quarantined[0]["row"]


def test_parse_skips_malformed_short_rows():
    table = GOOD_TABLE + "| 9 | stray |\n"
    parsed = parse_reference_table(table)
    assert [r.citation_number for r in parsed.references] == [1, 2]
    assert any("malformed" in a for a in parsed.anomalies)


def test_parse_without_table_raises():
    with pytest.raises(TableParseError):
        parse_reference_table("I could not find any references, sorry.")


# ---------------------------------------------------------------------------
# Postprocess with one structured re-ask
# ---------------------------------------------------------------------------


class SequenceProvider:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def send(self, messages, params):
        self.calls.append(list(messages))
        return self.responses.pop(0)


def test_postprocess_reasks_once_then_succeeds():
    provider = SequenceProvider(["no table here, apologies", GOOD_TABLE])
    run = GenerationRun("m", VANILLA, 1)
    parsed = postprocess_references("[1] raw line", run, provider)
    assert len(parsed.references) == 2
    assert len(provider.calls) == 2
    # the re-ask continues the same conversation
    assert provider.calls[1][: len(provider.calls[0])] == provider.calls[0]


def test_postprocess_hard_fails_after_second_garbage():
    provider = SequenceProvider(["nope", "still nope"])
    run = GenerationRun("m", VANILLA, 1)
    with pytest.raises(TableParseError):
        postprocess_references("[1] raw line", run, provider)


def test_postprocess_raw_persisted_before_parse_failure(tmp_path):
    provider = SequenceProvider(["garbage one", "garbage two"])
    run = GenerationRun("m", VANILLA, 1)
    with pytest.raises(TableParseError):
        postprocess_references("[1] raw line", run, provider, raw_dir=tmp_path)
    assert (tmp_path / "postprocess_raw.txt").read_text() == "garbage one"
    assert (tmp_path / "postprocess_raw_retry.txt").read_text() == "garbage two"


# ---------------------------------------------------------------------------
# Iterative merge
# ---------------------------------------------------------------------------


def _ref(n, title, strategy=VANILLA):
    return GeneratedReference(citation_number=n, raw_text=f"[{n}] {title}", title=title, source_strategy=strategy)


def test_merge_disjoint_fill():
    parent = {1: _ref(1, "one"), 2: _ref(2, "two"), 3: _ref(3, "fabricated")}
    iterative = {3: _ref(3, "replacement", ITERATIVE)}
    result = merge_iterative(parent, {1, 2}, iterative)
    assert result.merged[1] is parent[1]
    assert result.merged[2] is parent[2]
    assert result.merged[3] is iterative[3]
    assert result.gaps == [] and result.ignored == []


def test_merge_parent_existing_entry_wins():
    parent = {1: _ref(1, "one"), 2: _ref(2, "fabricated")}
    iterative = {1: _ref(1, "rewrite attempt", ITERATIVE), 2: _ref(2, "fix", ITERATIVE)}
    result = merge_iterative(parent, {1}, iterative)
    assert result.merged[1] is parent[1]
    assert result.merged[2] is iterative[2]
    assert result.ignored == [1]


def test_merge_missing_replacement_keeps_parent_and_logs_gap():
    parent = {4: _ref(4, "one"), 5: _ref(5, "fabricated")}
    result = merge_iterative(parent, {4}, {})
    assert result.merged[5] is parent[5]
    assert result.gaps == [5]


def test_merge_fills_slots_vanilla_omitted():
    parent = {1: _ref(1, "one")}
    iterative = {2: _ref(2, "late arrival", ITERATIVE)}
    result = merge_iterative(parent, {1}, iterative, requested={2})
    assert result.merged[2] is iterative[2]
    assert set(result.merged) == {1, 2}
