"""Text normalization: the ASCII fast path against the full Unicode path."""

import re
import unicodedata

from hypothesis import example, given, settings
from hypothesis import strategies as st

from citebias.textnorm import _DASHES, _QUOTES, _SPECIAL, _TOKEN_RE, normalize, tokens

# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------


def oracle_normalize(text: str) -> str:
    """Every step of the Unicode folding, applied to any text: quotes and
    dashes unified, special letters spelled out, NFKD with combining marks
    dropped, lowercase, whitespace collapsed, terminal punctuation cut."""
    if not text:
        return ""
    for quote, replacement in _QUOTES.items():
        text = text.replace(quote, replacement)
    for dash in _DASHES:
        text = text.replace(dash, "-")
    for special, replacement in _SPECIAL.items():
        text = text.replace(special, replacement)
    decomposed = unicodedata.normalize("NFKD", text)
    text = "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn").lower()
    text = re.sub(r"\s+", " ", text).strip()
    return re.sub(r"[\s.,;:!?]+$", "", text)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

# all of ASCII: letters, digits, punctuation, whitespace and control
# characters, among them \x1c-\x1f, which str.split and \s count as space
ascii_text = st.text(st.characters(max_codepoint=127), max_size=80)

# ASCII beside what the Unicode path folds: quotes, dashes, special
# letters, precomposed and combining accents, compatibility forms and
# non-ASCII spaces
FOLDED = "".join(_QUOTES) + _DASHES + "".join(_SPECIAL) + (
    "\u00e9\u00c9\u00f1\u0301\u0308\ufb01\u2460\u00a0\u2003\u3000\u4e2d"
)
mixed_text = st.text(
    st.one_of(st.characters(max_codepoint=127), st.sampled_from(FOLDED), st.characters()),
    max_size=80,
)


@settings(max_examples=300)
@given(ascii_text)
@example("")
@example("  Deep\tLearning \x1c at Scale.;!? ")
@example("A.\x0b\x1f.")
@example("?!.")
def test_normalize_ascii_matches_unicode_path(text):
    assert text.isascii()
    assert normalize(text) == oracle_normalize(text)


@settings(max_examples=300)
@given(mixed_text)
@example("\u00dcn\u00efc\u00f6d\u00e9 \u201cQuotes\u201d \u2014 and \u00df.")
@example("e\u0301 \ufb01ne\u00a0.")
def test_normalize_mixed_text_matches_unicode_path(text):
    assert normalize(text) == oracle_normalize(text)


@settings(max_examples=300)
@given(st.one_of(ascii_text, mixed_text))
@example("")
@example(None)  # a record's null title
@example("A\x0bB.")
@example(" \x1cX-Y ;!? ")
@example("\u00e9")
@example("Na\u00efve Bayes, \u201cRevisited\u201d.")
def test_tokens_match_normalized_tokens(text):
    assert tokens(text) == _TOKEN_RE.findall(normalize(text))
