"""Text normalization shared by title/author matching and overlap identities.

PDF extraction, LLM output, and index metadata disagree on casing,
diacritics, dash glyphs, and trailing punctuation; every comparison in the
package goes through the same pipeline so scores are reproducible.
"""

from __future__ import annotations

import re
import unicodedata

_DASHES = "‐‑‒–—―−"
_QUOTES = {
    "‘": "'",
    "’": "'",
    "“": '"',
    "”": '"',
    "«": '"',
    "»": '"',
}
# Characters that NFKD does not decompose to ASCII.
_SPECIAL = {
    "ß": "ss", "æ": "ae", "Æ": "AE", "œ": "oe", "Œ": "OE",
    "ø": "o", "Ø": "O", "ł": "l", "Ł": "L", "đ": "d", "Đ": "D",
    "þ": "th", "Þ": "TH",
}

_WS_RE = re.compile(r"\s+")
_TERMINAL_PUNCT_RE = re.compile(r"[\s.,;:!?]+$")
_TOKEN_RE = re.compile(r"[a-z0-9]+")
# "et al." as words of their own, so that no name ("Etalle") holds it
ET_AL_RE = re.compile(r"\bet\.?\s*al\b\.?", re.IGNORECASE)


def strip_accents(text: str) -> str:
    """Fold accented characters to their ASCII base letters."""
    for special, replacement in _SPECIAL.items():
        text = text.replace(special, replacement)
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")


def normalize(text: str) -> str:
    """Lowercase, strip accents, unify dashes/quotes, collapse whitespace,
    and drop terminal punctuation."""
    if not text:
        return ""
    if text.isascii():
        # exact: every quote, dash and special key is non-ASCII, NFKD
        # leaves ASCII as it is, and no ASCII character is a combining mark
        text = _WS_RE.sub(" ", text.lower()).strip()
        return _TERMINAL_PUNCT_RE.sub("", text)
    for q, repl in _QUOTES.items():
        text = text.replace(q, repl)
    for d in _DASHES:
        text = text.replace(d, "-")
    text = strip_accents(text).lower()
    text = _WS_RE.sub(" ", text).strip()
    text = _TERMINAL_PUNCT_RE.sub("", text)
    return text


def tokens(text: str) -> list[str]:
    """Alphanumeric word tokens of the normalized text, in order."""
    if not text:
        return []
    if text.isascii():
        # exact: on ASCII, normalize only lowercases, then changes or cuts
        # runs of whitespace and punctuation, none of which is in a token
        return _TOKEN_RE.findall(text.lower())
    return _TOKEN_RE.findall(normalize(text))


def title_key(text: str) -> str:
    """Canonical key for exact title comparison: normalized tokens joined."""
    return " ".join(tokens(text))
