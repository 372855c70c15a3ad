"""Deterministic IRI minting.

Every entity in a model carries a stable, human-readable IRI; there are no
blank nodes anywhere, so graph comparison is plain set equality.  The
scheme is ``<base><role>/<disc1>/<disc2>...`` with each part slugged, e.g.

    http://example.org/annotation/01-bohemian-rhapsody/0

Time-structure nodes (interval, index, components, duration) do not carry
ids of their own; their IRIs are derived from the owning entity's IRI with
fixed path suffixes, which keeps them stable without threading a minter
through every constructor.  Observation IRIs likewise number each row
under its block's minted root, ``observation/<object>/<i>``.
"""

from __future__ import annotations

import re
import unicodedata

from .errors import InvalidBase

DEFAULT_BASE_IRI = "http://example.org/"

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_BAD_IRI_CHARS = set(' <>"{}|\\^`\n\r\t')


def is_absolute_iri(text: str) -> bool:
    """Cheap syntactic check: has a scheme, no whitespace or angle brackets."""
    return bool(text and _SCHEME_RE.match(text)
                and _BAD_IRI_CHARS.isdisjoint(text))


_SLUG_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")
_NON_SLUG_RE = re.compile(r"[^a-z0-9]+")


def slug(text: str) -> str:
    """Lowercased ASCII path segment: runs of other characters become '-'."""
    if _SLUG_RE.fullmatch(text):  # already a slug, as row indices are
        return text
    normalized = unicodedata.normalize("NFKD", text)
    ascii_text = normalized.encode("ascii", "ignore").decode("ascii").lower()
    return _NON_SLUG_RE.sub("-", ascii_text).strip("-") or "x"


def base_root(base: str) -> str:
    """The base as the head of a minted IRI: with a '/' added unless it
    already ends in '/' or '#'."""
    return base if base.endswith(("/", "#")) else base + "/"


def _root(base: str) -> str:
    if not is_absolute_iri(base):
        raise InvalidBase(base)
    return base_root(base)


def _join(root: str, entity_role: str, discriminators: list[str]) -> str:
    if not discriminators:
        raise ValueError("discriminators must be non-empty")
    return root + slug(entity_role) + "/" + "/".join(map(slug, discriminators))


def mint_iri(base: str, entity_role: str, discriminators: list[str]) -> str:
    """Deterministic IRI: base + slug(role) + '/' + slugged discriminators.

    Same inputs always give the same IRI.  Collision handling between
    *distinct* entities whose slugs coincide is the job of IriMinter.
    """
    return _join(_root(base), entity_role, discriminators)


class IriMinter:
    """Mints IRIs for one model build, resolving slug collisions by ordinal.

    Minting the same entity (same ``key``) twice returns the same IRI;
    a distinct entity that slugs to an already-used IRI gets ``-2``,
    ``-3``... appended.  Construction order is deterministic, so minted
    IRIs are too.
    """

    def __init__(self, base: str):
        self._root = _root(base)
        self.base = base
        self._by_key: dict[object, str] = {}
        self._used: set[str] = set()

    def mint(self, entity_role: str, discriminators: list[str],
             key: object = None) -> str:
        identity = key if key is not None else (entity_role, tuple(discriminators))
        existing = self._by_key.get(identity)
        if existing is not None:
            return existing
        iri = _join(self._root, entity_role, discriminators)
        candidate = iri
        ordinal = 2
        while candidate in self._used:
            candidate = f"{iri}-{ordinal}"
            ordinal += 1
        self._by_key[identity] = candidate
        self._used.add(candidate)
        return candidate


# Fixed suffixes for the time-structure nodes hanging off an entity.

def interval_iri(owner_iri: str) -> str:
    return owner_iri + "/interval"


def index_iri(owner_iri: str) -> str:
    return owner_iri + "/interval/index"


def component_iri(owner_iri: str, position: int) -> str:
    return f"{owner_iri}/interval/index/{position}"


def duration_iri(owner_iri: str) -> str:
    return owner_iri + "/interval/duration"
