"""Small shared helpers: deterministic ordering, canonical JSON, digests,
and the cycle-collector pause."""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import re
import unicodedata
from contextlib import contextmanager

_CHUNKS = re.compile(r"(\d+)")


def natural_key(text: str) -> tuple:
    """Sort key that orders embedded numbers numerically (C2 before C10).

    The key alternates the text around the digit runs (as strings, maybe
    empty at either end) with the runs' values, so each position holds
    one kind of value in every key.  An id of letters then ASCII digits
    (``C12``), as extractors write them, skips the regex: a letter is never
    a ``\\d`` digit, so its split is the head, the digits and ``""``.
    """
    head = text.rstrip("0123456789")
    if len(head) < len(text) and head.isalpha():
        try:
            return (head, int(text[len(head):]), "")
        except ValueError:  # a run longer than ``int()`` converts
            pass
    return _split_key(text)


def _split_key(text: str) -> tuple:
    """``natural_key`` by splitting the text at every ``\\d`` run."""
    parts = _CHUNKS.split(text)
    try:
        if len(parts) == 3:  # one digit run, as most ids have
            return (parts[0], int(parts[1]), parts[2])
        parts[1::2] = map(int, parts[1::2])
    except ValueError:  # a run longer than ``int()`` converts
        parts[1::2] = map(_LongRun.value, parts[1::2])
    return tuple(parts)


@functools.total_ordering
class _LongRun:
    """The value of a digit run too long for ``int()``: its digits without
    leading zeros, which order longer runs above shorter ones and runs of
    one length by their digits.  Each is above every ``int`` that ``int()``
    makes, having more significant digits."""

    __slots__ = ("digits",)

    def __init__(self, digits: str):
        self.digits = digits

    @classmethod
    def value(cls, run: str):
        digits = "".join(str(unicodedata.decimal(ch)) for ch in run).lstrip("0")
        try:
            return int(digits or "0")
        except ValueError:
            return cls(digits)

    def __eq__(self, other):
        return isinstance(other, _LongRun) and self.digits == other.digits

    def __lt__(self, other):
        if isinstance(other, _LongRun):
            return (len(self.digits), self.digits) < (len(other.digits), other.digits)
        return False

    def __hash__(self):
        return hash(self.digits)


#: The most digits a count typed by a user (an ``/arity`` suffix, a seed
#: number) may have.  A longer one is refused before ``int()``, which refuses
#: (or slowly converts) thousands of digits.
_MAX_COUNT_DIGITS = 9


def ascii_count(text: str) -> int | None:
    """The value of 1 to ``_MAX_COUNT_DIGITS`` ASCII digits, else ``None``
    (``str.isdigit`` alone also passes "²" and "١")."""
    if text.isascii() and text.isdigit() and len(text) <= _MAX_COUNT_DIGITS:
        return int(text)
    return None


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free JSON used for digests and comparisons."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def pretty_json(obj) -> str:
    """Key-sorted, indented JSON for files and CLI output (no timestamps)."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def simple_name(qualified: str) -> str:
    """Last dotted segment of a qualified type name."""
    return qualified.rsplit(".", 1)[-1]


def upper_first(name: str) -> str:
    return name[:1].upper() + name[1:]


def lower_first(name: str) -> str:
    return name[:1].lower() + name[1:]


@contextmanager
def collector_paused():
    """Run the block with the cycle collector off, then restore its state.

    For work that allocates many objects and makes no reference cycles, where
    the collector's passes over them would free nothing.  If the collector
    was on, the objects that survive the block move to the oldest generation
    (``gc.freeze`` then ``gc.unfreeze``, which runs no collection), so the
    young collections that follow do not walk them again; this is skipped
    when objects are already frozen, since ``unfreeze`` would thaw them too.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()
