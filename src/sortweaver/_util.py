"""Small shared helpers: natural id order (each digit run compared by its
value, of any length, without ``int()``), canonical JSON, digests, the
record classes' equality, the cycle-collector pause, and the one writer
through a temporary file."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import unicodedata
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterable

_CHUNKS = re.compile(r"(\d+)")


def natural_key(text: str) -> tuple:
    """Sort key that orders embedded numbers numerically (C2 before C10).

    The key holds the text around the digit runs (as strings, maybe empty
    at either end) and, for each run, its count of significant digits then
    those digits in ASCII (``C0012`` gives ``("C", 2, "12", "")``), so each
    position holds one kind of value in every key.  A run with more
    significant digits has the larger value, so this is numeric order for
    runs of any length, and no run goes through ``int()``.  An id of
    letters then ASCII digits (``C12``), as extractors write them, skips
    the regex: a letter is never a ``\\d`` digit, so its split is the
    head, the digits and ``""``.
    """
    head = text.rstrip("0123456789")
    if len(head) < len(text) and head.isalpha():
        digits = text[len(head):].lstrip("0")
        return (head, len(digits), digits, "")
    return _split_key(text)


def _split_key(text: str) -> tuple:
    """``natural_key`` by splitting the text at every ``\\d`` run."""
    parts = _CHUNKS.split(text)
    key = [parts[0]]
    for i in range(1, len(parts), 2):
        run = parts[i]
        if not run.isascii():  # other ``\d`` digits, such as Arabic-Indic
            run = "".join(str(unicodedata.decimal(ch)) for ch in run)
        digits = run.lstrip("0")
        key += (len(digits), digits, parts[i + 1])
    return tuple(key)


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


# -- records ---------------------------------------------------------------------
#
# A record is a ``typing.NamedTuple`` whose body assigns ``__eq__, __ne__,
# __hash__ = TYPED_EQUALITY``, or, when a field is reassigned after
# construction, a ``__slots__`` subclass of ``Record``.  Either way a record
# equals only a record of its own class: a bare named tuple equals any tuple
# of equal items, so ``AndExpr(terms) == OrExpr(terms)`` would hold and a
# set or ``dict.fromkeys`` would keep one of the two.


def _same_record(record, other) -> bool:
    return record.__class__ is other.__class__ and tuple.__eq__(record, other)


def _other_record(record, other) -> bool:
    return not _same_record(record, other)


#: ``__eq__``, ``__ne__`` and ``__hash__`` of a named-tuple record.  Equal
#: records are of one class, so the tuple's hash of the fields serves.
TYPED_EQUALITY = (_same_record, _other_record, tuple.__hash__)


class Record:
    """Base of the records that are reassigned after construction: a
    subclass names its fields in ``__slots__`` and writes its ``__init__``.
    A record equals one of its own class with equal fields, is not
    hashable, takes weak references, and shows as ``Class(field=value,
    ...)``."""

    __slots__ = ("__weakref__",)
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return self.__class__ is other.__class__ and self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


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


def replace_file(path: Path, parts: Iterable[str]):
    """Write the text ``parts`` to a temporary file next to ``path``, then
    ``os.replace`` it there, so a write cut short leaves the file as it was
    and no temporary file.  A symbolic link at ``path`` is replaced, not
    written through.  Errors propagate."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "x", encoding="utf-8") as out:
            for part in parts:
                out.write(part)
        os.replace(temp, path)
    except BaseException:
        with suppress(OSError):  # a name too long to make is too long to unlink
            temp.unlink(missing_ok=True)
        raise
