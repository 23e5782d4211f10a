"""Deterministic argument marshalling.

The paper assumes "a stub for each RPC call that marshalls arguments ...
From the perspective of gRPC, then, the arguments are treated as one
continuous untyped field that is copied to and from messages."  This
module produces that field: a compact, self-describing, deterministic
binary encoding of plain Python data (None, bool, int, float, str, bytes,
list, tuple, dict with string keys).

Format: every value is a tag byte — ``N``/``T``/``F`` (None, True,
False), ``D`` plus an 8-byte big-endian double, or ``S``/``I``/``B``
(UTF-8 text, big-endian two's-complement int, raw bytes) / ``L``/``U``/
``M`` (list, tuple, dict) followed by a u32 big-endian payload length or
member count.  A dict's members are key/value pairs whose keys are
``S`` values.  Dict entries are encoded in sorted key order, so the same
logical arguments always produce the same bytes — and therefore the same
message sizes in the benchmarks.  Subclasses of the plain types encode
as their plain base; anything else, a non-string dict key, or a
malformed field raises :class:`~repro.errors.MarshalError`.

Field names repeat in every record, so each direction keeps one table of
dict keys: :func:`unmarshal` hands out one shared copy of each decoded
key, and :func:`marshal` reuses each exact-``str`` key's encoded piece.
Only keys of at most 64 UTF-8 bytes (``_KEY_MAX_BYTES``) are stored,
and a call that finds the decoded-key table holding 4 096 entries
(``_TABLE_MAX``) clears both, and the field table below with them, so
neither outgrows that plus the keys of the one field in hand.

In this simulator a field is decoded in the process that encoded it
(the fabric never leaves it), and a group call hands one field to each
of its k members, so the codec works in fields.  A **field table**
(``_TEMPLATES``) maps the bytes of each field of at least 512 bytes
(``_MEMO_MIN_BYTES``) to a private *template* of its value.  The table
holds at most ``_MEMO_MAX`` fields, oldest out first.

* :func:`marshal`'s one walk builds the template as it emits the bytes,
  so a field this process encoded is never decoded.  Every container
  of at least 512 bytes inside it enters the table as a field of its
  own, sliced from the joined bytes after the walk: a get's reply, the
  value an earlier put carried, is then a hit.  A value holding
  anything that is not an exact plain type (a subclass instance or a
  subclass key) is not captured; its field is decoded once, on its
  first :func:`unmarshal`, and enters whole.
* :func:`unmarshal` returns a fresh copy of the template.  Containers
  are never shared; immutable leaves are: two decodes of one field
  return distinct dicts, lists and tuples holding the same strings,
  numbers and bytes.  A field that fails to decode is never kept.
* For each copied container that spans a field this process encoded,
  :func:`unmarshal` registers the copy, with the template it was copied
  from, in a registry of ``_HANDED_MAX`` entries, oldest out first.
  The template is the copy's identity snapshot: it never changes, and
  the copy was made holding its leaves and dict keys.  Given a
  registered copy whose every container still has its template's
  length, the template's own keys in order and the template's own
  leaves, :func:`marshal` returns the field's bytes without a walk:
  leaves are immutable exact types, so the same objects are the same
  bytes.  An equal value of another type (``1`` for ``True``, ``1.0``
  for ``1``, ``-0.0`` for ``0.0``) is not the same object, so it walks.
  Each entry holds its copy, so an ``id`` is never reused while
  registered.  A field that was only decoded is not registered: its
  bytes need not be the ones :func:`marshal` emits (keys out of order,
  an int with spare bytes).

Marshalling is the one real-CPU cost every stub call pays twice, so the
observatory's kernel profiler hooks it: :func:`install_profiler`
installs a module-level hook (this module has no runtime reference, and
the simulation is single-threaded, so a global is correct) and each
call then reports its byte count and wall-clock.  With no profiler
installed — the default — the cost is a single ``is None`` test per
call, guarded by ``tests/test_obs_overhead.py``.
"""

from __future__ import annotations

import struct
from operator import is_, is_not
from time import perf_counter
from typing import Any, Iterable, Optional, Tuple

from repro.errors import MarshalError

__all__ = ["marshal", "unmarshal", "install_profiler"]

#: The installed profiler (``on_marshal``/``on_unmarshal`` hooks), or
#: ``None``.  Owned by :class:`repro.obs.observatory.Observatory`.
_PROFILER: Optional[Any] = None


def install_profiler(profiler: Optional[Any]) -> Optional[Any]:
    """Install (or with ``None`` remove) the marshalling profiler.

    Returns the previously installed profiler so callers can restore it.
    """
    global _PROFILER
    previous = _PROFILER
    _PROFILER = profiler
    return previous

_pack_header = struct.Struct(">cI").pack     # tag + u32 length / count
_pack_float = struct.Struct(">cd").pack
_unpack_u32_from = struct.Struct(">I").unpack_from
_unpack_f64_from = struct.Struct(">d").unpack_from

#: ``_S_HEADERS[n]`` is the header of an ``n``-byte string.
_S_HEADERS = tuple(_pack_header(b"S", n) for n in range(256))

# Tag bytes as the integers that indexing a ``bytes`` object yields.
_T_NONE, _T_TRUE, _T_FALSE = ord("N"), ord("T"), ord("F")
_T_INT, _T_FLOAT, _T_STR, _T_BYTES = ord("I"), ord("D"), ord("S"), ord("B")
_T_LIST, _T_TUPLE, _T_DICT = ord("L"), ord("U"), ord("M")

_PLAIN = (str, int, float, dict, list, tuple, bytes)
_LEAF_TAGS = {str: b"S", bytes: b"B", int: b"I"}
_CLASSES = {_T_DICT: dict, _T_LIST: list, _T_TUPLE: tuple}

#: Bounds shared by both key tables.
_KEY_MAX_BYTES = 64
_TABLE_MAX = 4096

#: Decoded dict key -> the one copy every decoded record shares.  A
#: bounded dict, not ``sys.intern``: interned strings are immortal on
#: CPython 3.12, and these keys come from arbitrary payloads.
_DECODED_KEYS: dict = {}
#: Exact-``str`` dict key -> its encoded piece (header plus UTF-8), the
#: shared copy ``_DECODED_KEYS`` holds, which captured templates use,
#: and the piece's length.  Every key here is in ``_DECODED_KEYS``: the
#: two are cleared together.
_ENCODED_KEYS: dict = {}

#: The field table: field bytes -> template, ``(holder, members)``, where
#: ``holder`` is the one-item list that holds the value and ``members``
#: lists its member containers as :func:`_rebuild` reads them.  Oldest
#: out first.  A put's field is read k times within the arrivals of the
#: other calls in flight, and its value comes back as a get's reply one
#: round trip later, so the bound only has to cover a few fields per
#: concurrent caller.  Below the size floor a field decodes in a few
#: microseconds, and the table's own costs (hash, lookup, store, copy)
#: would be a large share of that.
_TEMPLATES: dict = {}
_MEMO_MIN_BYTES = 512
_MEMO_MAX = 64

#: ``id`` of a handed-out copy that spans a field -> ``(copy, field,
#: template, the template's member entries, the copy's class)``.  The
#: template is the copy's identity snapshot: it never changes, and the
#: copy was made holding its leaves and dict keys.  Oldest out first;
#: like the field table's, the bound covers a few calls in flight.
_HANDED: dict = {}
_HANDED_MAX = 128


def marshal(value: Any) -> bytes:
    """Encode ``value`` into the untyped argument field."""
    prof = _PROFILER
    started = perf_counter() if prof is not None else 0.0
    cls = value.__class__
    if value is None or cls is bool:    # an exact leaf: no walk state
        data = b"N" if value is None else b"T" if value else b"F"
    elif cls is float:
        data = _pack_float(b"D", value)
    elif cls is str or cls is bytes or cls is int:
        raw = value.encode() if cls is str else value if cls is bytes \
            else value.to_bytes((value.bit_length() + 8) // 8 or 1, "big",
                                signed=True)
        data = _pack_header(_LEAF_TAGS[cls], len(raw)) + raw
    else:
        handed = _HANDED.get(id(value))
        if handed is not None and _unchanged(value, *handed[2:]):
            data = handed[1]
        else:
            data = _encode(value)
    if prof is not None:
        prof.on_marshal(len(data), perf_counter() - started)
    return data


def unmarshal(data: bytes) -> Any:
    """Decode an argument field; rejects trailing garbage."""
    prof = _PROFILER
    started = perf_counter() if prof is not None else 0.0
    if data.__class__ is not bytes:
        data = bytes(data)          # bytearray / memoryview callers
    end = len(data)
    if end < _MEMO_MIN_BYTES:
        value = _decode(data, False)
    else:
        template = _TEMPLATES.get(data)
        if template is None:
            template = _decode(data, True)
            _enter(data, template, ())
        value = _rebuild(*template)[0]
    if prof is not None:
        prof.on_unmarshal(end, perf_counter() - started)
    return value


def _encode(value: Any) -> bytes:
    """The encoder walk: ``value``'s field.  A field of at least
    ``_MEMO_MIN_BYTES`` whose value is all exact plain types enters the
    field table, and so does each container of that size inside it."""
    if len(_DECODED_KEYS) >= _TABLE_MAX:
        _DECODED_KEYS.clear()
        _ENCODED_KEYS.clear()
        _TEMPLATES.clear()      # their dict keys are the old table's
    pieces: list = []
    holder = [value]
    spans: list = []
    members, end = _emit_members(holder, pieces, holder, None, spans, 0)
    data = b"".join(pieces)
    if end >= _MEMO_MIN_BYTES and None not in spans:
        fields = []
        for start, stop, inner, index in spans:
            field = data[start:stop]
            inner[index] = entry = inner[index][:4] + (field,)
            fields.append((field, entry))
        _enter(data, (holder, members or ()), fields)
    return data


def _decode(data: bytes, keep: bool) -> Any:
    """Decode the whole field ``data``: its value, or if ``keep`` the
    template :func:`_rebuild` copies it from."""
    if len(_DECODED_KEYS) >= _TABLE_MAX:
        _DECODED_KEYS.clear()
        _ENCODED_KEYS.clear()
        _TEMPLATES.clear()      # their dict keys are the old table's
    out: list = []
    members = [] if keep else None
    try:
        end = _decode_members(out, 1, data, data.decode("latin-1"), 0,
                              members)
    except (IndexError, struct.error):
        # Reading a tag, length or float past the end of the field.
        raise MarshalError("truncated value") from None
    except UnicodeDecodeError:
        raise MarshalError("string is not valid UTF-8") from None
    if end != len(data):
        raise MarshalError(f"{len(data) - end} trailing bytes after value")
    return (out, members) if keep else out[0]


def _enter(data: bytes, template: tuple, fields: Iterable[tuple]) -> None:
    """Enter the field ``data`` and, newest last, each ``(sub-field,
    member entry)`` in ``fields`` (innermost first, as the walk finds
    them); a field already held keeps its template."""
    entries = [(data, template)]
    entries += [(field, ([entry[1]], [(0,) + entry[1:]]))
                for field, entry in reversed(fields)]
    table = _TEMPLATES
    for field, template in entries:
        if field not in table:
            if len(table) >= _MEMO_MAX:
                del table[next(iter(table))]
            table[field] = template


def _rebuild(template: Any, members: Iterable[tuple]) -> Any:
    """A fresh copy of the container ``template``.

    ``members`` lists its member containers as ``(slot, member, the
    member's own members, class, field)``, where a tuple's ``member`` is
    the list it is built from.  Each list and dict is one ``copy()`` and
    each tuple is rebuilt; leaves and dict keys stay the template's own
    objects.  A member's copy is registered under its ``field`` if it
    has one.
    """
    copy = template.copy()
    for slot, member, inner, cls, field in members:
        copied = member.copy() if inner is None else _rebuild(member, inner)
        if cls is tuple:
            copied = tuple(copied)
        if field is not None:
            if len(_HANDED) >= _HANDED_MAX:
                del _HANDED[next(iter(_HANDED))]
            _HANDED[id(copied)] = (copied, field, member, inner, cls)
        copy[slot] = copied
    return copy


def _unchanged(value: Any, template: Any, members: Optional[list],
               cls: type) -> bool:
    """Whether ``value`` is still a ``cls`` of ``template``'s length
    whose keys are the template's own, in its order, whose members are
    the template's own leaves, and whose member containers, at the
    template's ``members`` slots, are unchanged in turn.  A captured
    template's containers never leave this module (a tuple member is
    held as its list), so a member container of ``value`` is never one
    of them: it counts once among the members that are not the
    template's."""
    if value.__class__ is not cls or len(value) != len(template):
        return False
    if cls is dict:
        if not all(map(is_, value, template)):
            return False
        others = sum(map(is_not, value.values(), template.values()))
    else:
        others = sum(map(is_not, value, template))
    if members is None:
        return not others
    if others != len(members):
        return False
    for slot, member, inner, member_cls, _ in members:
        if not _unchanged(value[slot], member, inner, member_cls):
            return False
    return True


def _plain_class(value: Any) -> type:
    """The plain type a subclass instance marshals as (the slow path)."""
    for base in _PLAIN:
        if isinstance(value, base):
            return base
    raise MarshalError(
        f"cannot marshal {type(value).__name__}: only plain data "
        f"(None/bool/int/float/str/bytes/list/tuple/dict) is allowed")


def _key_entry(key: Any, spans: list) -> tuple:
    """The encoded piece of a dict key the key table does not hold, the
    key a captured template uses and the piece's length.  A subclass
    key puts a ``None`` in the walk's ``spans``: its field is not
    captured."""
    if not isinstance(key, str):
        raise MarshalError("dict keys must be strings")
    raw = key.encode()
    piece = _pack_header(b"S", len(raw)) + raw
    if key.__class__ is not str:
        spans.append(None)
        return piece, key, len(piece)
    if len(raw) > _KEY_MAX_BYTES:
        return piece, key, len(piece)
    entry = _ENCODED_KEYS[key] = (piece, _DECODED_KEYS.setdefault(key, key),
                                  len(piece))
    return entry


def _emit_members(members: Iterable[Any], pieces: list, into: Any,
                  mapping: Optional[dict], spans: list,
                  offset: int) -> Tuple[Optional[list], int]:
    """Append to ``pieces`` the pieces of each value in ``members`` —
    or, given the ``mapping`` whose sorted keys ``members`` are, of each
    key and its value — from byte ``offset`` of the field on, and store
    each value's template at its slot of ``into``: the template of a
    list or tuple starts as a copy of it, so its leaves are in place
    already, and a dict's starts empty.  Leaves are emitted here;
    containers recurse.  Returns the member containers' entries as
    :func:`_rebuild` lists them (``None`` if there are none) and the
    offset past the last piece.  A container of ``_MEMO_MIN_BYTES`` or
    more also goes in ``spans`` as ``(its offset, the offset past it,
    the entry's list, the entry's index)``, and a value or key of no
    exact plain type puts a ``None`` there."""
    add = pieces.append
    key_table = _ENCODED_KEYS
    inner = None
    slot = -1
    for value in members:
        if mapping is not None:
            entry = key_table.get(value) if value.__class__ is str else None
            piece, slot, size = entry or _key_entry(value, spans)
            add(piece)
            offset += size
            # A leaf stays in the template; a container's template
            # takes its slot below.
            into[slot] = value = mapping[value]
        else:
            slot += 1
        cls = value.__class__
        while True:     # a second trip only for an instance of a subclass
            if cls is str:
                raw = value.encode()
                size = len(raw)
                add(_S_HEADERS[size] if size < 256
                    else _pack_header(b"S", size))
                add(raw)
                offset += 5 + size
            elif cls is int:
                raw = value.to_bytes((value.bit_length() + 8) // 8 or 1,
                                     "big", signed=True)
                size = len(raw)
                add(_pack_header(b"I", size))
                add(raw)
                offset += 5 + size
            elif cls is float:
                add(_pack_float(b"D", value))
                offset += 9
            elif cls is dict or cls is list or cls is tuple:
                start = offset
                if cls is dict:
                    try:
                        keys = sorted(value)
                    except TypeError:   # mixed key types do not even sort
                        raise MarshalError(
                            "dict keys must be strings") from None
                    add(_pack_header(b"M", len(keys)))
                    template: Any = {}
                    below, offset = _emit_members(keys, pieces, template,
                                                  value, spans, offset + 5)
                else:
                    add(_pack_header(b"L" if cls is list else b"U",
                                     len(value)))
                    # A tuple's template is a list too, so it never
                    # leaves this module: see :func:`_unchanged`.
                    template = list(value)
                    below, offset = _emit_members(value, pieces, template,
                                                  None, spans, offset + 5)
                if inner is None:
                    inner = [(slot, template, below, cls, None)]
                else:
                    inner.append((slot, template, below, cls, None))
                if offset - start >= _MEMO_MIN_BYTES:
                    spans.append((start, offset, inner, len(inner) - 1))
                into[slot] = template
            elif cls is bool:
                add(b"T" if value else b"F")
                offset += 1
            elif value is None:
                add(b"N")
                offset += 1
            elif cls is bytes:
                size = len(value)
                add(_pack_header(b"B", size))
                add(value)
                offset += 5 + size
            else:
                cls = _plain_class(value)
                spans.append(None)
                continue
            break
    return inner, offset


def _decode_members(into: Any, count: int, data: bytes, text: str,
                    pos: int, members: Optional[list]) -> int:
    """Decode ``count`` members from ``pos`` into the dict or list
    ``into`` (a dict's members are key/value pairs) and return the
    cursor past them.  ``text`` is ``data`` decoded as latin-1, so an
    ASCII string is one slice of it.  Leaves are decoded here;
    containers recurse.  Unless ``members`` is ``None``, each member
    container of ``into`` is added to it as :func:`_rebuild` lists
    them, with no field to register under."""
    keyed = into.__class__ is dict
    append = None if keyed else into.append
    end = len(data)
    key_table = _DECODED_KEYS
    for slot in range(count):
        if keyed:       # the slot is the key, not the index
            if data[pos] != _T_STR:
                raise MarshalError("dict keys must be strings")
            start = pos + 5
            size = _unpack_u32_from(data, pos + 1)[0]
            pos = start + size
            if pos > end:
                raise MarshalError("truncated value")
            slot = text[start:pos]
            if not slot.isascii():
                slot = data[start:pos].decode()
            if size <= _KEY_MAX_BYTES:
                slot = key_table.setdefault(slot, slot)
        tag = data[pos]
        if tag == _T_STR or tag == _T_INT or tag == _T_BYTES:
            start = pos + 5
            pos = start + _unpack_u32_from(data, pos + 1)[0]
            if pos > end:
                raise MarshalError("truncated value")
            if tag == _T_STR:
                value = text[start:pos]
                if not value.isascii():
                    value = data[start:pos].decode()
            elif tag == _T_INT:
                value = int.from_bytes(data[start:pos], "big", signed=True)
            else:
                value = data[start:pos]
        elif tag == _T_FLOAT:
            value = _unpack_f64_from(data, pos + 1)[0]
            pos += 9
        elif tag == _T_DICT or tag == _T_LIST or tag == _T_TUPLE:
            value = {} if tag == _T_DICT else []
            inner = None if members is None else []
            pos = _decode_members(value, _unpack_u32_from(data, pos + 1)[0],
                                  data, text, pos + 5, inner)
            if members is not None:
                members.append((slot, value, inner or None, _CLASSES[tag],
                                None))
            if tag == _T_TUPLE:
                value = tuple(value)
        elif tag == _T_TRUE:
            value = True
            pos += 1
        elif tag == _T_FALSE:
            value = False
            pos += 1
        elif tag == _T_NONE:
            value = None
            pos += 1
        else:
            raise MarshalError(
                f"unknown tag byte {bytes((tag,))!r} at offset {pos}")
        if keyed:
            into[slot] = value
        else:
            append(value)
    return pos
