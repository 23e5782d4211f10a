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
and a call that finds its table holding 4 096 entries (``_TABLE_MAX``)
clears it first, so neither table outgrows that plus the keys of the
one field in hand.

A group call sends one field to each of its members, and here every
member lives in this process, so :func:`unmarshal` decodes a field of
at least 512 bytes (``_MEMO_MIN_BYTES``) once: it keeps the first
decode as a private template, in a memo of the last 16 such fields
(``_MEMO_MAX``), and every decode of the field, the first included,
returns a copy of the template.  Containers are never shared; immutable
leaves are: two decodes of one field return distinct dicts, lists and
tuples holding the same strings, numbers and bytes.  A field that fails
to decode is never kept.

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
from time import perf_counter
from typing import Any, Callable, Iterable, Optional

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

#: Bounds shared by both key tables.
_KEY_MAX_BYTES = 64
_TABLE_MAX = 4096

#: Decoded dict key -> the one copy every decoded record shares.  A
#: bounded dict, not ``sys.intern``: interned strings are immortal on
#: CPython 3.12, and these keys come from arbitrary payloads.
_DECODED_KEYS: dict = {}
#: Exact-``str`` dict key -> its encoded piece (header plus UTF-8).
_ENCODED_KEYS: dict = {}

#: Field -> the template its first decode left: the one-item list that
#: holds the value, and its member containers as :func:`_rebuild` reads
#: them.  Oldest out first.  A field's k member decodes arrive within
#: the arrivals of the other calls in flight, so the bound only has to
#: cover a few fields per concurrent caller.  Below the size floor a
#: field decodes in a few microseconds, and the memo's own costs (hash,
#: lookup, store, copy) would be a large share of that.
_TEMPLATES: dict = {}
_MEMO_MIN_BYTES = 512
_MEMO_MAX = 16


def marshal(value: Any) -> bytes:
    """Encode ``value`` into the untyped argument field."""
    prof = _PROFILER
    started = perf_counter() if prof is not None else 0.0
    if len(_ENCODED_KEYS) >= _TABLE_MAX:
        _ENCODED_KEYS.clear()
    pieces: list = []
    _emit_members((value,), pieces.append)
    data = b"".join(pieces)
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
        value = _decode(data, None)
    else:
        template = _TEMPLATES.get(data)
        if template is None:
            template = _decode(data, [])
            if len(_TEMPLATES) >= _MEMO_MAX:
                del _TEMPLATES[next(iter(_TEMPLATES))]
            _TEMPLATES[data] = template
        value = _rebuild(*template)[0]
    if prof is not None:
        prof.on_unmarshal(end, perf_counter() - started)
    return value


def _decode(data: bytes, members: Optional[list]) -> Any:
    """Decode the whole field ``data``: its value, or given an empty
    ``members`` list the template :func:`_rebuild` copies it from."""
    if len(_DECODED_KEYS) >= _TABLE_MAX:
        _DECODED_KEYS.clear()
        _TEMPLATES.clear()      # their dict keys are the old table's
    out: list = []
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
    return out[0] if members is None else (out, members)


def _rebuild(template: Any, members: Iterable[tuple]) -> Any:
    """A fresh copy of the decoded container ``template``.

    ``members`` lists its member containers as ``(slot, member, the
    member's own members, is_tuple)``.  Each list and dict is one
    ``copy()`` and each tuple is rebuilt; leaves and dict keys stay the
    template's own objects.
    """
    copy = template.copy()
    for slot, member, inner, is_tuple in members:
        member = member.copy() if inner is None else _rebuild(member, inner)
        copy[slot] = tuple(member) if is_tuple else member
    return copy


def _plain_class(value: Any) -> type:
    """The plain type a subclass instance marshals as (the slow path)."""
    for base in _PLAIN:
        if isinstance(value, base):
            return base
    raise MarshalError(
        f"cannot marshal {type(value).__name__}: only plain data "
        f"(None/bool/int/float/str/bytes/list/tuple/dict) is allowed")


def _key_piece(key: Any) -> bytes:
    """The encoded piece of a dict key the key table does not hold."""
    if not isinstance(key, str):
        raise MarshalError("dict keys must be strings")
    raw = key.encode()
    piece = _pack_header(b"S", len(raw)) + raw
    if key.__class__ is str and len(raw) <= _KEY_MAX_BYTES:
        _ENCODED_KEYS[key] = piece
    return piece


def _emit_members(members: Iterable[Any], add: Callable[[bytes], None],
                  mapping: Optional[dict] = None) -> None:
    """Append the pieces of each value in ``members`` through ``add`` —
    or, given the ``mapping`` whose sorted keys ``members`` are, of each
    key and its value.  Leaves are emitted here; containers recurse."""
    key_pieces = _ENCODED_KEYS
    for value in members:
        if mapping is not None:
            piece = (key_pieces.get(value) if value.__class__ is str
                     else None)
            add(piece if piece is not None else _key_piece(value))
            value = mapping[value]
        cls = value.__class__
        while True:     # a second trip only for an instance of a subclass
            if cls is str:
                raw = value.encode()
                size = len(raw)
                add(_S_HEADERS[size] if size < 256
                    else _pack_header(b"S", size))
                add(raw)
            elif cls is int:
                raw = value.to_bytes((value.bit_length() + 8) // 8 or 1,
                                     "big", signed=True)
                add(_pack_header(b"I", len(raw)))
                add(raw)
            elif cls is float:
                add(_pack_float(b"D", value))
            elif cls is dict:
                try:
                    keys = sorted(value)
                except TypeError:   # mixed key types do not even sort
                    raise MarshalError("dict keys must be strings") from None
                add(_pack_header(b"M", len(keys)))
                _emit_members(keys, add, value)
            elif cls is list or cls is tuple:
                add(_pack_header(b"L" if cls is list else b"U", len(value)))
                _emit_members(value, add)
            elif cls is bool:
                add(b"T" if value else b"F")
            elif value is None:
                add(b"N")
            elif cls is bytes:
                add(_pack_header(b"B", len(value)))
                add(value)
            else:
                cls = _plain_class(value)
                continue
            break


def _decode_members(into: Any, count: int, data: bytes, text: str,
                    pos: int, members: Optional[list]) -> int:
    """Decode ``count`` members from ``pos`` into the dict or list
    ``into`` (a dict's members are key/value pairs) and return the
    cursor past them.  ``text`` is ``data`` decoded as latin-1, so an
    ASCII string is one slice of it.  Leaves are decoded here;
    containers recurse.  Unless ``members`` is ``None``, each member
    container of ``into`` is added to it as :func:`_rebuild` lists
    them."""
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
                members.append((slot, value, inner or None, tag == _T_TUPLE))
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
