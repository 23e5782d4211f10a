"""Deterministic argument marshalling.

The paper assumes "a stub for each RPC call that marshalls arguments ...
From the perspective of gRPC, then, the arguments are treated as one
continuous untyped field that is copied to and from messages."  This
module produces that field: a compact, self-describing, deterministic
binary encoding of plain Python data (None, bool, int, float, str, bytes,
list, tuple, dict with string keys).

Determinism matters for the reproduction: dict entries are encoded in
sorted key order, so the same logical arguments always produce the same
bytes — and therefore the same message sizes in the benchmarks.

Hot-path structure: :func:`marshal` is one pass — each value's header
(tag + length, a single struct pack) and payload are appended to a list
of pieces that one ``b"".join`` turns into the field; :func:`unmarshal`
walks the ``bytes`` object with a cursor, slicing each payload exactly
once; :func:`marshalled_size` is a separate counting pass for callers
that want a size without an encoding (``marshal`` itself never sizes).
Dispatch is by class identity, most frequent type first; subclasses of
the plain types (``IntEnum``, ``OrderedDict``, namedtuples ...) resolve
to their plain base and go round the same ladder again.  PR 7's design —
size pre-pass, preallocated buffer, in-place packs, ``memoryview``
decode — was measured 3x slower on encode and 1.5x slower on decode
(``docs/performance.md``); the wire format never changed, and
``tests/test_marshal_roundtrip.py`` pins it against bytes that encoder
produced.

Marshalling is the one real-CPU cost every call pays twice, so the
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
from typing import Any, Callable, Optional

from repro.errors import MarshalError

__all__ = ["marshal", "unmarshal", "marshalled_size", "install_profiler"]

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

# Tag bytes as the integers that indexing a ``bytes`` object yields.
_T_NONE, _T_TRUE, _T_FALSE = ord("N"), ord("T"), ord("F")
_T_INT, _T_FLOAT, _T_STR, _T_BYTES = ord("I"), ord("D"), ord("S"), ord("B")
_T_LIST, _T_TUPLE, _T_DICT = ord("L"), ord("U"), ord("M")

_PLAIN = (str, int, float, dict, list, tuple, bytes)


def marshal(value: Any) -> bytes:
    """Encode ``value`` into the untyped argument field."""
    prof = _PROFILER
    started = perf_counter() if prof is not None else 0.0
    pieces: list = []
    _emit(value, pieces.append)
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
    pos = 0                         # the cursor ``decode`` advances

    def decode() -> Any:
        nonlocal pos
        tag = data[pos]
        pos += 1
        if tag == _T_STR or tag == _T_INT or tag == _T_BYTES:
            stop = pos + 4 + _unpack_u32_from(data, pos)[0]
            if stop > end:
                raise MarshalError("truncated value")
            raw = data[pos + 4:stop]
            pos = stop
            if tag == _T_STR:
                return raw.decode()
            if tag == _T_INT:
                return int.from_bytes(raw, "big", signed=True)
            return raw
        if tag == _T_FLOAT:
            pos += 8
            return _unpack_f64_from(data, pos - 8)[0]
        if tag == _T_DICT:
            count = _unpack_u32_from(data, pos)[0]
            pos += 4
            result = {}
            for _ in range(count):
                key = decode()
                result[key] = decode()
            return result
        if tag == _T_LIST or tag == _T_TUPLE:
            count = _unpack_u32_from(data, pos)[0]
            pos += 4
            items = [decode() for _ in range(count)]
            return items if tag == _T_LIST else tuple(items)
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_NONE:
            return None
        raise MarshalError(
            f"unknown tag byte {bytes((tag,))!r} at offset {pos - 1}")

    try:
        value = decode()
    except (IndexError, struct.error):
        # Reading a tag, length or float past the end of the field.
        raise MarshalError("truncated value") from None
    finally:
        # ``decode`` recurses, so it sits in its own closure: a reference
        # cycle that would keep the field alive until the collector ran.
        decode = None
    if pos != end:
        raise MarshalError(f"{end - pos} trailing bytes after value")
    if prof is not None:
        prof.on_unmarshal(end, perf_counter() - started)
    return value


def marshalled_size(value: Any) -> int:
    """Size in bytes of the encoded value — a pure counting pass.

    Never materializes the encoding, so a size query costs arithmetic,
    not allocation.
    """
    cls = value.__class__
    while True:     # a second trip only for an instance of a subclass
        if cls is str:
            return 5 + _utf8_len(value)
        if cls is int:
            return 5 + ((value.bit_length() + 8) // 8 or 1)
        if cls is float:
            return 9
        if cls is dict:
            total = 5
            for key in value:
                if not isinstance(key, str):
                    raise MarshalError("dict keys must be strings")
                total += 5 + _utf8_len(key) + marshalled_size(value[key])
            return total
        if cls is list or cls is tuple:
            return 5 + sum(map(marshalled_size, value))
        if cls is bool or value is None:
            return 1
        if cls is bytes:
            return 5 + len(value)
        cls = _plain_class(value)


def _utf8_len(s: str) -> int:
    # ASCII (the overwhelmingly common case) needs no encode to measure.
    if s.isascii():
        return len(s)
    return len(s.encode("utf-8"))


def _plain_class(value: Any) -> type:
    """The plain type a subclass instance marshals as (the slow path)."""
    for base in _PLAIN:
        if isinstance(value, base):
            return base
    raise MarshalError(
        f"cannot marshal {type(value).__name__}: only plain data "
        f"(None/bool/int/float/str/bytes/list/tuple/dict) is allowed")


def _emit(value: Any, add: Callable[[bytes], None]) -> None:
    """Append the header and payload pieces of ``value`` through ``add``."""
    cls = value.__class__
    while True:     # a second trip only for an instance of a subclass
        if cls is str:
            raw = value.encode()
            add(_pack_header(b"S", len(raw)))
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
            except TypeError:       # mixed key types do not even sort
                raise MarshalError("dict keys must be strings") from None
            add(_pack_header(b"M", len(keys)))
            for key in keys:
                if not isinstance(key, str):
                    raise MarshalError("dict keys must be strings")
                _emit(key, add)
                _emit(value[key], add)
        elif cls is list or cls is tuple:
            add(_pack_header(b"L" if cls is list else b"U", len(value)))
            for item in value:
                _emit(item, add)
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
        return
