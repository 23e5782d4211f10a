"""Round-trip, golden-vector and error-path coverage for the codec.

The marshaller has been rebuilt three times (size pre-pass +
preallocated buffer + memoryview decode; one-pass emit-and-join +
cursor decode; key tables + leaves inline in the container loops)
under the promise of a byte-identical wire format.  Two things pin that
promise:

* a seeded random-value fuzzer — for every generated value ``v`` it
  must hold that ``unmarshal(marshal(v)) == v``;
* golden vectors — encodings produced by the PR 7 encoder at the last
  commit that had it, committed below as hex (encodings above 256
  bytes as their SHA-256, which pins the bytes just as hard), so the
  format no longer rests on an encoder agreeing with itself.

The generator is seeded, so a failure reproduces exactly; shrinking is
manual but the failing value prints in the assertion message.
"""

import collections
import enum
import gc
import hashlib
import importlib
import random

import pytest

from repro.errors import MarshalError
from repro.stubs.marshal import install_profiler, marshal, unmarshal

# The module itself, for its key tables (the package re-exports the
# ``marshal`` function under the submodule's name).
codec = importlib.import_module("repro.stubs.marshal")

SEED = 0xC0FFEE
CASES = 400


def _gen_value(rng: random.Random, depth: int = 0):
    """One random plain-data value; containers shrink with depth."""
    scalar_only = depth >= 4
    kind = rng.randrange(8 if scalar_only else 11)
    if kind == 0:
        return None
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        # Ints spanning sign, zero, and widths past one machine word.
        return rng.choice([
            0, -1, 1, 255, -256, 2 ** 31 - 1, -2 ** 63,
            rng.randrange(-2 ** 100, 2 ** 100)])
    if kind == 3:
        return rng.choice([0.0, -0.0, 1.5, -2.25e10,
                           float(rng.randrange(-10 ** 6, 10 ** 6)) / 7])
    if kind == 4:
        return ""
    if kind == 5:
        # Unicode beyond ASCII: accents, CJK, emoji, combining marks.
        alphabet = "abcdé縦書きüñ🚀́☃"
        return "".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(0, 40)))
    if kind == 6:
        return bytes(rng.randrange(256)
                     for _ in range(rng.randrange(0, 48)))
    if kind == 7:
        # Large-ish payloads: a blob or a long ASCII string.
        if rng.random() < 0.5:
            return "x" * rng.randrange(1000, 5000)
        return bytes(rng.randrange(256) for _ in range(2048))
    if kind == 8:
        return [_gen_value(rng, depth + 1)
                for _ in range(rng.randrange(0, 6))]
    if kind == 9:
        return tuple(_gen_value(rng, depth + 1)
                     for _ in range(rng.randrange(0, 6)))
    return {f"k{i}-{rng.randrange(100)}": _gen_value(rng, depth + 1)
            for i in range(rng.randrange(0, 6))}


def test_seeded_fuzz_roundtrip():
    rng = random.Random(SEED)
    for case in range(CASES):
        value = _gen_value(rng)
        encoded = marshal(value)
        decoded = unmarshal(encoded)
        assert decoded == value, (case, value)
        # Tuples survive as tuples, lists as lists (== conflates them
        # only across list/tuple at the top level when equal; type-check
        # the top level explicitly).
        assert type(decoded) is type(value) or isinstance(value, bool), \
            (case, value)


EDGE_VALUES = [
    None, True, False, 0, -1, 2 ** 200, -2 ** 200, 0.0, -1.5,
    "", "plain", "Ünïcode 縦書き 🚀", "́combining",
    b"", b"\x00\xff" * 100,
    [], (), {},
    [[], [[]], [[], [[]]]],
    {"nested": {"deeper": {"deepest": [1, (2, 3), {"x": None}]}}},
    {"": ""},                       # empty key and value
    ["x" * 10_000],                 # large payload in a container
    {"big": b"\xab" * 10_000},
]


def test_explicit_edge_values():
    for value in EDGE_VALUES:
        encoded = marshal(value)
        assert unmarshal(encoded) == value


def test_sorted_dict_keys_keep_encoding_deterministic():
    a = marshal({"b": 1, "a": 2, "c": 3})
    b = marshal({"c": 3, "a": 2, "b": 1})
    assert a == b


def test_encode_rejects_non_plain_values_and_keys():
    with pytest.raises(MarshalError):
        marshal(object())
    for keys in ({1: "int key"}, {1: "mixed", "a": "keys"},
                 {b"k": "bytes key"}, {"ok": {None: "nested"}}):
        with pytest.raises(MarshalError, match="dict keys"):
            marshal(keys)


# ----------------------------------------------------------------------
# Golden vectors: bytes the previous encoder produced (parent of PR 23)
# ----------------------------------------------------------------------

GOLDEN_SEED = 23


def _bulk_value(rows: int, blob: int) -> dict:
    """The shape the perf benchmark's ``stub_bulk`` workload ships."""
    return {"key": "probe", "value": {
        "rows": [{"id": j, "name": f"row-0-{j}", "score": j / 7.0,
                  "tags": ["a", "bb", "ccc"], "ok": j % 2 == 0}
                 for j in range(rows)],
        "blob": "y" * blob, "n": 1}}


class Color(enum.IntEnum):
    RED = 1
    BLUE = 300


class Tagged(str):
    pass


Point = collections.namedtuple("Point", "x y")

#: Subclasses of the plain types, and what each must decode to.
SUBCLASS_VALUES = [
    (Color.BLUE, 300),
    (Tagged("tägged"), "tägged"),
    (collections.OrderedDict([("b", 1), ("a", Color.RED)]),
     {"a": 1, "b": 1}),
    (Point(1, 2.5), (1, 2.5)),
    ({Tagged("k"): [Point(0, 0)]}, {"k": [(0, 0)]}),
]

# _bulk_value(2, 8)
GOLDEN_BULK_SMALL = (
    "4d0000000253000000036b6579530000000570726f6265530000000576616c75"
    "654d000000035300000004626c6f625300000008797979797979797953000000"
    "016e4900000001015300000004726f77734c000000024d000000055300000002"
    "696449000000010053000000046e616d655300000007726f772d302d30530000"
    "00026f6b54530000000573636f72654400000000000000005300000004746167"
    "734c000000035300000001615300000002626253000000036363634d00000005"
    "5300000002696449000000010153000000046e616d655300000007726f772d30"
    "2d3153000000026f6b46530000000573636f7265443fc2492492492492530000"
    "0004746167734c00000003530000000161530000000262625300000003636363")
# _bulk_value(16, 512), the size the benchmark ships (2212 bytes).
GOLDEN_BULK_FULL = ("sha256:98433a8af8d8dcb545eb7d5977ef0510"
                    "4064e27c88a1fc4bf46ee5fff41a836e")
# One entry per EDGE_VALUES element, in order.
GOLDEN_EDGES = [
    "4e",
    "54",
    "46",
    "490000000100",
    "4900000001ff",
    "490000001a0100000000000000000000000000000000000000000000000000",
    "490000001aff00000000000000000000000000000000000000000000000000",
    "440000000000000000",
    "44bff8000000000000",
    "5300000000",
    "5300000005706c61696e",
    "5300000018c39c6ec3af636f646520e7b8a6e69bb8e3818d20f09f9a80",
    "530000000bcc81636f6d62696e696e67",
    "4200000000",
    "42000000c800ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00"
    "ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00"
    "ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00"
    "ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00"
    "ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00"
    "ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00"
    "ff00ff00ff00ff00ff00ff00ff",
    "4c00000000",
    "5500000000",
    "4d00000000",
    "4c000000034c000000004c000000014c000000004c000000024c000000004c00"
    "0000014c00000000",
    "4d0000000153000000066e65737465644d000000015300000006646565706572"
    "4d000000015300000007646565706573744c0000000349000000010155000000"
    "024900000001024900000001034d000000015300000001784e",
    "4d0000000153000000005300000000",
    "sha256:bd03e08a33f16dd61b60c1d5f02e66ace57e8a971ed1cf2b3fbc6c542"
    "085948e",
    "sha256:9a13f1ca091c9a12d8d3f5fe3968a1b5785ce2038a3ffd3a25cf8db1c"
    "6a54fcb",
]
# One entry per SUBCLASS_VALUES element, in order.
GOLDEN_SUBCLASSES = [
    "4900000002012c",
    "530000000774c3a467676564",
    "4d00000002530000000161490000000101530000000162490000000101",
    "5500000002490000000101444004000000000000",
    "4d0000000153000000016b4c0000000155000000024900000001004900000001"
    "00",
]
# 64 draws of _gen_value(random.Random(GOLDEN_SEED)), in order.
GOLDEN_FUZZ = [
    "5300000000",
    "54",
    "sha256:17eda9d7ae65532d425c1103fda4f7b3a314ba9e9b72d39309dfcd465"
    "9d870dc",
    "4200000026595721931e0ba45bd1ef388aefcea5fd19ff8bce134fdf411a3a12"
    "30d17285846b10442c0275",
    "4e",
    "sha256:3e7c019437a43867d4f117c5436374bfa20ac5abe27ad8b3094b928e9"
    "0dbb3fa",
    "sha256:6687243e189ca501bb921920e595a84b25e9d62d920797a995cbe1163"
    "0141db5",
    "46",
    "4d00000000",
    "5300000000",
    "420000002d5c9c2c0b6da888a2c33c347de49a2116b62b0f6e4dfc6f9c55f3ca"
    "581d79fdaeddb868a23b9b69c5f7b0206d6c",
    "sha256:e291d4865b2743ce9575992ac0279470c5908c654a2a0d2d3540b4875"
    "7a2d118",
    "4e",
    "530000003ee69bb861c3bce69bb863c3bcc3bc64c3b1e69bb864e2988361e298"
    "83f09f9a8061c3b1c3bce3818dcc816163e29883e2988364e69bb8cc81e69bb8"
    "61cc81",
    "530000000d62cc81c3a9cc81c3a9c3bccc81",
    "5500000002464e",
    "443ff8000000000000",
    "420000002690b0ca7b0a41233991cdb7d2be30141decf7b4a74e59468369ddb3"
    "6106fd1638a8ed39a299c8",
    "5500000000",
    "4c00000001530000000fe29883c3a9e3818de7b8a6c3bcc3a9",
    "4d00000000",
    "4900000002ff00",
    "420000001c0e0587d73346b8de09753ab12720b0f88c214821156755331689cb"
    "96",
    "530000002e62c3b162e29883e7b8a66464e29883c3b1e3818d64f09f9a80e298"
    "8363c3b1e69bb863e69bb8e69bb8c3b1626164",
    "490000000200ff",
    "54",
    "sha256:8387f79c9b17097361149ef031db169220d747a000de60b90a4598f27"
    "10c4ed4",
    "sha256:28e1a48a026b8340019006e9c8f40ef3dd748a77b9194094be7b248e0"
    "f2bff5b",
    "46",
    "sha256:c3b86f7ff85178ad3999a14419abb732fbd782d6a678c13d4dc138534"
    "536149d",
    "530000001261c3a9c3b16163c3a9f09f9a80cc8162cc81",
    "5300000000",
    "448000000000000000",
    "4d00000000",
    "5500000001530000001f6263e7b8a6e3818de3818df09f9a80c3bccc81cc81e7"
    "b8a662c3a9e7b8a661",
    "4900000001ff",
    "44c0f03ff924924925",
    "5300000000",
    "4e",
    "490000000d0d2fdfb6c3f3a65af3448a7942",
    "5500000000",
    "5300000045e69bb86461c3a9c3b161e7b8a6626163f09f9a80c3bce29883cc81"
    "e298836261c3b1f09f9a80cc81f09f9a80c3b1e29883e2988362f09f9a80c3bc"
    "c3b1c3a9e29883cc8164",
    "sha256:b8731f576ff49a0dbeb24d640f504dbd1b35645ddc205a5ee96773904"
    "fd21c92",
    "4c0000000253000000004900000001ff",
    "44c214f46b04000000",
    "448000000000000000",
    "4200000029e4ac42621e5fe5a5a435d931358f0c68b77020cfa2817d41f89ded"
    "3a60c64c0a5fe1529638905efbf8",
    "4c00000005530000000c61e3818dc3a9c3a963c3a9624e530000000044c0f540"
    "20000000004e",
    "46",
    "4e",
    "sha256:01aed320602817520a70baa0cc25833f95a687ce254ebcfa74548048f"
    "8e6a2c3",
    "4900000002ff00",
    "420000001c39039fd0384b051abe5a52e38fab17e7bc5fea6bcfb667c514f68c"
    "0a",
    "4c00000000",
    "443ff8000000000000",
    "490000000101",
    "490000000101",
    "sha256:8cc4d1a8630c95cc9f3c288d567cb64063428c872672cc9f4dc3deb51"
    "0d4aa43",
    "448000000000000000",
    "44c214f46b04000000",
    "5500000001490000000200ff",
    "5300000000",
    "4440ec56c924924925",
    "490000000200ff",
]


def _golden_cases():
    """Every ``(value, pinned encoding)`` pair above."""
    rng = random.Random(GOLDEN_SEED)
    fuzz = [_gen_value(rng) for _ in GOLDEN_FUZZ]
    assert len(GOLDEN_EDGES) == len(EDGE_VALUES)
    assert len(GOLDEN_FUZZ) >= 50
    return ([(_bulk_value(2, 8), GOLDEN_BULK_SMALL),
             (_bulk_value(16, 512), GOLDEN_BULK_FULL)]
            + list(zip(EDGE_VALUES, GOLDEN_EDGES))
            + list(zip(fuzz, GOLDEN_FUZZ)))


def test_golden_vectors_pin_the_wire_format():
    for case, (value, pinned) in enumerate(_golden_cases()):
        encoded = marshal(value)
        if pinned.startswith("sha256:"):
            digest = hashlib.sha256(encoded).hexdigest()
            assert "sha256:" + digest == pinned, (case, value)
        else:
            assert encoded.hex() == pinned, (case, value)
            # Decoding is pinned by the committed bytes themselves,
            # not by whatever today's encoder emits.
            assert unmarshal(bytes.fromhex(pinned)) == value, (case, value)
        assert unmarshal(encoded) == value, (case, value)


def test_subclasses_encode_as_their_plain_base():
    assert len(GOLDEN_SUBCLASSES) == len(SUBCLASS_VALUES)
    for (value, plain), pinned in zip(SUBCLASS_VALUES, GOLDEN_SUBCLASSES):
        encoded = marshal(value)
        assert encoded.hex() == pinned, value
        assert encoded == marshal(plain), value
        decoded = unmarshal(encoded)
        assert decoded == plain and type(decoded) is type(plain), value


def test_every_strict_prefix_raises_marshal_error():
    """Truncation anywhere — mid-tag, mid-length, mid-payload, between
    container items — is a MarshalError: never IndexError/struct.error
    (pytest.raises lets any other exception through as a failure) and
    never a silently short value."""
    for value, _ in _golden_cases():
        encoded = marshal(value)
        for cut in range(len(encoded)):
            with pytest.raises(MarshalError):
                unmarshal(encoded[:cut])


def test_trailing_garbage_and_unknown_tags_raise_marshal_error():
    for value, _ in _golden_cases():
        encoded = marshal(value)
        with pytest.raises(MarshalError, match="trailing"):
            unmarshal(encoded + b"\x00")
        with pytest.raises(MarshalError, match="trailing"):
            unmarshal(encoded + encoded)
    known = set(b"NTFIDSBLUM")
    for tag in range(256):
        if tag not in known:
            with pytest.raises(MarshalError, match="unknown tag"):
                unmarshal(bytes((tag,)) + b"\x00" * 8)
    # ... also when nested: as a list item, and as a dict value.
    with pytest.raises(MarshalError, match="unknown tag"):
        unmarshal(bytes.fromhex("4c00000001") + b"?")
    with pytest.raises(MarshalError, match="unknown tag"):
        unmarshal(bytes.fromhex("4d00000001" "530000000161") + b"?")


def test_invalid_utf8_raises_marshal_error():
    # "\xc3(" is a two-byte lead followed by a non-continuation byte.
    with pytest.raises(MarshalError, match="UTF-8"):
        unmarshal(bytes.fromhex("5300000002" "c328"))
    with pytest.raises(MarshalError, match="UTF-8"):      # as a dict key
        unmarshal(bytes.fromhex("4d00000001" "5300000001ff" "4e"))


def test_list_dict_key_raises_marshal_error():
    # {[]: None}: the key's tag is L, not S.
    with pytest.raises(MarshalError, match="dict keys must be strings"):
        unmarshal(bytes.fromhex("4d00000001" "4c00000000" "4e"))


def test_int_dict_key_raises_marshal_error():
    # {5: None} would decode to a value marshal refuses to re-encode.
    with pytest.raises(MarshalError, match="dict keys must be strings"):
        unmarshal(bytes.fromhex("4d00000001" "490000000105" "4e"))


def test_unmarshal_accepts_any_bytes_like_field():
    value = _bulk_value(2, 8)
    encoded = marshal(value)
    assert type(encoded) is bytes
    for field in (encoded, bytearray(encoded), memoryview(encoded),
                  memoryview(bytearray(b"\x00" + encoded))[1:]):
        assert unmarshal(field) == value
    decoded = unmarshal(bytearray(marshal(b"blob")))
    assert decoded == b"blob" and type(decoded) is bytes


def test_unmarshal_leaves_no_cyclic_garbage():
    """The recursive decoder must not outlive its call in a reference
    cycle: with the collector off, decoding leaves nothing for it."""
    encoded = marshal(_bulk_value(16, 512))
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            unmarshal(encoded)
        for cut in (0, 7, len(encoded) // 2):   # the error paths too
            with pytest.raises(MarshalError):
                unmarshal(encoded[:cut])
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# The key tables
# ----------------------------------------------------------------------

def test_decodes_share_dict_keys_but_never_containers():
    encoded = marshal(_bulk_value(16, 512))
    a, b = unmarshal(encoded), unmarshal(encoded)
    assert a == b
    assert a is not b and a["value"] is not b["value"]
    assert a["value"]["rows"] is not b["value"]["rows"]
    assert all(x is y for x, y in zip(a, b))
    # Every record of either decode holds the same key objects ...
    rows = a["value"]["rows"] + b["value"]["rows"]
    names = list(rows[0])
    for row in rows:
        assert len(row) == len(names)
        assert all(key is name for key, name in zip(row, names))
    # ... and containers of its own.
    assert len({id(row) for row in rows}) == len(rows)
    assert len({id(row["tags"]) for row in rows}) == len(rows)


def test_decode_key_table_stays_bounded():
    for i in range(10_000):
        unmarshal(marshal({f"distinct-key-{i}": i}))
        assert len(codec._DECODED_KEYS) <= codec._TABLE_MAX
    long_key = "k" * (codec._KEY_MAX_BYTES + 1)
    decoded = unmarshal(marshal({long_key: None, "k" * 64: None}))
    assert decoded == {long_key: None, "k" * 64: None}
    assert long_key not in codec._DECODED_KEYS
    assert "k" * 64 in codec._DECODED_KEYS
    # The bound is on UTF-8 bytes, not code points: 33 x 2 bytes.
    unmarshal(marshal({"é" * 33: None}))
    assert "é" * 33 not in codec._DECODED_KEYS


def test_encode_key_table_flood_leaves_the_wire_unchanged():
    marshal({f"flood-{i}": i for i in range(2 * codec._TABLE_MAX)})
    for i in range(2 * codec._TABLE_MAX):
        marshal({f"flood-again-{i}": i})
        assert len(codec._ENCODED_KEYS) <= codec._TABLE_MAX
    marshal({"k" * 65: None})
    assert "k" * 65 not in codec._ENCODED_KEYS
    test_golden_vectors_pin_the_wire_format()
    test_subclasses_encode_as_their_plain_base()


def test_str_subclass_keys_bypass_the_encode_table():
    class Loud(str):
        def encode(self, *args):
            return str.encode(self.upper(), *args)

    codec._ENCODED_KEYS.clear()
    marshal({Tagged("only-tagged"): 1})
    assert "only-tagged" not in codec._ENCODED_KEYS
    # A key equal to a stored one still takes its own class's path.
    marshal({"shout": 1})
    assert "shout" in codec._ENCODED_KEYS
    assert marshal({Loud("shout"): 1}) == marshal({"SHOUT": 1})


class _CountingProfiler:
    def __init__(self):
        self.marshals, self.unmarshals = [], []

    def on_marshal(self, nbytes, seconds):
        assert seconds >= 0.0
        self.marshals.append(nbytes)

    def on_unmarshal(self, nbytes, seconds):
        assert seconds >= 0.0
        self.unmarshals.append(nbytes)


def test_profiler_hears_each_call_exactly_once_with_its_byte_count():
    """The perf tracer's ``stubs.bytes_per_call`` is the sum of these
    reports: one per top-level call (never one per nested value), none
    for a call that raised."""
    prof = _CountingProfiler()
    previous = install_profiler(prof)
    try:
        value = _bulk_value(16, 512)
        encoded = marshal(value)
        assert prof.marshals == [len(encoded)] and prof.unmarshals == []
        assert unmarshal(memoryview(encoded)) == value
        with pytest.raises(MarshalError):
            marshal({"k": object()})
        with pytest.raises(MarshalError):
            unmarshal(encoded[:-1])
        assert prof.marshals == [len(encoded)]
        assert prof.unmarshals == [len(encoded)]
    finally:
        assert install_profiler(previous) is prof
