"""The wire described once (``repro.core.queries.wire``).

``Query`` / ``QueryResult`` declare their wire schema as dataclass
field metadata; the HTTP dict codec, the broker line codec
(``broker/requests.py``) and the fleet result block
(``broker/frames.py``) are loops over it.  Pinned here:

* every codec round-trips arbitrary envelopes field for field, and
  exactly the ``details`` entries it is specified to carry;
* the bytes, line records and JSON of a fixed result / query list equal
  goldens captured at the last commit that spelled the fields out by
  hand (52cca6f), so the derivation changed no wire format;
* a field declared with wire metadata reaches all three boundaries
  with no other edit - there is no second field list left to drift.
"""

import json
import math
import os
import struct
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.broker.frames import (RESULT_DTYPE, SketchFrame,
                                 attach_sketch_frames, decode_result_block,
                                 decode_sketch_block, encode_result_block,
                                 encode_sketch_block, extract_sketch_frames)
from repro.broker.frames import (decode_query_block, encode_query_block,
                                 query_dtype)
from repro.broker.requests import (TOPK_KEY, QueryResponse, decode,
                                   decode_result, encode_query,
                                   encode_result, query_from_dict,
                                   query_to_dict, result_from_dict,
                                   result_to_dict)
from repro.core.merge import MOMENTS_KEY, N_Q_KEY
from repro.core.queries import (AggFunc, Query, QueryResult, Rectangle,
                                WireSchema)
from repro.sketch.registry import SKETCH_KEY

ENVELOPE = [f.key for f in WireSchema(QueryResult).fields]
INF = math.inf


def same_envelope(got: QueryResult, want: QueryResult) -> bool:
    """Field-for-field identity, telling ``-0.0`` from ``0.0`` and
    equating NaN with NaN."""
    def bits(x):
        return ("nan" if isinstance(x, float) and math.isnan(x)
                else (type(x), x, math.copysign(1, x)))
    return all(bits(getattr(got, k)) == bits(getattr(want, k))
               for k in ENVELOPE)


# ------------------------------------------------------------------ #
# round trips
# ------------------------------------------------------------------ #
floats = st.one_of(
    st.floats(allow_nan=False),         # +-0.0, +-inf, subnormals
    st.sampled_from([math.nan, -0.0, 5e-324, 2.2250738585072014e-308,
                     INF, -INF, 1.7976931348623157e308]))
finite = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(-2 ** 63, 2 ** 63 - 1)


@st.composite
def envelopes(draw):
    result = QueryResult(draw(floats), draw(floats), draw(floats),
                         draw(st.booleans()), draw(counts), draw(counts))
    if draw(st.booleans()):
        result.details[N_Q_KEY] = draw(finite)
    if draw(st.booleans()):
        result.details[MOMENTS_KEY] = (draw(finite), draw(finite),
                                       draw(finite))
    if draw(st.booleans()):
        result.details["ci"] = "unavailable"
    if draw(st.booleans()):
        result.details[SKETCH_KEY] = draw(st.binary(max_size=40))
    if draw(st.booleans()):
        result.details[TOPK_KEY] = draw(st.lists(
            st.tuples(finite, st.integers(0, 2 ** 40)).map(list),
            max_size=4))
    return result


class TestRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(envelopes(), max_size=5), st.integers(0, 10 ** 9))
    def test_every_codec_carries_every_envelope(self, results, qid):
        block = decode_result_block(
            encode_result_block(results).tobytes())
        attach_sketch_frames(block, decode_sketch_block(
            encode_sketch_block(extract_sketch_frames(results))))
        assert len(block) == len(results)
        for want, via_block in zip(results, block):
            # fleet block + sidecar: the merge inputs and the blob
            assert same_envelope(via_block, want)
            assert via_block.details == {
                k: v for k, v in want.details.items() if k != TOPK_KEY}
            # broker line: the envelope only
            response = decode_result(encode_result(qid, want))
            assert isinstance(response, QueryResponse)
            assert response.query_id == qid
            assert same_envelope(response.result, want)
            assert response.result.details == {}
            # HTTP JSON: the envelope and a TOPK answer's items
            via_http = result_from_dict(
                json.loads(json.dumps(result_to_dict(want))))
            assert same_envelope(via_http, want)
            assert via_http.details == {
                k: [tuple(item) for item in v]
                for k, v in want.details.items() if k == TOPK_KEY}

    @pytest.mark.parametrize("payload", [
        {}, {"agg": "SUM"}, {"agg": "NOPE", "attr": "a",
                             "predicate_attrs": [], "lo": [], "hi": []},
        {"agg": "SUM", "attr": "a", "predicate_attrs": ["x"],
         "lo": 1.0, "hi": [2.0]}])
    def test_malformed_query_payload_is_a_value_error(self, payload):
        with pytest.raises(ValueError):
            query_from_dict(payload)

    def test_short_records_are_value_errors(self):
        with pytest.raises(ValueError):
            decode("Q|1|SUM|fare|x|0.0")            # no upper bounds
        with pytest.raises(ValueError):
            decode_result("R|1|2.0|0.0|0.0|1|3")    # no n_partial
        with pytest.raises(ValueError):
            result_from_dict({"estimate": 1.0})


# ------------------------------------------------------------------ #
# goldens captured at 52cca6f (hand-written codecs)
# ------------------------------------------------------------------ #
def golden_results():
    results = [
        QueryResult(1234.5, 0.25, 1.5, False, 3, 2),
        QueryResult(-0.0, 0.0, 0.0, True, 0, 0),
        QueryResult(INF, 5e-324, 1e308, False, 2 ** 62, 7),
        QueryResult(math.nan, 0.0, 0.0, False, 0, 1),
        QueryResult(0.1, 2.2250738585072014e-308, 1 / 3, True, 12, 0)]
    results[2].details[N_Q_KEY] = 17.0
    results[3].details["ci"] = "unavailable"
    results[3].details[MOMENTS_KEY] = (5.0, 12.5, 40.25)
    results[4].details[N_Q_KEY] = 0.0
    return results


def golden_queries():
    return [
        Query(AggFunc.SUM, "fare", ("pickup",),
              Rectangle((1.5,), (20.25,))),
        Query(AggFunc.COUNT, "fare", ("pickup", "dist"),
              Rectangle((-INF, 0.1), (INF, 1e300))),
        Query(AggFunc.PERCENTILE, "fare", ("pickup",),
              Rectangle((-INF,), (INF,)), 0.5),
        Query(AggFunc.TOPK, "fare", ("pickup",),
              Rectangle((-INF,), (INF,)), 3),
        Query(AggFunc.AVG, "tip", ("a", "b", "c"),
              Rectangle((-0.0, 5e-324, -1e-7), (0.0, 1.0, 1 / 3)))]


GOLDEN_DTYPE = [
    ("estimate", "<f8", 0), ("variance_catchup", "<f8", 8),
    ("variance_sample", "<f8", 16), ("exact", "|i1", 24),
    ("n_covered", "<i8", 25), ("n_partial", "<i8", 33),
    ("has_n_q", "|i1", 41), ("n_q", "<f8", 42),
    ("has_moments", "|i1", 50), ("m_count", "<f8", 51),
    ("m_sum", "<f8", 59), ("m_sumsq", "<f8", 67),
    ("ci_unavailable", "|i1", 75)]

GOLDEN_BLOCK = (
    "00000000004a9340000000000000d03f000000000000f83f00030000000000"
    "00000200000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000080000000000000000000"
    "00000000000000010000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000000000000000"
    "000000f07f0100000000000000a0c8eb85f3cce17f00000000000000004007"
    "00000000000000010000000000003140000000000000000000000000000000"
    "0000000000000000000000000000000000f87f000000000000000000000000"
    "00000000000000000000000000010000000000000000000000000000000001"
    "000000000000144000000000000029400000000000204440019a9999999999"
    "b93f0000000000001000555555555555d53f010c0000000000000000000000"
    "00000000010000000000000000000000000000000000000000000000000000"
    "0000000000000000")

GOLDEN_RESULT_LINES = [
    "R|40|1234.5|0.25|1.5|0|3|2",
    "R|41|-0.0|0.0|0.0|1|0|0",
    "R|42|inf|5e-324|1e+308|0|4611686018427387904|7",
    "R|43|nan|0.0|0.0|0|0|1",
    "R|44|0.1|2.2250738585072014e-308|0.3333333333333333|1|12|0"]

GOLDEN_QUERY_LINES = [
    "Q|7|SUM|fare|pickup|1.5|20.25",
    "Q|8|COUNT|fare|pickup,dist|-inf,0.1|inf,1e+300",
    "Q|9|PERCENTILE|fare|pickup|-inf|inf|0.5",
    "Q|10|TOPK|fare|pickup|-inf|inf|3.0",
    "Q|11|AVG|tip|a,b,c|-0.0,5e-324,-1e-07|0.0,1.0,0.3333333333333333"]

GOLDEN_RESULT_JSON = [
    '{"estimate": 1234.5, "variance_catchup": 0.25, "variance_sample": '
    '1.5, "exact": false, "n_covered": 3, "n_partial": 2}',
    '{"estimate": -0.0, "variance_catchup": 0.0, "variance_sample": 0.0, '
    '"exact": true, "n_covered": 0, "n_partial": 0}',
    '{"estimate": Infinity, "variance_catchup": 5e-324, '
    '"variance_sample": 1e+308, "exact": false, "n_covered": '
    '4611686018427387904, "n_partial": 7}',
    '{"estimate": NaN, "variance_catchup": 0.0, "variance_sample": 0.0, '
    '"exact": false, "n_covered": 0, "n_partial": 1}',
    '{"estimate": 0.1, "variance_catchup": 2.2250738585072014e-308, '
    '"variance_sample": 0.3333333333333333, "exact": true, "n_covered": '
    '12, "n_partial": 0}']

GOLDEN_QUERY_JSON = [
    '{"agg": "SUM", "attr": "fare", "predicate_attrs": ["pickup"], '
    '"lo": [1.5], "hi": [20.25], "param": null}',
    '{"agg": "COUNT", "attr": "fare", "predicate_attrs": ["pickup", '
    '"dist"], "lo": [-Infinity, 0.1], "hi": [Infinity, 1e+300], '
    '"param": null}',
    '{"agg": "PERCENTILE", "attr": "fare", "predicate_attrs": '
    '["pickup"], "lo": [-Infinity], "hi": [Infinity], "param": 0.5}',
    '{"agg": "TOPK", "attr": "fare", "predicate_attrs": ["pickup"], '
    '"lo": [-Infinity], "hi": [Infinity], "param": 3.0}',
    '{"agg": "AVG", "attr": "tip", "predicate_attrs": ["a", "b", "c"], '
    '"lo": [-0.0, 5e-324, -1e-07], "hi": [0.0, 1.0, '
    '0.3333333333333333], "param": null}']


class TestGoldens:
    def test_result_dtype_layout(self):
        assert [(n, RESULT_DTYPE.fields[n][0].str,
                 RESULT_DTYPE.fields[n][1])
                for n in RESULT_DTYPE.names] == GOLDEN_DTYPE
        assert RESULT_DTYPE.itemsize == 76

    def test_result_block_bytes(self):
        block = encode_result_block(golden_results())
        assert block.tobytes().hex() == GOLDEN_BLOCK
        assert encode_result_block([]).tobytes() == b""
        assert decode_result_block(b"") == []

    def test_line_records(self):
        assert [encode_result(40 + i, r) for i, r in
                enumerate(golden_results())] == GOLDEN_RESULT_LINES
        assert [encode_query(7 + i, q) for i, q in
                enumerate(golden_queries())] == GOLDEN_QUERY_LINES

    def test_http_json(self):
        assert [json.dumps(result_to_dict(r))
                for r in golden_results()] == GOLDEN_RESULT_JSON
        assert [json.dumps(query_to_dict(q))
                for q in golden_queries()] == GOLDEN_QUERY_JSON

    def test_topk_items_ride_after_the_envelope(self):
        result = golden_results()[0]
        result.details[TOPK_KEY] = [[4.5, 3], [1.0, 2]]
        assert json.dumps(result_to_dict(result)) == \
            GOLDEN_RESULT_JSON[0][:-1] + ', "topk": [[4.5, 3], [1.0, 2]]}'


# ------------------------------------------------------------------ #
# drift: one declaration, three boundaries
# ------------------------------------------------------------------ #
PROBE = '''
import json
from repro.broker import frames, requests
from repro.core.queries import QueryResult
result = QueryResult(1.0, probe=2.5)
payload = requests.result_to_dict(result)
line = requests.encode_result(3, result)
block = frames.encode_result_block([result]).tobytes()
print(json.dumps({
    "payload": payload, "line": line,
    "names": list(frames.RESULT_DTYPE.names),
    "back": [requests.result_from_dict(payload).probe,
             requests.decode_result(line).result.probe,
             frames.decode_result_block(block)[0].probe]}))
'''


def test_a_declared_field_reaches_every_boundary(tmp_path):
    """Copy the package, add ONE line to ``core/queries.py``, and all
    three codecs carry the new field both ways."""
    shutil.copytree(Path(repro.__file__).parent, tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "repro" / "core" / "queries.py"
    anchor = "    details: dict = field(default_factory=dict)\n"
    text = source.read_text()
    assert text.count(anchor) == 1
    source.write_text(text.replace(
        anchor, '    probe: float = field(default=0.0, '
                'metadata=wire(float, "<f8"))\n' + anchor))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["payload"] == {
        "estimate": 1.0, "variance_catchup": 0.0, "variance_sample": 0.0,
        "exact": False, "n_covered": 0, "n_partial": 0, "probe": 2.5}
    assert seen["line"] == "R|3|1.0|0.0|0.0|0|0|0|2.5"
    assert seen["names"] == ENVELOPE + ["probe"] + \
        list(RESULT_DTYPE.names[len(ENVELOPE):])
    assert seen["back"] == [2.5, 2.5, 2.5]


def test_details_declares_no_wire_metadata():
    assert ENVELOPE == ["estimate", "variance_catchup", "variance_sample",
                        "exact", "n_covered", "n_partial"]
    assert [f.key for f in WireSchema(Query).fields] == \
        ["agg", "attr", "predicate_attrs", "lo", "hi", "param"]


# ------------------------------------------------------------------ #
# the query block: one fleet OP_QUERY frame per sub-batch
# ------------------------------------------------------------------ #
QUERY_FIELDS = WireSchema(Query).fields


def query_bits(query: Query) -> list:
    """Every wire field of ``query``, numbers as their IEEE-754 bytes
    (so ``-0.0`` differs from ``0.0`` and NaN equals NaN)."""
    def bits(value):
        if isinstance(value, tuple):
            return tuple(map(bits, value))
        if isinstance(value, (int, float)):
            return struct.pack("<d", value)
        return value
    return [bits(f.get(query)) for f in QUERY_FIELDS]


def golden_query_groups():
    """``golden_queries()`` one block per dimensionality: d = 1 holds
    the PERCENTILE / TOPK params and the +-inf bounds, d = 3 ``-0.0``
    and ``5e-324``."""
    queries = golden_queries()
    return {1: [queries[0], queries[2], queries[3]], 2: [queries[1]],
            3: [queries[4]]}


GOLDEN_QUERY_DTYPE = [                  # query_dtype(2)
    ("agg", "<u2", (), 0), ("attr", "<u2", (), 2),
    ("predicate_attrs", "<u2", (2,), 4), ("lo", "<f8", (2,), 8),
    ("hi", "<f8", (2,), 24), ("has_param", "|i1", (), 40),
    ("param", "<f8", (), 41)]

GOLDEN_QUERY_BLOCK = {
    1: "1f00000053554d0a50455243454e54494c450a544f504b0a666172650a7069"
       "636b7570000003000400000000000000f83f00000000004034400000000000"
       "00000000010003000400000000000000f0ff000000000000f07f0100000000"
       "0000e03f020003000400000000000000f0ff000000000000f07f0100000000"
       "00000840",
    2: "16000000434f554e540a666172650a7069636b75700a646973740000010002"
       "000300000000000000f0ff9a9999999999b93f000000000000f07f9c750088"
       "3ce4377e000000000000000000",
    3: "0d0000004156470a7469700a610a620a630000010002000300040000000000"
       "00000080010000000000000048afbc9af2d77abe0000000000000000000000"
       "000000f03f555555555555d53f000000000000000000"}


class TestQueryBlock:
    def test_dtype_layout(self):
        dtype = query_dtype(2)
        assert [(n, dtype.fields[n][0].base.str, dtype.fields[n][0].shape,
                 dtype.fields[n][1]) for n in dtype.names] == \
            GOLDEN_QUERY_DTYPE
        assert [query_dtype(d).itemsize for d in range(4)] == \
            [13, 31, 49, 67]

    def test_block_bytes(self):
        for d, group in golden_query_groups().items():
            meta, payload = encode_query_block(group)
            assert (meta, payload.hex()) == (d, GOLDEN_QUERY_BLOCK[d])
            assert list(map(query_bits, decode_query_block(d, payload))) \
                == list(map(query_bits, group))
        assert encode_query_block([]) == (0, bytes(4))
        assert decode_query_block(0, bytes(4)) == []

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_batch_round_trips(self, data):
        d = data.draw(st.sampled_from([1, 2, 3]))
        names = data.draw(st.lists(
            st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\n"), max_size=8),
            min_size=1, max_size=4))
        params = {
            AggFunc.PERCENTILE: st.one_of(
                st.floats(0.0, 1.0), st.sampled_from([-0.0, 5e-324])),
            AggFunc.TOPK: st.integers(1, 2 ** 40).map(float)}
        queries = []
        for _ in range(data.draw(st.integers(1, 6))):
            agg = data.draw(st.sampled_from(list(AggFunc)))
            bounds = [sorted(data.draw(st.tuples(floats, floats)))
                      for _ in range(d)]
            queries.append(Query(
                agg, data.draw(st.sampled_from(names)),
                tuple(data.draw(st.sampled_from(names)) for _ in range(d)),
                Rectangle.from_bounds(bounds),
                data.draw(params[agg]) if agg in params else None))
        meta, payload = encode_query_block(queries)
        assert meta == d
        assert list(map(query_bits, decode_query_block(meta, payload))) \
            == list(map(query_bits, queries))


def corrupt(payload: bytes, at: int, patch: bytes) -> bytes:
    return payload[:at] + patch + payload[at + len(patch):]


class TestQueryBlockFaults:
    """A corrupt query frame is a ``ValueError`` naming the query
    block - never an ``IndexError``, ``struct.error`` or a wrong
    query."""

    GOOD = GOLDEN_QUERY_BLOCK[1]
    TABLE_END = 4 + 0x1f                # names_len of the d = 1 golden

    @pytest.mark.parametrize("d, payload, why", [
        (1, bytes.fromhex(GOOD)[:3], "cut short before"),
        (1, bytes.fromhex(GOOD)[:4 + 10], "name table cut short"),
        (1, bytes.fromhex(GOOD) + b"\0", "not a multiple"),
        (1, corrupt(bytes.fromhex(GOOD), TABLE_END, b"\xff\x00"),
         "index 255 is out of range"),
        (2, bytes.fromhex(GOOD), "not a multiple"),    # d = 1 records
        (1, corrupt(bytes.fromhex(GOOD), 4, b"S\nM"), "no record uses"),
        (1, corrupt(bytes.fromhex(GOOD), 4, b"\xff"), "not UTF-8")],
        ids=["cut-before-table", "table-cut-short", "partial-record",
             "index-past-table", "other-dimensionality",
             "newline-in-name", "table-not-utf8"])
    def test_corrupt_payload(self, d, payload, why):
        with pytest.raises(ValueError, match=f"query block.*{why}") as err:
            decode_query_block(d, payload)
        assert type(err.value) is ValueError

    def test_unencodable_batches(self):
        one, two = golden_queries()[:2]
        with pytest.raises(ValueError, match="query block mixes dim"):
            encode_query_block([one, two])
        with pytest.raises(ValueError, match="query block name 'a\\\\nb'"):
            encode_query_block([Query(one.agg, "a\nb", one.predicate_attrs,
                                      one.rect)])


QUERY_PROBE = """
import json
from repro.broker import frames, requests
from repro.core.queries import AggFunc, Query, Rectangle
query = Query(AggFunc.PERCENTILE, "fare", ("x",),
              Rectangle((-1.0,), (1.0,)), 0.5, probe={probe!r})
plain = Query(AggFunc.SUM, "fare", ("x",), Rectangle((-1.0,), (1.0,)))
payload = requests.query_to_dict(query)
line = requests.encode_query(3, query)
meta, block = frames.encode_query_block([query, plain])
print(json.dumps({{
    "payload": payload, "line": line,
    "names": list(frames.query_dtype(1).names),
    "back": [requests.query_from_dict(payload).probe,
             requests.decode(line).query.probe,
             *[q.probe for q in frames.decode_query_block(meta, block)]]}}))
"""


@pytest.mark.parametrize("declared, probe, spelled", [
    ('wire(float, "<f8")', 2.5, "2.5"), ("wire(str)", "tag", "tag")])
def test_a_declared_query_field_reaches_every_boundary(
        tmp_path, declared, probe, spelled):
    """The ``Query`` twin of the test above: one added line, and the
    dict, line and query-block codecs all carry the field (a number as
    an ``<f8`` column, text as a name-table index)."""
    shutil.copytree(Path(repro.__file__).parent, tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "repro" / "core" / "queries.py"
    anchor = ('    param: Optional[float] = field(default=None,\n'
              '                                   metadata=wire(float, "<f8"))\n')
    text = source.read_text()
    assert text.count(anchor) == 1
    source.write_text(text.replace(
        anchor, anchor + f"    probe: Optional[{type(probe).__name__}] = "
                         f"field(default=None, metadata={declared})\n"))
    done = subprocess.run(
        [sys.executable, "-c", QUERY_PROBE.format(probe=probe)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["payload"] == {
        "agg": "PERCENTILE", "attr": "fare", "predicate_attrs": ["x"],
        "lo": [-1.0], "hi": [1.0], "param": 0.5, "probe": probe}
    assert seen["line"] == f"Q|3|PERCENTILE|fare|x|-1.0|1.0|0.5|{spelled}"
    assert seen["names"] == [
        "agg", "attr", "predicate_attrs", "lo", "hi", "has_param",
        "param", "has_probe", "probe"]
    assert seen["back"] == [probe, probe, probe, None]


# ------------------------------------------------------------------ #
# sketch sidecar faults are ValueErrors naming the sidecar
# ------------------------------------------------------------------ #
class TestSidecarFaults:
    SIDECAR = encode_sketch_block([SketchFrame(0, b"abcdef"),
                                   SketchFrame(2, b"xy")])

    def test_round_trip(self):
        assert decode_sketch_block(self.SIDECAR) == \
            [SketchFrame(0, b"abcdef"), SketchFrame(2, b"xy")]

    @pytest.mark.parametrize("cut", [3, 8 + 6 + 5, 8 + 3, 8 + 6 + 8 + 1])
    def test_truncated_sidecar(self, cut):
        """Cut mid-header (fewer than 8 header bytes left) or
        mid-blob: the same ``ValueError``, never ``struct.error``."""
        with pytest.raises(ValueError, match="sketch sidecar"):
            decode_sketch_block(self.SIDECAR[:cut])

    def test_frame_index_past_the_block(self):
        results = [QueryResult(1.0), QueryResult(2.0)]
        with pytest.raises(ValueError, match="sketch sidecar.*2"):
            attach_sketch_frames(results,
                                 decode_sketch_block(self.SIDECAR))
        assert SKETCH_KEY in results[0].details     # frame 0 landed


# ------------------------------------------------------------------ #
# committed benchmark artifacts are full-mode runs
# ------------------------------------------------------------------ #
def test_no_committed_smoke_artifact():
    """A ``BENCH_*.json`` written by a smoke run (shrunk sizes, gates
    off) is not evidence; only full-mode runs may be committed."""
    out = Path(__file__).resolve().parents[1] / "benchmarks" / "out"
    artifacts = sorted(out.glob("BENCH_*.json"))
    assert artifacts, "benchmarks/out holds the committed artifacts"
    smoke = [p.name for p in artifacts
             if json.loads(p.read_text()).get("smoke") is True]
    assert smoke == [], f"committed from smoke runs: {smoke}"
