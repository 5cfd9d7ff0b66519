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
