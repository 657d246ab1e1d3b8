"""Zone maps + storage codecs through the engine stack.

Scan-time chunk pruning (byte accounting), encoded-byte filter evaluation
(bit-exact against the expanded path), planner predicate attachment, cost
model zone-refined selectivity, and append snapshot isolation.
"""

import pytest

from repro.core.decimal.context import DecimalSpec
from repro.engine import Database
from repro.engine.plan import reference
from repro.engine.plan.cost import PlanStats, TableStats, predicate_selectivity
from repro.engine.plan.physical import (
    FilterOp,
    QueryContext,
    ScanOp,
    _evaluate_predicate,
    _evaluate_predicate_encoded,
)
from repro.engine.plan.planner import plan_query
from repro.engine.sql.ast_nodes import Comparison
from repro.engine.sql.parser import parse_query
from repro.errors import StorageError
from repro.storage.codecs import CompactCodec, OrderPreservingCodec
from repro.storage.column import Column
from repro.storage.relation import Relation

from tests.storage.test_append_carry import assert_same_encoding, fresh_encoding

SPEC = DecimalSpec(12, 2)
OPS = ["=", "<>", "<", "<=", ">", ">="]


def make_relation(codec=OrderPreservingCodec(), chunk_rows=4, rows=16):
    # v ascending => clustered, so range predicates prune whole chunks.
    values = [i * 100 for i in range(rows)]  # 0.00, 1.00, ... as unscaled
    extra = [(rows - i) * 7 for i in range(rows)]
    columns = [
        Column.decimal_from_unscaled("v", values, SPEC),
        Column.decimal_from_unscaled("w", extra, SPEC),
    ]
    relation = Relation("t", columns)
    if codec is not None:
        relation = relation.with_codecs(
            {"v": codec, "w": codec}, chunk_rows=chunk_rows
        )
    return relation


def plan_stats(relation):
    return PlanStats(main=TableStats.from_relation(relation), simulate_rows=1_000_000)


def scan_context(relation):
    return QueryContext(relation=relation, simulate_rows=1_000_000)


class TestScanZonePruning:
    def test_skipped_chunks_cut_scan_and_pcie_bytes(self):
        relation = make_relation()
        pruned = scan_context(relation)
        # v < 4.00 keeps only the first chunk (rows 0-3) of four.
        ScanOp(["v", "w"], predicates=[Comparison("v", "<", 4)]).run(None, pruned)
        full = scan_context(relation)
        ScanOp(["v", "w"]).run(None, full)
        assert pruned.report.zone_chunks_total == 8  # 2 columns x 4 chunks
        assert pruned.report.zone_chunks_skipped == 6  # 3 chunks pruned, each column
        assert full.report.zone_chunks_skipped == 0
        assert pruned.report.scan_bytes < full.report.scan_bytes
        assert pruned.report.pcie_bytes < full.report.pcie_bytes

    def test_pruning_never_changes_the_batch(self):
        relation = make_relation()
        pruned = ScanOp(["v"], predicates=[Comparison("v", "<", 4)]).run(
            None, scan_context(relation)
        )
        assert pruned.rows == relation.rows
        assert pruned.column("v").unscaled() == relation.column("v").unscaled()

    def test_compact_codec_still_prunes(self):
        # Zone maps are recorded at encode time for every codec, so even
        # the uncompressed layout skips chunks.
        relation = make_relation(codec=CompactCodec())
        context = scan_context(relation)
        ScanOp(["v"], predicates=[Comparison("v", "<", 4)]).run(None, context)
        assert context.report.zone_chunks_skipped == 3

    def test_no_codec_means_no_pruning(self):
        relation = make_relation(codec=None)
        context = scan_context(relation)
        ScanOp(["v"], predicates=[Comparison("v", "<", 4)]).run(None, context)
        assert context.report.zone_chunks_total == 0
        assert context.report.zone_chunks_skipped == 0


class TestEncodedFilter:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("literal", [-1, 0, 3, 3.5, 15, 99])
    def test_encoded_mask_matches_expanded_path(self, op, literal):
        relation = make_relation()
        column = relation.column("v")
        column.encoding()  # scan would have materialised it
        predicate = Comparison("v", op, literal)
        encoded = _evaluate_predicate_encoded(column, predicate)
        assert encoded is not None
        expected = _evaluate_predicate(column, predicate)
        assert encoded.tolist() == list(expected)

    def test_filter_op_results_bit_exact_with_codec(self):
        relation = make_relation()
        plain = make_relation(codec=None)
        for op in OPS:
            predicate = Comparison("v", op, 7)
            coded_batch = ScanOp(["v", "w"], predicates=[predicate]).run(
                None, scan_context(relation)
            )
            coded = FilterOp([predicate]).run(coded_batch, scan_context(relation))
            plain_batch = ScanOp(["v", "w"]).run(None, scan_context(plain))
            expected = FilterOp([predicate]).run(plain_batch, scan_context(plain))
            assert coded.column("v").unscaled() == expected.column("v").unscaled()
            assert coded.column("w").unscaled() == expected.column("w").unscaled()

    def test_unmaterialised_encoding_falls_back(self):
        # The filter never pays for an encode the scan didn't do.
        column = make_relation().column("v")
        assert column.cached_encoding() is None
        assert _evaluate_predicate_encoded(column, Comparison("v", "<", 4)) is None

    def test_compact_codec_falls_back_to_expanded(self):
        column = make_relation(codec=CompactCodec()).column("v")
        column.encoding()
        assert _evaluate_predicate_encoded(column, Comparison("v", "<", 4)) is None

    @pytest.mark.parametrize(
        "spec,values,literal,encoded",
        [
            # int64 lanes answer: one numpy compare, no encoded bytes.
            (SPEC, [i * 100 - 700 for i in range(16)], 3, False),
            # Past int64: the encoded compare beats the limbs.
            (DecimalSpec(60, 2), [(-1) ** i * (10**50 + i) for i in range(16)], 10**48, True),
        ],
        ids=["lanes", "wide"],
    )
    def test_filter_compares_lanes_before_encoded_bytes(
        self, monkeypatch, spec, values, literal, encoded
    ):
        column = Column.decimal_from_unscaled("v", values, spec)
        relation = Relation("t", [column]).with_codecs({"v": OrderPreservingCodec()}, 4)
        relation.column("v").encoding()
        calls = []
        compare_chunk = OrderPreservingCodec.compare_chunk

        def counting(codec, chunk, literal):
            calls.append(chunk)
            return compare_chunk(codec, chunk, literal)

        monkeypatch.setattr(OrderPreservingCodec, "compare_chunk", counting)
        batch = ScanOp(["v"]).run(None, scan_context(relation))
        for op in OPS:
            calls.clear()
            kept = FilterOp([Comparison("v", op, literal)]).run(
                batch, scan_context(relation)
            )
            expected = reference.decimal_predicate(batch.column("v"), op, literal)
            assert kept.column("v").unscaled() == [
                v for v, keep in zip(values, expected) if keep
            ]
            assert bool(calls) == encoded


class TestPlannerAttachment:
    def _database(self):
        db = Database(simulate_rows=1_000_000)
        db.catalog.register(make_relation())
        return db

    def test_scan_filter_prefix_attaches_literal_predicates(self):
        query = parse_query("SELECT SUM(v) AS s FROM t WHERE v < 4 AND w > 1")
        plan = plan_query(query, ["v", "w"], stats=plan_stats(make_relation()))
        scan = plan[0]
        assert isinstance(scan, ScanOp)
        assert {p.column for p in scan.predicates} == {"v", "w"}
        assert all(p.column_rhs is None for p in scan.predicates)

    def test_no_filter_means_no_predicates(self):
        plan = plan_query(
            parse_query("SELECT SUM(v) AS s FROM t"), ["v", "w"], stats=plan_stats(make_relation())
        )
        assert isinstance(plan[0], ScanOp)
        assert plan[0].predicates == []

    def test_query_results_bit_exact_vs_codec_free(self):
        coded = self._database()
        plain = Database(simulate_rows=1_000_000)
        plain.catalog.register(make_relation(codec=None))
        sql = "SELECT SUM(v) AS s, SUM(w) AS t2 FROM t WHERE v >= 2 AND v < 9.5"
        coded_result = coded.execute(sql)
        plain_result = plain.execute(sql)
        assert coded_result.rows == plain_result.rows
        assert coded_result.report.zone_chunks_skipped > 0


class TestCostModelZones:
    def test_table_stats_use_wire_bytes_and_zones(self):
        relation = make_relation()
        stats = TableStats.from_relation(relation)
        assert set(stats.zones) == {"v", "w"}
        wire = relation.column("v").wire_bytes / relation.rows
        assert stats.column_bytes["v"] == pytest.approx(wire)
        assert wire < relation.column("v").bytes_stored / relation.rows

    def test_zone_fraction_refines_the_default(self):
        stats = TableStats.from_relation(make_relation())
        # v < 1.00 matches 1/16 rows; the System R default says 1/3.
        refined = predicate_selectivity([Comparison("v", "<", 1)], stats)
        assert refined < 1 / 3
        # An always-true predicate now estimates ~everything: the histogram
        # replaced the System-R default, and the zone fraction (also ~1
        # here, every chunk's verdict is True) only caps it from above.
        assert predicate_selectivity([Comparison("v", "<", 10**6)], stats) == (
            pytest.approx(1.0)
        )

    def test_without_table_the_default_survives(self):
        assert predicate_selectivity([Comparison("v", "<", 1)]) == pytest.approx(1 / 3)


class _BoundedCodec(CompactCodec):
    """Compact bytes for values up to ``2**31 - 1``; larger ones raise."""

    name = "bounded"

    def _encode_chunk(self, values, compact_slice, spec, zone):
        if zone.max_unscaled >= 2**31:
            raise StorageError("a value is above the bound of the codec")
        return super()._encode_chunk(values, compact_slice, spec, zone)


class TestAppendSnapshotIsolation:
    def _database(self):
        db = Database(simulate_rows=1_000_000)
        db.catalog.register(make_relation())
        return db

    def test_append_builds_fresh_zone_maps(self):
        db = self._database()
        before = db.catalog.get("t")
        before_encoding = before.column("v").encoding()
        merged = db.append("t", [["990.00", "1.00"]])
        after = merged.column("v")
        # Codec and chunking carry over; the append encodes the new version,
        # and what it carries equals a from-scratch encode.
        assert after.codec is before.column("v").codec
        assert after.encoding_chunk_rows == before.column("v").encoding_chunk_rows
        assert after.version != before.column("v").version
        carried = after.cached_encoding()
        assert carried is not None
        assert_same_encoding(carried, fresh_encoding(after))
        assert carried.zones[-1].max_unscaled == 99000
        # The snapshot a reader captured still serves its original zones.
        assert before.column("v").cached_encoding() is before_encoding
        assert before_encoding.zones[-1].max_unscaled == 1500

    def test_appended_data_is_seen_by_zone_pruned_queries(self):
        db = self._database()
        sql = "SELECT SUM(v) AS s FROM t WHERE v > 14"
        before = db.execute(sql)  # only 15.00 matches
        db.append("t", [["9990.00", "1.00"]])
        after = db.execute(sql)  # the appended row re-encodes and matches
        assert before.rows != after.rows

    def test_append_the_codec_rejects_keeps_table(self):
        # The append encodes the new version before it publishes it, so a
        # row its codec refuses raises and the table keeps its rows.
        columns = [
            Column.decimal_from_unscaled(
                "v", [2**30, -(2**30), 2**29, 5], DecimalSpec(20, 2)
            ),
            Column.decimal_from_unscaled("w", [100, 200, 300, 400], DecimalSpec(6, 2)),
        ]
        relation = Relation("t", columns).with_codecs(
            {"v": _BoundedCodec(), "w": OrderPreservingCodec()}
        )
        db = Database(simulate_rows=1_000_000)
        db.catalog.register(relation)
        sql = "SELECT SUM(w) FROM t"
        before = db.execute(sql).rows
        with pytest.raises(StorageError, match="above the bound"):
            db.append("t", [["99999999999.00", "1.00"]])
        assert db.catalog.get("t").rows == 4
        assert db.execute(sql).rows == before
        assert db.execute("SELECT SUM(v) FROM t").scalar.unscaled == 2**29 + 5

