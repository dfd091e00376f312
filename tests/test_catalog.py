"""Tests for the catalog and table loader (partitioning, index tables)."""

import pytest

from repro.cloud.context import CloudContext
from repro.common.errors import CatalogError
from repro.engine.catalog import Catalog, load_table
from repro.storage.csvcodec import iter_records
from repro.storage.parquet import ParquetFile
from repro.storage.schema import TableSchema

SCHEMA = TableSchema.of("id:int", "price:float", "name:str")


def rows(n=100):
    return [(i, i * 1.5, f"item-{i}") for i in range(n)]


def _objects(store, bucket, prefix=""):
    """Every stored object of ``bucket`` under ``prefix``, by key."""
    return {key: store.get_object(bucket, key) for key in store.list_keys(bucket, prefix)}


class TestLoadTable:
    def test_partition_count_and_rows(self):
        ctx, catalog = CloudContext(), Catalog()
        info = load_table(ctx, catalog, "t", rows(100), SCHEMA, partitions=4)
        assert info.partitions == 4
        assert info.partition_rows == [25, 25, 25, 25]
        assert info.num_rows == 100

    def test_uneven_partitioning(self):
        ctx, catalog = CloudContext(), Catalog()
        info = load_table(ctx, catalog, "t", rows(10), SCHEMA, partitions=3)
        assert sum(info.partition_rows) == 10
        assert max(info.partition_rows) - min(info.partition_rows) <= 1

    def test_more_partitions_than_rows(self):
        ctx, catalog = CloudContext(), Catalog()
        info = load_table(ctx, catalog, "t", rows(2), SCHEMA, partitions=16)
        assert info.partitions == 2

    def test_objects_have_schema_metadata(self):
        ctx, catalog = CloudContext(), Catalog()
        info = load_table(ctx, catalog, "t", rows(4), SCHEMA, partitions=2)
        obj = ctx.store.get_object(info.bucket, info.keys[0])
        assert obj.metadata["format"] == "csv"
        assert obj.metadata["schema"] == ["id:int", "price:float", "name:str"]

    def test_total_bytes_matches_store(self):
        ctx, catalog = CloudContext(), Catalog()
        info = load_table(ctx, catalog, "t", rows(50), SCHEMA, partitions=4)
        stored = sum(ctx.store.object_size(info.bucket, k) for k in info.keys)
        assert info.total_bytes == stored

    def test_parquet_format(self):
        ctx, catalog = CloudContext(), Catalog()
        info = load_table(
            ctx, catalog, "t", rows(30), SCHEMA, partitions=2, data_format="parquet"
        )
        data = ctx.store.get_bytes(info.bucket, info.keys[0])
        assert sum(g.num_rows for g in ParquetFile(data).row_groups) == 15

    def test_table_names_are_spelled_as_registered(self):
        ctx, catalog = CloudContext(), Catalog()
        load_table(ctx, catalog, "LineItem", rows(4), SCHEMA)
        load_table(ctx, catalog, "orders", rows(2), SCHEMA)
        assert catalog.table_names() == ["LineItem", "orders"]
        # A reload under another spelling keeps the first one.
        load_table(ctx, catalog, "LINEITEM", rows(3), SCHEMA)
        assert catalog.table_names() == ["LineItem", "orders"]
        assert catalog.get("lineitem").num_rows == 3
        with pytest.raises(CatalogError, match=r"\['LineItem', 'orders'\]"):
            catalog.get("part")

    def test_unknown_format_rejected(self):
        ctx, catalog = CloudContext(), Catalog()
        with pytest.raises(CatalogError):
            load_table(ctx, catalog, "t", rows(2), SCHEMA, data_format="orc")

    def test_catalog_lookup(self):
        ctx, catalog = CloudContext(), Catalog()
        load_table(ctx, catalog, "MyTable", rows(2), SCHEMA)
        assert catalog.get("mytable").name == "MyTable"
        assert "MYTABLE" in catalog
        with pytest.raises(CatalogError):
            catalog.get("other")


class TestIndexTables:
    def test_index_objects_created_per_partition(self):
        ctx, catalog = CloudContext(), Catalog()
        info = load_table(
            ctx, catalog, "t", rows(40), SCHEMA, partitions=4, index_columns=["id"]
        )
        index = info.index_for("id")
        assert len(index.keys) == 4
        assert index.schema.names == ("value", "first_byte", "last_byte")

    def test_index_offsets_address_exact_records(self):
        """Every index entry's byte range must decode to exactly its row —
        the core invariant of the Section IV-A design."""
        ctx, catalog = CloudContext(), Catalog()
        info = load_table(
            ctx, catalog, "t", rows(30), SCHEMA, partitions=3, index_columns=["id"]
        )
        index = info.index_for("id")
        for data_key, index_key in zip(info.keys, index.keys):
            index_obj = ctx.store.get_object(info.bucket, index_key)
            for record in iter_records(index_obj.data):
                value, first, last = int(record[0]), int(record[1]), int(record[2])
                payload = ctx.store.get_range(info.bucket, data_key, first, last)
                (decoded,) = list(iter_records(payload))
                assert SCHEMA.parse_row(decoded)[0] == value

    def test_index_value_type_follows_column(self):
        ctx, catalog = CloudContext(), Catalog()
        info = load_table(
            ctx, catalog, "t", rows(10), SCHEMA, index_columns=["price"]
        )
        assert info.index_for("price").schema.column("value").type == "float"

    def test_missing_index_raises(self):
        ctx, catalog = CloudContext(), Catalog()
        info = load_table(ctx, catalog, "t", rows(10), SCHEMA)
        with pytest.raises(CatalogError):
            info.index_for("id")

    def test_index_on_parquet_rejected(self):
        ctx, catalog = CloudContext(), Catalog()
        with pytest.raises(CatalogError):
            load_table(
                ctx, catalog, "t", rows(10), SCHEMA,
                data_format="parquet", index_columns=["id"],
            )


def test_reload_deletes_the_objects_the_new_load_did_not_write():
    """Fewer partitions, a dropped index, another format: after each load
    the store holds exactly the catalog's objects under ``t/`` — and a
    table whose name merely shares the prefix is left alone."""
    ctx, catalog = CloudContext(), Catalog()
    load_table(ctx, catalog, "t2", rows(20), SCHEMA, partitions=3, index_columns=["id"])
    neighbour = ctx.store.list_keys("tpch", "t2/")
    assert len(neighbour) == 6
    for data, layout in [
        (rows(100), dict(partitions=8, index_columns=["id"])),
        (rows(10), dict(partitions=2)),
        (rows(10), dict(partitions=1, data_format="parquet")),
    ]:
        info = load_table(ctx, catalog, "t", data, SCHEMA, **layout)
        indexes = list(info.indexes.values())
        assert ctx.store.list_keys(info.bucket, "t/") == sorted(
            info.keys + [key for index in indexes for key in index.keys]
        )
        stored = _objects(ctx.store, info.bucket, "t/").values()
        assert sum(obj.size for obj in stored) == info.total_bytes + sum(
            index.total_bytes for index in indexes
        )
        assert ctx.store.list_keys(info.bucket, "t2/") == neighbour


class TestRowWidthIsCheckedBeforeAnythingChanges:
    """A load whose rows are not exactly as wide as the schema used to
    succeed (wide: a table every scan then rejected) or die with a bare
    ``IndexError`` after feedback and the cache were already dropped."""

    SCHEMA = TableSchema.of("a:int", "b:int")
    SQL = "SELECT a, b FROM t WHERE a < 3"

    def _loaded(self):
        from repro.planner.database import PushdownDB

        db = PushdownDB(cache_bytes=1 << 20)
        db.load_table("t", [(i, i * i) for i in range(8)], self.SCHEMA, partitions=2)
        first = db.execute(self.SQL)
        assert sorted(first.rows) == [(0, 0), (1, 1), (2, 4)]
        assert first.num_requests > 0 and len(db.cache) > 0
        return db

    @pytest.mark.parametrize(
        "bad, found",
        [
            ([(1, 2, 3), (4, 5, 6)], "[3]"),
            ([(1,), (2,)], "[1]"),
            ([(1, 2), (3,), (4, 5, 6)], "[1, 3]"),
        ],
        ids=["wide", "narrow", "ragged"],
    )
    def test_wrong_arity_raises_and_the_previous_load_survives(self, bad, found):
        db = self._loaded()
        info, store = db.table("t"), db.ctx.store
        objects = _objects(store, db.bucket)
        entries, version = len(db.cache), db.cache.version("t")
        feedback = db.feedback.summary()

        with pytest.raises(CatalogError) as err:
            db.load_table("t", bad, self.SCHEMA)
        assert "'t'" in str(err.value) and found in str(err.value)
        assert "schema has 2" in str(err.value)

        assert db.table("t") is info
        assert _objects(store, db.bucket) == objects
        assert (len(db.cache), db.cache.version("t")) == (entries, version)
        assert db.feedback.summary() == feedback
        again = db.execute(self.SQL)  # still answered, and from the cache
        assert sorted(again.rows) == [(0, 0), (1, 1), (2, 4)]
        assert again.num_requests == 0

    def test_a_correct_reload_afterwards_replaces_the_table(self):
        db = self._loaded()
        with pytest.raises(CatalogError):
            db.load_table("t", [(1, 2, 3)], self.SCHEMA)
        version = db.cache.version("t")
        db.load_table("t", [(i, -i) for i in range(6)], self.SCHEMA, partitions=3)
        assert db.cache.version("t") == version + 1
        fresh = db.execute(self.SQL)
        assert sorted(fresh.rows) == [(0, 0), (1, -1), (2, -2)]
        assert fresh.num_requests > 0

    def test_a_bad_index_column_or_format_fails_before_anything_changes(self):
        db = self._loaded()
        objects = _objects(db.ctx.store, db.bucket)
        for layout in (dict(index_columns=["nope"]),
                       dict(index_columns=["a"], data_format="parquet")):
            with pytest.raises(CatalogError):
                db.load_table("t", [(1, 2)], self.SCHEMA, **layout)
        assert _objects(db.ctx.store, db.bucket) == objects
        assert db.execute(self.SQL).num_requests == 0


#: Computed at the commit before the loader went columnar (PR 24's parent).
PINNED_INFO = "b6ecfbb8881129c87bde788943698e7611fe92f59fa30853fd50b3a58a0a2ec4"
PINNED_OBJECTS = "b7fcb1c2fa9c352ef402d104517378f9dd96517664919ce37c0d2cc5a532c9b4"


def test_loaded_bytes_and_statistics_are_pinned():
    """``lineitem`` + ``orders`` at SF 0.002, seed 1: a digest of every
    catalog number the cost model reads and the sha256 of every stored
    byte.  A loader change that moves one of them would otherwise only
    show as ``sim_*`` shifting by an ulp."""
    import hashlib

    from repro.workloads.tpch import TABLE_SCHEMAS, TpchGenerator

    gen = TpchGenerator(scale_factor=0.002, seed=1)
    ctx, catalog = CloudContext(), Catalog()
    described, stored = [], hashlib.sha256()
    for name, index_columns in (("lineitem", ["l_orderkey"]), ("orders", [])):
        info = load_table(
            ctx, catalog, name, gen.table(name), TABLE_SCHEMAS[name],
            index_columns=index_columns,
        )
        described.append(repr((
            info.keys, info.partition_rows, info.partition_bytes, info.stats,
            info.zone_maps,
            [(i.column, i.keys, i.total_bytes) for i in info.indexes.values()],
        )))
    for key, obj in _objects(ctx.store, "tpch").items():
        stored.update(key.encode() + obj.data)
    assert hashlib.sha256("".join(described).encode()).hexdigest() == PINNED_INFO
    assert stored.hexdigest() == PINNED_OBJECTS


@pytest.mark.parametrize("n_rows", [0, 1, 37])
@pytest.mark.parametrize("layout", [
    {}, {"data_format": "parquet"}, {"index_columns": ["id", "name"]},
])
def test_every_load_carries_statistics_and_one_entry_per_partition(n_rows, layout):
    """The optimizer reads a table's statistics and per-partition sizes,
    row counts and zone maps without a fallback: every load leaves them."""
    from repro.optimizer.stats import collect_table_stats

    ctx, catalog = CloudContext(), Catalog()
    data = rows(n_rows)
    info = load_table(ctx, catalog, "t", data, SCHEMA, partitions=4, **layout)
    assert info.stats == collect_table_stats(data, SCHEMA)
    assert info.stats.row_count == info.num_rows == n_rows
    assert info.partitions == max(1, min(4, n_rows))
    assert len(info.zone_maps) == len(info.partition_rows) == len(
        info.partition_bytes
    ) == info.partitions
    assert [zone.row_count for zone in info.zone_maps] == info.partition_rows
    assert sum(info.partition_rows) == n_rows
    assert sum(info.partition_bytes) == info.total_bytes == sum(
        ctx.store.object_size(info.bucket, key) for key in info.keys
    )


EMPTY_QUERIES = {
    "SELECT id, name FROM e WHERE id < 5": [],
    "SELECT COUNT(*) AS n, SUM(price) AS s FROM e WHERE price > 1.0": [(0, None)],
    "SELECT k, name FROM t JOIN e ON k = id WHERE price < 10": [],
    "SELECT name, COUNT(*) AS n FROM e GROUP BY name ORDER BY name LIMIT 3": [],
}


@pytest.mark.parametrize("calibrated", [False, True])
@pytest.mark.parametrize("mode", ["baseline", "optimized", "auto", "adaptive"])
def test_an_empty_table_plans_runs_and_explains(mode, calibrated):
    from repro.planner.database import PushdownDB
    from repro.planner.planner import plan_parsed
    from repro.sqlparser.parser import parse

    db = PushdownDB()
    db.load_table("e", [], SCHEMA)
    db.load_table(
        "t", [(i, i * 1.5) for i in range(50)], TableSchema.of("k:int", "w:float"),
        partitions=4,
    )
    if calibrated:
        db.calibrate_to_paper_scale()
    for sql, expected in EMPTY_QUERIES.items():
        plan, _ = plan_parsed(db.ctx, db.catalog, parse(sql), mode)
        assert "scan e" in plan.describe() or "aggregate e" in plan.describe()
        assert plan.estimate.total_cost > 0
        assert db.execute(sql, mode=mode).rows == expected
    assert "physical plan" in db.explain(next(iter(EMPTY_QUERIES)))
