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
        assert ParquetFile(data).num_rows == 15

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
        assert ctx.store.total_bytes(info.bucket, "t/") == info.total_bytes + sum(
            index.total_bytes for index in indexes
        )
        assert ctx.store.list_keys(info.bucket, "t2/") == neighbour
