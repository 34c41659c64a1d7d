"""Fleet manifests: persistence, validation, and session restore."""

from __future__ import annotations

import json

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.cluster import (
    ClusterManifest,
    ManifestError,
    ShardEntry,
    ShardRouter,
    parse_cluster_file_url,
)
from repro.net import ThreadedTcpServer

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(24)]


def manifest_for(*servers, **kwargs) -> ClusterManifest:
    return ClusterManifest(
        shards=tuple(
            ShardEntry(shard_id=f"shard-{index}", url=f"tcp://127.0.0.1:{server.port}")
            for index, server in enumerate(servers)
        ),
        **kwargs,
    )


class TestManifestDocument:
    def test_round_trips_through_disk(self, tmp_path):
        manifest = ClusterManifest(
            shards=(
                ShardEntry("a", "tcp://127.0.0.1:7707"),
                ShardEntry("b", "tcp://127.0.0.1:7708"),
            ),
            replicas=2,
            virtual_nodes=128,
        )
        path = manifest.save(tmp_path / "fleet.json")
        assert ClusterManifest.load(path) == manifest
        document = json.loads(path.read_text())
        assert document["version"] == 1
        assert document["replicas"] == 2
        assert "async" not in document  # no transport choice left to record

    def test_cluster_url_carries_the_topology_options(self):
        manifest = ClusterManifest(
            shards=(
                ShardEntry("a", "tcp://h1:1"),
                ShardEntry("b", "tcp://h2:2"),
            ),
            replicas=2,
        )
        assert manifest.cluster_url() == "cluster://h1:1,h2:2?replicas=2"
        plain = ClusterManifest(shards=(ShardEntry("a", "tcp://h1:1"),))
        assert plain.cluster_url() == "cluster://h1:1"

    def test_validation_rejects_broken_topologies(self):
        entry = ShardEntry("a", "tcp://h:1")
        with pytest.raises(ManifestError, match="at least one shard"):
            ClusterManifest(shards=())
        with pytest.raises(ManifestError, match="replication factor"):
            ClusterManifest(shards=(entry,), replicas=2)
        with pytest.raises(ManifestError, match="duplicate shard id"):
            ClusterManifest(shards=(entry, ShardEntry("a", "tcp://h:2")))
        with pytest.raises(ManifestError, match="duplicate shard URL"):
            ClusterManifest(shards=(entry, ShardEntry("b", "tcp://h:1")))
        with pytest.raises(ManifestError, match="scheme"):
            ClusterManifest(shards=(ShardEntry("a", "http://h:1"),))

    def test_malformed_files_are_manifest_errors(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ManifestError, match="cannot read"):
            ClusterManifest.load(missing)
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            ClusterManifest.load(garbage)
        wrong_version = tmp_path / "future.json"
        wrong_version.write_text(json.dumps({"version": 99, "shards": []}))
        with pytest.raises(ManifestError, match="version"):
            ClusterManifest.load(wrong_version)

    def test_parse_cluster_file_url(self):
        assert str(parse_cluster_file_url("cluster+file:///tmp/f.json")) == "/tmp/f.json"
        assert str(parse_cluster_file_url("cluster+file://fleet.json")) == "fleet.json"
        with pytest.raises(ManifestError):
            parse_cluster_file_url("cluster+file://")
        with pytest.raises(ManifestError):
            parse_cluster_file_url("cluster://h:1")


class TestManifestSessions:
    def test_router_from_manifest_restores_ring_ids(self):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            manifest = manifest_for(one, two, replicas=2)
            router = ShardRouter.from_manifest(manifest)
            try:
                assert router.shard_ids == ("shard-0", "shard-1")
                assert router.replication == 2
            finally:
                router.close()

    def test_cluster_file_session_round_trip(self, tmp_path, secret_key, rng):
        """A session stores through one coordinator, then a second
        coordinator restored purely from the manifest file reads it all
        back -- no re-supplied topology, placement intact."""
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            path = manifest_for(one, two).save(tmp_path / "fleet.json")
            with EncryptedDatabase.connect(
                f"cluster+file://{path}", secret_key, rng=rng
            ) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                assert db.count("Emp") == len(ROWS)
            # a fresh coordinator, topology from the file alone
            with EncryptedDatabase.connect(
                f"cluster+file://{path}", secret_key, rng=rng
            ) as db:
                db.attach_table(EMP_DECL)
                assert db.count("Emp") == len(ROWS)
                assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 12
                db.drop_table("Emp")

    def test_manifest_with_the_old_async_field_still_loads(self, tmp_path, secret_key):
        """Manifests written while the pipelined transport existed carry
        ``"async"``; they open the one transport there is."""
        with ThreadedTcpServer() as one:
            document = manifest_for(one).to_json()
            document["async"] = True
            path = tmp_path / "fleet.json"
            path.write_text(json.dumps(document))
            manifest = ClusterManifest.load(path)
            assert manifest == manifest_for(one)
            with EncryptedDatabase.connect(f"cluster+file://{path}", secret_key) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                assert db.count("Emp") == len(ROWS)
                db.drop_table("Emp")

    def test_conflicting_replicas_keyword_is_rejected(self, tmp_path):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            path = manifest_for(one, two, replicas=2).save(tmp_path / "fleet.json")
            with pytest.raises(DatabaseError, match="conflicting replication"):
                EncryptedDatabase.connect(f"cluster+file://{path}", replicas=1)

    def test_missing_manifest_is_a_database_error(self, tmp_path):
        with pytest.raises(DatabaseError, match="cannot read"):
            EncryptedDatabase.connect(f"cluster+file://{tmp_path}/absent.json")