"""Cluster configuration: the site-list file and its validation."""

import json

import pytest

from repro.rt.config import (
    ClusterConfig,
    SiteSpec,
    cluster_from_json,
    load_cluster,
    local_cluster,
)


class TestClusterConfig:
    def test_save_load_roundtrip(self, tmp_path):
        cluster = ClusterConfig(
            sites={
                "S1": SiteSpec("S1", "127.0.0.1", 7101),
                "S2": SiteSpec("S2", "10.0.0.2", 7102),
            },
            data_dir=str(tmp_path / "data"),
        )
        path = str(tmp_path / "cluster.json")
        cluster.save(path)
        loaded = load_cluster(path)
        assert loaded == cluster

    def test_wal_path_is_per_site(self, tmp_path):
        cluster = ClusterConfig(
            sites={"S1": SiteSpec("S1", port=1)}, data_dir=str(tmp_path),
        )
        assert cluster.wal_path("S1").endswith("S1.wal")
        assert str(tmp_path) in cluster.wal_path("S1")

    def test_site_ids_sorted(self):
        cluster = ClusterConfig(sites={
            "S2": SiteSpec("S2", port=2), "S1": SiteSpec("S1", port=1),
        })
        assert cluster.site_ids == ["S1", "S2"]

    def test_unknown_site_names_the_known_ones(self):
        cluster = ClusterConfig(sites={"S1": SiteSpec("S1", port=1)})
        with pytest.raises(KeyError, match="S1"):
            cluster.site("S9")

    def test_missing_sites_rejected(self):
        with pytest.raises(ValueError, match="sites"):
            cluster_from_json({"data_dir": "."})
        with pytest.raises(ValueError, match="sites"):
            cluster_from_json({"sites": {}})

    def test_site_without_port_rejected(self):
        with pytest.raises(ValueError, match="port"):
            cluster_from_json({"sites": {"S1": {"host": "x"}}})

    def test_host_defaults_to_localhost(self):
        cluster = cluster_from_json({"sites": {"S1": {"port": 7101}}})
        assert cluster.site("S1").host == "127.0.0.1"

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="object"):
            load_cluster(str(path))

    def test_local_cluster_assigns_distinct_free_ports(self, tmp_path):
        cluster = local_cluster(["S1", "S2", "S3"], data_dir=str(tmp_path))
        ports = {spec.port for spec in cluster.sites.values()}
        assert len(ports) == 3
        assert all(port > 0 for port in ports)
