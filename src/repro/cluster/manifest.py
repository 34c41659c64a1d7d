"""Fleet manifests: the topology of a sharded deployment as a file.

A ``cluster://`` URL names the shards but loses everything else a session
needs to come back to a fleet: the stable shard ids keying the placement
ring, the replication factor, the ring's virtual-node count.  Restarting a
coordinator against a persisted fleet therefore meant re-supplying all of
it by hand -- get the shard order wrong and every tuple looks misplaced
until a rebalance.

A :class:`ClusterManifest` captures that topology as a small JSON document:

.. code-block:: json

    {
      "version": 1,
      "replicas": 2,
      "virtual_nodes": 256,
      "shards": [
        {"shard_id": "shard-0", "url": "tcp://127.0.0.1:7707"},
        {"shard_id": "shard-1", "url": "tcp://127.0.0.1:7708"}
      ]
    }

``repro cluster spawn --manifest fleet.json`` writes one next to the fleet
it starts, and ``EncryptedDatabase.connect("cluster+file://fleet.json")``
(or ``repro cluster status --manifest fleet.json``) restores a session
from it without re-supplying topology.  Shard ids in the manifest are the
ring's key space: they survive address changes (repoint a shard's URL and
its data placement is untouched) and coordinator restarts.  Manifests
written while a pipelined client transport existed carry an ``"async"``
field; it is read past and no longer written.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass

from repro.cluster.executor import ClusterError
from repro.cluster.ring import DEFAULT_VIRTUAL_NODES

#: URL scheme resolving a fleet through a manifest file on disk.
CLUSTER_FILE_URL_PREFIX = "cluster+file://"

#: Manifest document version this module reads and writes.
MANIFEST_VERSION = 1


class ManifestError(ClusterError):
    """A fleet manifest could not be read, parsed or validated."""


@dataclass(frozen=True)
class ShardEntry:
    """One shard of the fleet: its stable ring id and current address."""

    shard_id: str
    url: str


@dataclass(frozen=True)
class ClusterManifest:
    """The persisted topology of one sharded deployment."""

    shards: tuple[ShardEntry, ...]
    replicas: int = 1
    virtual_nodes: int = DEFAULT_VIRTUAL_NODES

    def __post_init__(self) -> None:
        from repro.net.client import RemoteError, parse_tcp_url

        if not self.shards:
            raise ManifestError("a fleet manifest needs at least one shard")
        if self.replicas < 1:
            raise ManifestError("the replication factor must be at least 1")
        if self.replicas > len(self.shards):
            raise ManifestError(
                f"replication factor {self.replicas} needs at least that many "
                f"shards, got {len(self.shards)}"
            )
        if self.virtual_nodes < 1:
            raise ManifestError("virtual_nodes must be at least 1")
        seen_ids: set[str] = set()
        seen_urls: set[str] = set()
        for entry in self.shards:
            if not entry.shard_id:
                raise ManifestError("shard ids must be non-empty")
            if entry.shard_id in seen_ids:
                raise ManifestError(f"duplicate shard id {entry.shard_id!r}")
            if entry.url in seen_urls:
                raise ManifestError(f"duplicate shard URL {entry.url!r}")
            seen_ids.add(entry.shard_id)
            seen_urls.add(entry.url)
            try:
                parse_tcp_url(entry.url)
            except RemoteError as exc:
                raise ManifestError(
                    f"shard {entry.shard_id!r}: {exc}"
                ) from exc

    @property
    def shard_ids(self) -> tuple[str, ...]:
        """The stable ring identifiers, in manifest order."""
        return tuple(entry.shard_id for entry in self.shards)

    @property
    def shard_urls(self) -> tuple[str, ...]:
        """The current ``tcp://`` addresses, in manifest order."""
        return tuple(entry.url for entry in self.shards)

    def cluster_url(self) -> str:
        """The equivalent ``cluster://`` URL (topology options included)."""
        hosts = ",".join(url[len("tcp://"):] for url in self.shard_urls)
        options = []
        if self.replicas != 1:
            options.append(f"replicas={self.replicas}")
        query = ("?" + "&".join(options)) if options else ""
        return f"cluster://{hosts}{query}"

    def to_json(self) -> dict:
        """The manifest as its JSON document object."""
        return {
            "version": MANIFEST_VERSION,
            "replicas": self.replicas,
            "virtual_nodes": self.virtual_nodes,
            "shards": [
                {"shard_id": entry.shard_id, "url": entry.url}
                for entry in self.shards
            ],
        }

    @classmethod
    def from_json(cls, document: object) -> "ClusterManifest":
        """Build (and validate) a manifest from its JSON document object."""
        if not isinstance(document, dict):
            raise ManifestError("a fleet manifest is a JSON object")
        version = document.get("version")
        if version != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported manifest version {version!r} "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        raw_shards = document.get("shards")
        if not isinstance(raw_shards, list):
            raise ManifestError("the manifest's 'shards' field must be a list")
        shards = []
        for index, raw in enumerate(raw_shards):
            if not isinstance(raw, dict):
                raise ManifestError(f"shard entry #{index} is not an object")
            try:
                shards.append(
                    ShardEntry(shard_id=str(raw["shard_id"]), url=str(raw["url"]))
                )
            except KeyError as exc:
                raise ManifestError(
                    f"shard entry #{index} is missing its {exc.args[0]!r} field"
                ) from exc
        try:
            replicas = int(document.get("replicas", 1))
            virtual_nodes = int(document.get("virtual_nodes", DEFAULT_VIRTUAL_NODES))
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest field: {exc}") from exc
        return cls(
            shards=tuple(shards),
            replicas=replicas,
            virtual_nodes=virtual_nodes,
        )

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the manifest atomically (tmp + rename); returns the path."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_json(), indent=2) + "\n"
        fd, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, target)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise ManifestError(f"cannot write manifest {target}: {exc}") from exc
        return target

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "ClusterManifest":
        """Read and validate a manifest file."""
        source = pathlib.Path(path)
        try:
            text = source.read_text(encoding="utf-8")
        except OSError as exc:
            raise ManifestError(f"cannot read manifest {source}: {exc}") from exc
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise ManifestError(f"manifest {source} is not valid JSON: {exc}") from exc
        return cls.from_json(document)


def parse_cluster_file_url(url: str) -> pathlib.Path:
    """Extract the manifest path from a ``cluster+file://PATH`` URL.

    Query strings are rejected rather than folded into the file name:
    the manifest itself carries the topology options, and a stray
    ``?replicas=2`` silently becoming part of the path would surface as a
    baffling "no such file" instead of the real mistake.
    """
    if not url.startswith(CLUSTER_FILE_URL_PREFIX):
        raise ManifestError(
            f"unsupported manifest URL {url!r} "
            f"(want {CLUSTER_FILE_URL_PREFIX}path/to/fleet.json)"
        )
    path = url[len(CLUSTER_FILE_URL_PREFIX):]
    if "?" in path or "#" in path:
        raise ManifestError(
            f"manifest URL {url!r} carries a query or fragment; "
            "cluster+file:// URLs take no options (the manifest itself "
            "carries the topology)"
        )
    if not path:
        raise ManifestError(f"manifest URL {url!r} names no file")
    return pathlib.Path(path)
