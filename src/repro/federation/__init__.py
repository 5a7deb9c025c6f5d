"""Federated query processing (paper, section 4.4).

Nodes own their data; queries move to the data; only results move back.
Every protocol message crosses a simulated network that accounts bytes
and latency, so the data-shipping/query-shipping trade-off is measurable
(experiment E9).
"""

from repro.federation.cluster import LocalCluster
from repro.federation.estimator import (
    Estimate,
    ShardPlacement,
    estimate_plan,
    estimate_shard_outputs,
    place_shards,
    shard_summaries,
    transfer_seconds,
)
from repro.federation.merge import (
    merge_partials,
    parse_staged_sections,
    read_blob_sections,
    split_sections,
)
from repro.federation.node import FederationNode
from repro.federation.planner import FederatedClient, FederatedOutcome
from repro.federation.protocol import (
    BlobHandleRequest,
    BlobHandleResponse,
    ChunkRequest,
    ChunkResponse,
    CompileRequest,
    CompileResponse,
    DatasetInfoRequest,
    DatasetInfoResponse,
    DatasetTransfer,
    ExecuteRequest,
    ExecuteResponse,
    ShardExecuteRequest,
    ShardExecuteResponse,
    ShardTransfer,
    payload_checksum,
)
from repro.federation.shards import (
    Shard,
    ShardManifest,
    dataset_manifest,
    is_chromosome_clustered,
    partition_chromosomes,
    slice_dataset,
)
from repro.federation.transfer import Network, TransferLog
from repro.federation.worker import WorkerNodeProxy, serve_node

__all__ = [
    "BlobHandleRequest",
    "BlobHandleResponse",
    "ChunkRequest",
    "ChunkResponse",
    "CompileRequest",
    "CompileResponse",
    "DatasetInfoRequest",
    "DatasetInfoResponse",
    "DatasetTransfer",
    "Estimate",
    "ExecuteRequest",
    "ExecuteResponse",
    "FederatedClient",
    "FederatedOutcome",
    "FederationNode",
    "LocalCluster",
    "Network",
    "Shard",
    "ShardExecuteRequest",
    "ShardExecuteResponse",
    "ShardManifest",
    "ShardPlacement",
    "ShardTransfer",
    "TransferLog",
    "WorkerNodeProxy",
    "dataset_manifest",
    "estimate_plan",
    "estimate_shard_outputs",
    "is_chromosome_clustered",
    "merge_partials",
    "parse_staged_sections",
    "partition_chromosomes",
    "payload_checksum",
    "place_shards",
    "read_blob_sections",
    "serve_node",
    "shard_summaries",
    "slice_dataset",
    "split_sections",
    "transfer_seconds",
]
