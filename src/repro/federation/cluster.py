"""A local sharded cluster: worker-process nodes plus a sharded client.

:class:`LocalCluster` is the one-call harness behind ``repro run
--federate N``: it spawns *N* federation nodes as real OS processes
(each with its own catalog, staging area and -- optionally --
persistent store root), partitions every source dataset
into chromosome-group shards across them, and fronts the lot with a
:class:`~repro.federation.planner.FederatedClient` whose
:meth:`~repro.federation.planner.FederatedClient.run_sharded` does
shard-aware placement, pushes kernel sub-plans, and merges the streamed
partial aggregates.

With a *store_root*, all nodes and the client share one persistent store
tree: staged partials spill to content-addressed files and come back to
the client as mmap handles instead of streamed chunks (the co-resident
fast path).
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile

from multiprocessing.connection import Client

from repro.errors import FederationError
from repro.resilience.clock import monotonic, sleep
from repro.federation.planner import FederatedClient, FederatedOutcome
from repro.federation.shards import (
    dataset_manifest,
    partition_chromosomes,
    slice_dataset,
)
from repro.federation.transfer import Network
from repro.federation.worker import WorkerNodeProxy, serve_node

#: Shared secret of the cluster's local sockets (isolation comes from
#: the per-cluster socket directory, not the key).
_AUTHKEY = b"repro-cluster"


class LocalCluster:
    """*nodes* federation worker processes over partitioned *sources*.

    Sources are partitioned by chromosome group (greedy byte-balanced;
    one group per node).  Every node receives *every* dataset as its
    group's slice -- all samples kept, regions narrowed -- so discovery
    and positional sample alignment work identically on each node;
    nodes beyond the chromosome count hold empty slices and serve as
    pure compute targets for shipped shards.
    """

    def __init__(
        self,
        sources: dict,
        nodes: int = 2,
        *,
        store_root: str | None = None,
        context=None,
        seed: int = 0,
        connect_timeout: float = 30.0,
    ) -> None:
        if nodes <= 0:
            raise FederationError(f"a cluster needs >= 1 node, got {nodes}")
        self.node_count = nodes
        self.store_root = store_root
        self._dir = tempfile.mkdtemp(prefix="repro-cluster-")
        self.processes: list = []
        self.proxies: list = []
        weights: dict = {}
        for dataset in sources.values():
            for chrom, stats in dataset_manifest(dataset).chrom_stats().items():
                weights[chrom] = weights.get(chrom, 0) + stats[2]
        groups = (
            partition_chromosomes(weights, nodes) if weights else ((),)
        )
        try:
            for index in range(nodes):
                name = f"node{index}"
                address = f"{self._dir}/{name}.sock"
                process = multiprocessing.Process(
                    target=serve_node,
                    args=(address, _AUTHKEY, name, store_root),
                    daemon=True,
                )
                process.start()
                self.processes.append(process)
                connection = self._connect(address, process, connect_timeout)
                self.proxies.append(WorkerNodeProxy(name, connection))
            for index, proxy in enumerate(self.proxies):
                group = groups[index] if index < len(groups) else ()
                for dataset in sources.values():
                    proxy.load(slice_dataset(dataset, group))
        except BaseException:
            self.close()
            raise
        self.client = FederatedClient(
            self.proxies,
            Network(),
            context=context,
            seed=seed,
            shared_root=store_root,
        )

    @staticmethod
    def _connect(address: str, process, timeout: float):
        """Connect to a worker's listener, waiting for it to come up."""
        deadline = monotonic() + timeout
        while True:
            try:
                return Client(address, family="AF_UNIX", authkey=_AUTHKEY)
            except (FileNotFoundError, ConnectionRefusedError):
                if not process.is_alive():
                    raise FederationError(
                        f"worker process for {address} died during startup"
                    ) from None
                if monotonic() > deadline:
                    raise FederationError(
                        f"worker at {address} did not come up in {timeout}s"
                    ) from None
                sleep(0.01)

    def run(self, program: str, engine: str = "columnar",
            max_shards: int | None = None) -> FederatedOutcome:
        """Sharded execution of *program* across the cluster."""
        return self.client.run_sharded(program, engine, max_shards=max_shards)

    def close(self) -> None:
        """Shut every worker down and remove the socket directory."""
        for proxy in self.proxies:
            proxy.shutdown()
        for process in self.processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self.proxies = []
        self.processes = []
        shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
