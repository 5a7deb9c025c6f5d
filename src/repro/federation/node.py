"""Federation nodes: data owners that answer the section 4.4 protocol.

"Each data repository will be the owner of the data that are locally
produced, and nodes of cooperating organizations will be connected to
form a federated database."  A :class:`FederationNode` owns a catalog and
answers info/compile/execute/chunk messages; all traffic goes through the
shared simulated :class:`~repro.federation.transfer.Network`.
"""

from __future__ import annotations

from repro.resilience.clock import perf_counter

from repro.errors import FederationError, QueryError
from repro.federation.estimator import estimate_plan
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
from repro.federation.merge import merge_partials
from repro.federation.shards import slice_dataset
from repro.federation.transfer import Network
from repro.gdm import Dataset
from repro.gmql.lang import Interpreter, compile_program, optimize
from repro.gmql.lang.plan import CompiledProgram
from repro.engine.dispatch import get_backend
from repro.repository.catalog import Catalog
from repro.repository.staging import StagingArea


class FederationNode:
    """One node: a named catalog plus protocol handlers."""

    def __init__(
        self,
        name: str,
        catalog: Catalog,
        network: Network,
        staging_budget_bytes: int = 50_000_000,
    ) -> None:
        self.name = name
        self.catalog = catalog
        self.network = network
        self.staging = StagingArea(
            budget_bytes=staging_budget_bytes,
            fire=network.fire,
            owner=name,
        )
        #: Datasets shipped in from elsewhere (data-shipping execution).
        self.foreign: dict = {}
        #: Shard slices shipped in for sharded execution:
        #: ``{dataset_name: {chroms: slice}}`` -- merged with the local
        #: catalog slice at shard-execute time.
        self.foreign_shards: dict = {}

    # -- protocol handlers (each accounts its response on the network) -----------
    #
    # Every handler fires a chaos injection point named
    # ``federation.<op>:<node>`` before doing any work, so an armed
    # FaultInjector can make this host slow, flaky, or dead.

    def handle_info(self, requester: str) -> DatasetInfoResponse:
        """Answer a dataset-information request."""
        self.network.fire(f"federation.info:{self.name}")
        request = DatasetInfoRequest()
        self.network.send(requester, self.name, "info-request",
                          request.size_bytes())
        response = DatasetInfoResponse(tuple(self.catalog.summaries()))
        self.network.send(self.name, requester, "info-response",
                          response.size_bytes())
        return response

    def handle_compile(self, requester: str, program: str) -> CompileResponse:
        """Compile a program and estimate its outputs."""
        self.network.fire(f"federation.compile:{self.name}")
        request = CompileRequest(program)
        self.network.send(requester, self.name, "compile-request",
                          request.size_bytes())
        try:
            compiled = optimize(compile_program(program))
        except QueryError as exc:
            response = CompileResponse(ok=False, error=str(exc))
        else:
            summaries = {
                summary["name"]: summary for summary in self.catalog.summaries()
            }
            for foreign_name, dataset in self.foreign.items():
                summaries[foreign_name] = dataset.summary()
            estimates = []
            for output_name, plan in compiled.outputs.items():
                estimate = estimate_plan(plan, summaries)
                estimates.append(
                    (
                        output_name,
                        int(estimate.samples),
                        int(estimate.regions),
                        estimate.size_bytes(),
                    )
                )
            response = CompileResponse(ok=True, estimates=tuple(estimates))
        self.network.send(self.name, requester, "compile-response",
                          response.size_bytes())
        return response

    def handle_execute(
        self, requester: str, program: str, engine: str = "naive"
    ) -> ExecuteResponse:
        """Execute a program over the local (+ shipped-in) datasets."""
        self.network.fire(f"federation.execute:{self.name}")
        request = ExecuteRequest(program, engine)
        self.network.send(requester, self.name, "execute-request",
                          request.size_bytes())
        sources = self.catalog.as_sources()
        sources.update(self.foreign)
        compiled = optimize(compile_program(program))
        missing = [s for s in compiled.sources if s not in sources]
        if missing:
            raise FederationError(
                f"node {self.name!r} lacks source datasets {missing}"
            )
        results = Interpreter(get_backend(engine), sources).run_program(compiled)
        tickets = []
        for output_name, dataset in results.items():
            ticket = self.staging.stage(dataset)
            tickets.append(
                (
                    output_name,
                    ticket,
                    dataset.estimated_size_bytes(),
                    self.staging.chunk_count(ticket),
                )
            )
        response = ExecuteResponse(tuple(tickets))
        self.network.send(self.name, requester, "execute-response",
                          response.size_bytes())
        return response

    def handle_execute_shard(
        self,
        requester: str,
        program: str,
        chroms,
        engine: str = "columnar",
        outputs=None,
    ) -> ShardExecuteResponse:
        """Execute a program over this node's shards of a chromosome group.

        Every source dataset -- catalog, whole foreign datasets, and
        shipped-in shard slices -- is narrowed to *chroms* before the
        kernels run, so the node computes exactly its assigned shards'
        partial results and stages them for streaming (or handle
        shipping) back to the requester.  *outputs* narrows execution to
        a subset of the program's materialised outputs (the planner's
        per-output rounds); ``None`` runs them all.  The response
        carries the node's own kernel wall time: the client's
        critical-path scaling measure is independent of client-side
        queueing.
        """
        self.network.fire(f"federation.execute:{self.name}")
        wanted = tuple(chroms)
        wanted_outputs = tuple(outputs) if outputs is not None else None
        request = ShardExecuteRequest(
            program, wanted, engine, wanted_outputs
        )
        self.network.send(requester, self.name, "shard-execute-request",
                          request.size_bytes())
        sources: dict = {}
        for name in self.catalog.names():
            sources[name] = slice_dataset(self.catalog.get(name), wanted)
        for name, dataset in self.foreign.items():
            sources[name] = slice_dataset(dataset, wanted)
        for name, slices in self.foreign_shards.items():
            pieces = [slice_dataset(piece, wanted) for piece in slices.values()]
            if name in sources:
                pieces.insert(0, sources[name])
            sources[name] = (
                pieces[0] if len(pieces) == 1 else merge_partials(pieces)
            )
        compiled = optimize(compile_program(program))
        if wanted_outputs is not None:
            unknown = [o for o in wanted_outputs if o not in compiled.outputs]
            if unknown:
                raise FederationError(
                    f"node {self.name!r} has no program outputs {unknown}"
                )
            filtered = CompiledProgram(
                compiled.variables,
                {name: compiled.outputs[name] for name in wanted_outputs},
                compiled.sources,
            )
            filtered.analysis = compiled.analysis
            compiled = filtered
        missing = [s for s in compiled.sources if s not in sources]
        if missing:
            raise FederationError(
                f"node {self.name!r} lacks source datasets {missing}"
            )
        backend = get_backend(engine)
        started = perf_counter()
        try:
            results = Interpreter(backend, sources).run_program(compiled)
        finally:
            backend.close()
        seconds = perf_counter() - started
        tickets = []
        for output_name, dataset in results.items():
            ticket = self.staging.stage(dataset)
            meta_len, __ = self.staging.section_lengths(ticket)
            tickets.append(
                (
                    output_name,
                    ticket,
                    dataset.estimated_size_bytes(),
                    self.staging.chunk_count(ticket),
                    meta_len,
                )
            )
        response = ShardExecuteResponse(tuple(tickets), wanted, seconds)
        self.network.send(self.name, requester, "shard-execute-response",
                          response.size_bytes())
        return response

    def handle_blob(self, requester: str, ticket: str) -> BlobHandleResponse:
        """Answer with a spill-file handle to a staged result.

        The co-resident fast path of the PR 6 handle protocol: a client
        sharing this node's filesystem memory-maps the content-addressed
        spill file instead of pulling chunks, so only the tiny handle
        crosses the network.  Memory-staged results answer ``ok=False``
        and the client falls back to chunked streaming.
        """
        self.network.fire(f"federation.blob:{self.name}")
        request = BlobHandleRequest(ticket)
        self.network.send(requester, self.name, "blob-request",
                          request.size_bytes())
        path, meta_len, region_len = self.staging.blob_handle(ticket)
        response = BlobHandleResponse(
            ticket,
            ok=path is not None,
            path=path or "",
            meta_len=meta_len,
            region_len=region_len,
        )
        self.network.send(self.name, requester, "blob-response",
                          response.size_bytes())
        return response

    def handle_chunk(self, requester: str, ticket: str, index: int
                     ) -> ChunkResponse:
        """Serve one staged chunk.

        The checksum is taken over the true staged bytes *before* the
        payload crosses the (possibly chaotic) network, so a corrupted
        transfer is detectable by the requester.
        """
        self.network.fire(f"federation.chunk:{self.name}")
        request = ChunkRequest(ticket, index)
        self.network.send(requester, self.name, "chunk-request",
                          request.size_bytes())
        data = self.staging.retrieve_chunk(ticket, index)
        checksum = payload_checksum(data)
        data = self.network.fire(f"federation.transfer:{self.name}", data)
        response = ChunkResponse(ticket, index, data, checksum)
        self.network.send(self.name, requester, "chunk-response",
                          response.size_bytes())
        return response

    # -- data shipping -------------------------------------------------------------

    def ship_dataset(self, name: str, destination: "FederationNode") -> None:
        """Send one local dataset to another node (data shipping)."""
        self.network.fire(f"federation.ship:{self.name}")
        dataset = self.catalog.get(name)
        transfer = DatasetTransfer(name, dataset.estimated_size_bytes())
        self.network.send(self.name, destination.name, "dataset-transfer",
                          transfer.size_bytes())
        destination.foreign[name] = dataset

    def receive_foreign(self, dataset: Dataset) -> None:
        """Register a shipped-in dataset directly (used by the client)."""
        self.foreign[dataset.name] = dataset

    # -- shard shipping ------------------------------------------------------------

    def fetch_shard(self, requester: str, name: str, chroms) -> Dataset:
        """Slice one local dataset to a chromosome group for shipping.

        The donor side of shard-aware placement: when the planner
        assigns a chromosome group to a node that lacks some source
        shards, the owning node serves exactly the missing slice (all
        samples kept, regions narrowed) and the network accounts the
        sliced -- not whole-dataset -- payload.
        """
        self.network.fire(f"federation.ship:{self.name}")
        sliced = slice_dataset(self.catalog.get(name), tuple(chroms))
        transfer = ShardTransfer(
            name, tuple(chroms), sliced.estimated_size_bytes()
        )
        self.network.send(self.name, requester, "shard-transfer",
                          transfer.size_bytes())
        return sliced

    def receive_shard(self, dataset: Dataset, chroms=()) -> None:
        """Accept a shipped-in shard slice of a source dataset.

        The planner ships what a node's catalog lacks on every run, so
        a slice replaces every slice held of any of its chromosomes: a
        node never holds two copies of one (dataset, chromosome) shard.
        """
        held = self.foreign_shards.setdefault(dataset.name, {})
        wanted = set(chroms)
        for group in [group for group in held if wanted.intersection(group)]:
            del held[group]
        held[tuple(chroms)] = dataset
