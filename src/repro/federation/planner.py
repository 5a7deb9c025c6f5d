"""Federated execution strategies: query shipping, data shipping, scatter.

"Queries move from a requesting node to a remote node, are locally
executed, and results are communicated back to the requesting node; this
paradigm allows for distributing the processing to data, transferring
only query results which are usually small in size" (section 4.4).

:class:`FederatedClient` implements the strategies over a set of
:class:`~repro.federation.node.FederationNode` instances and a planner
that picks the cheaper one from compile-time estimates -- letting
experiment E9 report measured bytes for each.

Every remote interaction goes through a
:class:`~repro.resilience.ResilientCaller`: transient faults are retried
with seeded backoff, per-host circuit breakers stop hammering dead
hosts, chunk payloads are integrity-checked (corrupted transfers are
re-fetched), and retry backoff is billed as simulated network time.
:meth:`FederatedClient.run_scatter` adds partial-result degradation: a
plan over partitioned data completes with ``degraded=True`` naming the
skipped hosts instead of raising when some hosts stay down.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from repro.errors import (
    CircuitOpenError,
    FederationError,
    HostDownError,
    RetryExhaustedError,
)
from repro.federation.estimator import (
    estimate_shard_outputs,
    place_shards,
)
from repro.federation.merge import (
    merge_partials,
    parse_staged_sections,
    read_blob_sections,
    split_sections,
)
from repro.federation.node import FederationNode
from repro.federation.protocol import ShardTransfer
from repro.federation.shards import (
    chromosome_names_tie,
    partition_chromosomes,
)
from repro.federation.transfer import Network
from repro.gdm import chromosome_sort_key
from repro.gmql.lang import compile_program, execute, optimize
from repro.gmql.lang.effects import annotate_effects
from repro.repository.staging import _serialise_sections
from repro.resilience.clock import perf_counter
from repro.resilience import (
    BreakerRegistry,
    ResilientCaller,
    RetryPolicy,
    SimulatedClock,
)

#: Failures that mean "this host is unusable right now" -- the planner
#: degrades around them rather than aborting the whole plan.
HOST_FAILURES = (RetryExhaustedError, CircuitOpenError, HostDownError)


@dataclass
class FederatedOutcome:
    """Result of a federated execution, with its traffic bill."""

    strategy: str
    results: dict                 # output name -> summary dict
    bytes_moved: int
    message_count: int
    executing_node: str
    degraded: bool = False        # True when hosts/shards were skipped
    skipped_hosts: tuple = ()     # (host, reason) pairs, sorted by host
    retries: int = 0              # failed attempts that were retried
    #: Chromosome groups that produced no partial ("chr1+chr2", reason).
    skipped_shards: tuple = ()
    #: Merged result datasets by output name (sharded strategy only).
    datasets: dict | None = None
    #: Per-node self-measured kernel seconds (sharded strategy only).
    node_seconds: dict = field(default_factory=dict)
    #: Client-side partial-merge seconds (sharded strategy only).
    merge_seconds: float = 0.0

    def cluster_seconds(self) -> float:
        """Critical-path execution time of a sharded run: the slowest
        node's own kernel time plus the client merge.  On a single-CPU
        test box the node processes time-slice each other, so this --
        not wall clock -- is the multi-host scaling projection."""
        slowest = max(self.node_seconds.values(), default=0.0)
        return slowest + self.merge_seconds

    def report(self) -> str:
        """One-line human summary (used by tests and the CLI)."""
        skipped = ", ".join(host for host, __ in self.skipped_hosts)
        state = f"DEGRADED (skipped: {skipped})" if self.degraded else "complete"
        line = (
            f"{self.strategy}: {state}, {len(self.results)} result(s), "
            f"{self.bytes_moved} byte(s), {self.retries} retry(ies)"
        )
        if self.skipped_shards:
            groups = ", ".join(group for group, __ in self.skipped_shards)
            line += f", skipped shard(s): {groups}"
        return line


class FederatedClient:
    """A requesting site that knows every node but owns no data."""

    def __init__(
        self,
        nodes: list,
        network: Network,
        name: str = "client",
        *,
        policy: RetryPolicy | None = None,
        breakers: BreakerRegistry | None = None,
        context=None,
        seed: int = 0,
        shared_root: str | None = None,
    ) -> None:
        if not nodes:
            raise FederationError("a federation needs at least one node")
        self.name = name
        self.nodes = {node.name: node for node in nodes}
        self.network = network
        self.context = context
        #: Persistent store root shared with co-resident nodes; when
        #: set, sharded partials are fetched as spill-file handles
        #: (mmap) instead of streamed chunks whenever a node offers one.
        self.shared_root = shared_root
        #: (host, reason) pairs skipped by the most recent discovery.
        self.last_skipped: tuple = ()
        #: ``{dataset: summary}`` from the most recent discovery.
        self.last_summaries: dict = {}
        # Backoff sleeps advance simulated time on the shared network
        # log, so resilience overhead lands in the same bill as latency.
        self.clock = SimulatedClock(sink=network.log)
        self.caller = ResilientCaller(
            policy or RetryPolicy(),
            breakers=breakers or BreakerRegistry(
                failure_threshold=5, reset_seconds=30.0, clock=self.clock
            ),
            clock=self.clock,
            seed=seed,
            context=context,
        )

    # -- discovery ----------------------------------------------------------------

    def discover(self) -> dict:
        """``{dataset_name: node_name}`` across the *reachable* federation.

        Unreachable nodes are skipped (and recorded in
        :attr:`last_skipped`) rather than failing discovery outright.
        """
        location: dict = {}
        skipped = []
        summaries: dict = {}
        for node in self.nodes.values():
            try:
                info = self.caller.call(
                    node.name, "info", lambda n=node: n.handle_info(self.name)
                )
            except HOST_FAILURES as exc:
                skipped.append((node.name, _brief(exc)))
                continue
            for summary in info.summaries:
                location[summary["name"]] = node.name
                summaries[summary["name"]] = summary
        self.last_skipped = tuple(sorted(skipped))
        self.last_summaries = summaries
        return location

    def _remote_schemas(self, summaries: dict) -> dict:
        """``{dataset: RegionSchema}`` rebuilt from discovery summaries.

        Nodes publish ``schema_types`` (attribute -> GDM type name) in
        their info summaries; older peers that omit it simply contribute
        no schema, which keeps analysis open-world for their datasets.
        """
        from repro.gdm import RegionSchema, type_named

        schemas = {}
        for name, summary in summaries.items():
            types = summary.get("schema_types")
            if not types:
                continue
            schemas[name] = RegionSchema.of(
                *((attr, type_named(t)) for attr, t in types.items())
            )
        return schemas

    def _plan_locations(self, program: str) -> dict:
        location = self.discover()
        # Compile *after* discovery so semantic analysis sees the
        # published remote schemas: a program that misuses a remote
        # attribute is rejected here, before any subplan is shipped.
        compiled = compile_program(
            program, schemas=self._remote_schemas(self.last_summaries)
        )
        missing = [s for s in compiled.sources if s not in location]
        if missing:
            detail = ""
            if self.last_skipped:
                unreachable = ", ".join(h for h, __ in self.last_skipped)
                detail = f" (unreachable node(s): {unreachable})"
            raise FederationError(f"no node hosts {missing}{detail}")
        return {source: location[source] for source in compiled.sources}

    # -- resilient transfer helpers -----------------------------------------------

    def _pull(self, node: FederationNode, ticket: str, chunk_count: int
              ) -> bytes:
        """Pull and verify every chunk of a staged result.

        Each chunk is its own resilient call: a corrupted payload fails
        verification and is re-requested under the retry policy.
        """
        parts = []
        for index in range(chunk_count):
            response = self.caller.call(
                node.name,
                "chunk",
                lambda i=index: node.handle_chunk(
                    self.name, ticket, i
                ).verified_data(),
            )
            parts.append(response)
        return b"".join(parts)

    def _collect_outputs(self, node: FederationNode, execute_response) -> dict:
        """Pull every staged output; returns summaries keyed by output."""
        results = {}
        for output_name, ticket, size, chunk_count in execute_response.tickets:
            payload = self._pull(node, ticket, chunk_count)
            results[output_name] = {
                "size_bytes": size,
                "ticket": ticket,
                "sha256": hashlib.sha256(payload).hexdigest(),
            }
        return results

    # -- strategies ------------------------------------------------------------------

    def run_query_shipping(self, program: str, engine: str = "naive"
                           ) -> FederatedOutcome:
        """Ship the query to the node holding the most data; ship only the
        (small) other sources there; pull back only result chunks."""
        baseline_messages = self.network.log.message_count()
        baseline_bytes = self.network.log.bytes_total
        baseline_retries = self.caller.retries
        locations = self._plan_locations(program)
        sizes = {
            name: self.nodes[node_name].catalog.get(name).estimated_size_bytes()
            for name, node_name in locations.items()
        }
        # Execute where the most bytes already live.
        bytes_per_node: dict = {}
        for name, node_name in locations.items():
            bytes_per_node[node_name] = bytes_per_node.get(node_name, 0) + sizes[name]
        target_name = max(bytes_per_node, key=lambda n: bytes_per_node[n])
        target = self.nodes[target_name]
        for name, node_name in locations.items():
            if node_name != target_name:
                source = self.nodes[node_name]
                self.caller.call(
                    node_name, "ship",
                    lambda s=source, n=name: s.ship_dataset(n, target),
                )
        compile_response = self.caller.call(
            target_name, "compile",
            lambda: target.handle_compile(self.name, program),
        )
        if not compile_response.ok:
            raise FederationError(f"remote compilation failed: "
                                  f"{compile_response.error}")
        execute_response = self.caller.call(
            target_name, "execute",
            lambda: target.handle_execute(self.name, program, engine),
        )
        results = self._collect_outputs(target, execute_response)
        return FederatedOutcome(
            strategy="query-shipping",
            results=results,
            bytes_moved=self.network.log.bytes_total - baseline_bytes,
            message_count=self.network.log.message_count() - baseline_messages,
            executing_node=target_name,
            retries=self.caller.retries - baseline_retries,
        )

    def run_data_shipping(self, program: str, engine: str = "naive"
                          ) -> FederatedOutcome:
        """Fetch every source dataset to the client and execute locally --
        "most of today's implementations" per the paper."""
        baseline_messages = self.network.log.message_count()
        baseline_bytes = self.network.log.bytes_total
        baseline_retries = self.caller.retries
        locations = self._plan_locations(program)
        sources = {}
        for name, node_name in locations.items():
            node = self.nodes[node_name]

            def fetch(node=node, name=name):
                from repro.federation.protocol import DatasetTransfer

                node.network.fire(f"federation.ship:{node.name}")
                dataset = node.catalog.get(name)
                transfer = DatasetTransfer(name, dataset.estimated_size_bytes())
                self.network.send(node.name, self.name, "dataset-transfer",
                                  transfer.size_bytes())
                return dataset

            sources[name] = self.caller.call(node_name, "fetch", fetch)
        results_data = execute(program, sources, engine=engine)
        results = {
            name: {"size_bytes": ds.estimated_size_bytes()}
            for name, ds in results_data.items()
        }
        return FederatedOutcome(
            strategy="data-shipping",
            results=results,
            bytes_moved=self.network.log.bytes_total - baseline_bytes,
            message_count=self.network.log.message_count() - baseline_messages,
            executing_node=self.name,
            retries=self.caller.retries - baseline_retries,
        )

    def run_scatter(self, program: str, engine: str = "naive"
                    ) -> FederatedOutcome:
        """Run *program* on every node that hosts all its sources and
        gather per-node results (the partitioned-data strategy).

        This is the degrading plan: a node that is down -- or dies while
        serving -- is *skipped*, and the outcome reports ``degraded=True``
        with the skipped hosts named, instead of the whole plan raising.
        Only when every candidate node fails does the plan raise.
        """
        baseline_messages = self.network.log.message_count()
        baseline_bytes = self.network.log.bytes_total
        baseline_retries = self.caller.retries
        compiled = compile_program(program)
        needed = set(compiled.sources)
        per_node: dict = {}
        skipped = []
        candidates = 0
        for node_name, node in self.nodes.items():
            try:
                info = self.caller.call(
                    node_name, "info", lambda n=node: n.handle_info(self.name)
                )
            except HOST_FAILURES as exc:
                skipped.append((node_name, _brief(exc)))
                continue
            hosted = {summary["name"] for summary in info.summaries}
            if not needed <= hosted:
                continue            # not a partition holder; not "skipped"
            candidates += 1
            try:
                execute_response = self.caller.call(
                    node_name, "execute",
                    lambda n=node: n.handle_execute(self.name, program, engine),
                )
                per_node[node_name] = self._collect_outputs(
                    node, execute_response
                )
            except HOST_FAILURES as exc:
                skipped.append((node_name, _brief(exc)))
        if not per_node:
            reasons = "; ".join(f"{h}: {r}" for h, r in sorted(skipped))
            raise FederationError(
                f"scatter plan found no usable node for {sorted(needed)} "
                f"({candidates} candidate(s); {reasons or 'none reachable'})"
            )
        return FederatedOutcome(
            strategy="scatter-gather",
            results=per_node,
            bytes_moved=self.network.log.bytes_total - baseline_bytes,
            message_count=self.network.log.message_count() - baseline_messages,
            executing_node=",".join(sorted(per_node)),
            degraded=bool(skipped),
            skipped_hosts=tuple(sorted(skipped)),
            retries=self.caller.retries - baseline_retries,
        )

    # -- sharded cluster execution ------------------------------------------------

    def _metric(self, name: str, amount: int) -> None:
        """Account a federation counter on the execution context."""
        if self.context is not None and amount:
            self.context.metrics.increment(name, amount)

    def _fetch_partial(self, node, node_name: str, ticket: str,
                       chunk_count: int, meta_len: int) -> tuple:
        """``(meta, regions)`` sections of one staged shard partial.

        With a shared persistent store root the client first asks for a
        spill-file handle and memory-maps the content-addressed file
        (the co-resident fast path -- only the ~160-byte handle crosses
        the network); otherwise, or when the node staged in memory, the
        partial streams back chunk by chunk with per-chunk integrity
        verification and re-fetch.
        """
        if self.shared_root is not None:
            handle = self.caller.call(
                node_name, "blob",
                lambda: node.handle_blob(self.name, ticket),
            )
            if handle.ok and os.path.exists(handle.path):
                sections = read_blob_sections(handle.path)
                if sections is not None:
                    self._metric("federation.bytes_mapped",
                                 handle.meta_len + handle.region_len)
                    return sections
        payload = self._pull(node, ticket, chunk_count)
        self._metric("federation.bytes_streamed", len(payload))
        return split_sections(payload, meta_len)

    def run_sharded(self, program: str, engine: str = "columnar",
                    max_shards: int | None = None) -> FederatedOutcome:
        """Shard-aware cluster execution: place chromosome shard groups
        on nodes by modelled cost, push the kernelized sub-plan to each,
        and merge the streamed partial aggregates.

        The placement unit is a chromosome group (every genometric
        operator matches within one chromosome only); the transfer and
        accounting unit is the (sample, chromosome) shard.  Nodes that
        die mid-shard degrade the outcome -- their groups land in
        ``skipped_shards`` and the merged result covers the surviving
        shards -- mirroring :meth:`run_scatter`'s semantics.

        Shardability is *inferred per output* from the plan's effect
        annotations (:mod:`repro.gmql.lang.effects`): chromosome-local
        outputs shard into placement groups, while outputs whose subtree
        aggregates across chromosomes (EXTEND/MERGE/ORDER/GROUP) run in
        a separate whole-genome round on one node.  Only when *no*
        output is local -- or sources are not chromosome-clustered --
        does the plan fall back to the whole-dataset planner.

        *max_shards* caps the number of shard groups (default: one
        group per chromosome, the finest placement granularity).
        """
        baseline_messages = self.network.log.message_count()
        baseline_bytes = self.network.log.bytes_total
        baseline_retries = self.caller.retries
        # Discovery, per node: the same info handler the other
        # strategies use, but summaries are kept per node because the
        # shard manifests differ across a partitioned federation.
        per_node: dict = {}
        skipped: list = []
        for node_name, node in self.nodes.items():
            try:
                info = self.caller.call(
                    node_name, "info", lambda n=node: n.handle_info(self.name)
                )
            except HOST_FAILURES as exc:
                skipped.append((node_name, _brief(exc)))
                continue
            per_node[node_name] = {
                summary["name"]: summary for summary in info.summaries
            }
        if not per_node:
            reasons = "; ".join(f"{h}: {r}" for h, r in sorted(skipped))
            raise FederationError(
                f"sharded plan found no reachable node ({reasons})"
            )
        # Merge per-node summaries into a federation-wide shard map plus
        # a residency map.  A shard may be replicated; the fullest copy
        # (most regions) defines its true statistics.
        merged: dict = {}
        residency_stats: dict = {}   # dataset -> chrom -> node -> stats
        for node_name, summaries in per_node.items():
            for name, summary in summaries.items():
                entry = merged.get(name)
                if entry is None:
                    entry = dict(summary)
                    entry["shards"] = {"clustered": True, "chroms": {}}
                    merged[name] = entry
                shards = summary.get("shards") or {}
                if not shards.get("clustered", True):
                    entry["shards"]["clustered"] = False
                for chrom, stats in (shards.get("chroms") or {}).items():
                    slot = entry["shards"]["chroms"].setdefault(
                        chrom, [0, 0, 0]
                    )
                    if stats[1] > slot[1]:
                        slot[:] = list(stats)
                    residency_stats.setdefault(name, {}).setdefault(
                        chrom, {}
                    )[node_name] = stats
        for entry in merged.values():
            chroms = entry["shards"]["chroms"]
            ordered = {
                chrom: chroms[chrom]
                for chrom in sorted(chroms, key=chromosome_sort_key)
            }
            entry["shards"]["chroms"] = ordered
            entry["regions"] = sum(stats[1] for stats in ordered.values())
            entry["size_bytes"] = sum(stats[2] for stats in ordered.values())
        self.last_summaries = merged
        compiled = compile_program(
            program, schemas=self._remote_schemas(merged)
        )
        missing = [s for s in compiled.sources if s not in merged]
        if missing:
            raise FederationError(f"no node hosts {missing}")
        optimized = optimize(compiled)
        # Effect inference replaces the old SHARDABLE_PLANS allowlist:
        # every output is gated on its own inferred chromosome locality,
        # so one EXTEND output no longer sinks the whole program to
        # whole-dataset strategies.
        annotate_effects(optimized, summaries=merged)
        local_outputs = {
            name: plan
            for name, plan in optimized.outputs.items()
            if plan.effects.chrom_local
        }
        global_outputs = {
            name: plan
            for name, plan in optimized.outputs.items()
            if name not in local_outputs
        }
        clustered = all(
            (merged[src].get("shards") or {}).get("clustered", False)
            for src in optimized.sources
        )
        # Per-chromosome load (bytes across all source datasets): the
        # weights that balance shard groups and drive placement.
        weights: dict = {}
        for src in optimized.sources:
            for chrom, stats in merged[src]["shards"]["chroms"].items():
                weights[chrom] = weights.get(chrom, 0) + stats[2]
        if not weights:
            raise FederationError(
                f"sources {sorted(optimized.sources)} hold no regions to shard"
            )
        if not clustered or not local_outputs:
            if all(
                getattr(node, "catalog", None) is not None
                for node in self.nodes.values()
            ):
                # Nothing shards (or sources are not clustered) and
                # every node is catalog-backed: the whole-dataset
                # planner wins outright.
                return self.run(program, engine)
            if not clustered:
                raise FederationError(
                    "sharded execution needs chromosome-clustered sources"
                )
        # Per-output execution rounds: chromosome-local outputs shard
        # into placement groups; outputs whose subtree aggregates across
        # chromosomes (``effects.locality_breaker``) run as one
        # whole-genome group -- slicing to every chromosome is the
        # identity, so the same shard protocol serves both.
        all_chroms = tuple(sorted(weights, key=chromosome_sort_key))
        rounds: list = []
        if clustered and local_outputs:
            if chromosome_names_tie(all_chroms):
                # Tied names (``chr1``/``chr01``) must not be split: one
                # whole-genome group, which merge_partials returns as is.
                local_groups = (all_chroms,)
            elif max_shards is not None:
                local_groups = partition_chromosomes(weights, max_shards)
            else:
                local_groups = tuple((chrom,) for chrom in all_chroms)
            rounds.append((local_groups, tuple(local_outputs)))
        if global_outputs:
            rounds.append(((all_chroms,), tuple(global_outputs)))
        skipped_shards: list = []
        partials: dict = {}
        node_seconds: dict = {}
        used: set = set()
        placed_chroms: set = set()
        for round_groups, round_outputs in rounds:
            self._execute_shard_round(
                program, engine, round_outputs, round_groups,
                optimized, merged, residency_stats, per_node, weights,
                partials, node_seconds, used, placed_chroms,
                skipped, skipped_shards,
            )
        if not partials:
            reasons = "; ".join(
                f"{group}: {reason}" for group, reason in skipped_shards
            ) or "; ".join(f"{h}: {r}" for h, r in sorted(skipped))
            raise FederationError(
                f"sharded plan found no usable node for "
                f"{sorted(optimized.sources)} ({reasons or 'none reachable'})"
            )
        # Merge: interleave chromosome runs, never re-aggregate.
        merge_started = perf_counter()
        datasets: dict = {}
        results: dict = {}
        for output_name in optimized.outputs:
            pieces = partials.get(output_name)
            if not pieces:
                continue
            dataset = merge_partials(pieces, name=output_name)
            datasets[output_name] = dataset
            meta_blob, region_blob = _serialise_sections(dataset)
            results[output_name] = {
                "size_bytes": dataset.estimated_size_bytes(),
                "regions": dataset.region_count(),
                "sha256": hashlib.sha256(
                    meta_blob + region_blob
                ).hexdigest(),
            }
        merge_seconds = perf_counter() - merge_started
        skipped_chroms: set = set()
        for group_text, __ in skipped_shards:
            skipped_chroms.update(group_text.split("+"))

        def shard_count(chrom_set) -> int:
            total = 0
            for src in optimized.sources:
                for chrom, stats in merged[src]["shards"]["chroms"].items():
                    if chrom in chrom_set:
                        total += stats[0]
            return total

        self._metric("federation.shards_placed", shard_count(placed_chroms))
        self._metric("federation.shards_skipped", shard_count(skipped_chroms))
        return FederatedOutcome(
            strategy="sharded",
            results=results,
            bytes_moved=self.network.log.bytes_total - baseline_bytes,
            message_count=self.network.log.message_count() - baseline_messages,
            executing_node=",".join(sorted(used)),
            degraded=bool(skipped or skipped_shards),
            skipped_hosts=tuple(sorted(skipped)),
            skipped_shards=tuple(skipped_shards),
            datasets=datasets,
            node_seconds=node_seconds,
            merge_seconds=merge_seconds,
            retries=self.caller.retries - baseline_retries,
        )

    def _execute_shard_round(
        self,
        program: str,
        engine: str,
        outputs: tuple,
        groups: tuple,
        optimized,
        merged: dict,
        residency_stats: dict,
        per_node: dict,
        weights: dict,
        partials: dict,
        node_seconds: dict,
        used: set,
        placed_chroms: set,
        skipped: list,
        skipped_shards: list,
    ) -> None:
        """Place, ship and execute one round of shard *groups* computing
        the given *outputs*; partials and accounting accumulate into the
        caller's collections (a node serving several rounds sums its
        kernel seconds)."""
        plans = [optimized.outputs[name] for name in outputs]
        # Cost-based placement over the live nodes.
        group_bytes = {
            group: sum(weights[chrom] for chrom in group) for group in groups
        }
        result_bytes = {
            group: estimate_shard_outputs(plans, merged, group)
            for group in groups
        }
        residency: dict = {}
        for group in groups:
            per = {}
            for node_name in per_node:
                resident = 0
                for src in optimized.sources:
                    for chrom in group:
                        stats = residency_stats.get(src, {}).get(
                            chrom, {}
                        ).get(node_name)
                        if stats is not None:
                            resident += stats[2]
                per[node_name] = resident
            residency[group] = per
        placements = place_shards(
            groups, residency, group_bytes, result_bytes, list(per_node)
        )
        # Ship source shards the placement moved away from their data:
        # donor nodes serve exactly the missing chromosome slices, the
        # client relays them to the executing node.
        dead_groups: set = set()
        for placement in placements:
            target_name = placement.node
            target = self.nodes[target_name]
            group = placement.chroms
            failed = None
            for src in sorted(optimized.sources):
                merged_chroms = merged[src]["shards"]["chroms"]
                need = []
                for chrom in group:
                    stats = merged_chroms.get(chrom)
                    if stats is None or stats[1] == 0:
                        continue
                    have = residency_stats.get(src, {}).get(chrom, {}).get(
                        target_name
                    )
                    if have is None or have[1] < stats[1]:
                        need.append(chrom)
                if not need:
                    continue
                by_donor: dict = {}
                for chrom in need:
                    stats = merged_chroms[chrom]
                    holders = residency_stats.get(src, {}).get(chrom, {})
                    donor = next(
                        (
                            n for n in per_node
                            if n != target_name
                            and holders.get(n, (0, 0, 0))[1] >= stats[1]
                        ),
                        None,
                    )
                    if donor is None:
                        failed = (group, f"no donor holds {src}:{chrom}")
                        break
                    by_donor.setdefault(donor, []).append(chrom)
                if failed:
                    break
                for donor_name, donor_chroms in by_donor.items():
                    donor = self.nodes[donor_name]
                    try:
                        sliced = self.caller.call(
                            donor_name, "ship",
                            lambda d=donor, s=src, c=tuple(donor_chroms):
                                d.fetch_shard(self.name, s, c),
                        )
                        relay = ShardTransfer(
                            src, tuple(donor_chroms),
                            sliced.estimated_size_bytes(),
                        )
                        self.network.send(
                            self.name, target_name, "shard-transfer",
                            relay.size_bytes(),
                        )
                        self.caller.call(
                            target_name, "receive",
                            lambda t=target, ds=sliced, c=tuple(donor_chroms):
                                t.receive_shard(ds, c),
                        )
                    except HOST_FAILURES as exc:
                        failed = (group, _brief(exc))
                        break
                if failed:
                    break
            if failed:
                skipped_shards.append(("+".join(failed[0]), failed[1]))
                dead_groups.add(group)
        # Execute: one shard sub-plan call per node, over the union of
        # its placed groups; pull (or map) each staged partial back.
        node_groups: dict = {}
        for placement in placements:
            if placement.chroms in dead_groups:
                continue
            node_groups.setdefault(placement.node, []).append(
                placement.chroms
            )
        for node_name in per_node:
            groups_here = node_groups.get(node_name)
            if not groups_here:
                continue
            node = self.nodes[node_name]
            chroms = tuple(sorted(
                {chrom for group in groups_here for chrom in group},
                key=chromosome_sort_key,
            ))
            try:
                response = self.caller.call(
                    node_name, "execute-shard",
                    lambda n=node, c=chroms: n.handle_execute_shard(
                        self.name, program, c, engine, outputs=outputs
                    ),
                )
                sections_by_output = {}
                for output_name, ticket, __, chunk_count, meta_len in (
                    response.tickets
                ):
                    sections_by_output[output_name] = self._fetch_partial(
                        node, node_name, ticket, chunk_count, meta_len
                    )
            except HOST_FAILURES as exc:
                skipped.append((node_name, _brief(exc)))
                for group in groups_here:
                    skipped_shards.append(("+".join(group), _brief(exc)))
                continue
            node_seconds[node_name] = (
                node_seconds.get(node_name, 0.0) + response.seconds
            )
            used.add(node_name)
            placed_chroms.update(
                chrom for group in groups_here for chrom in group
            )
            for output_name, (meta_blob, region_blob) in (
                sections_by_output.items()
            ):
                partials.setdefault(output_name, []).append(
                    parse_staged_sections(meta_blob, region_blob, output_name)
                )

    # -- the planner --------------------------------------------------------------------

    def estimate_strategies(self, program: str) -> dict:
        """Estimated bytes for each strategy, from summaries alone."""
        locations = self._plan_locations(program)
        source_bytes = 0
        summaries: dict = {}
        for name, node_name in locations.items():
            dataset = self.nodes[node_name].catalog.get(name)
            source_bytes += dataset.estimated_size_bytes()
            summaries[name] = dataset.summary()
        from repro.federation.estimator import estimate_plan
        from repro.gmql.lang import optimize

        compiled = optimize(compile_program(program))
        result_bytes = sum(
            estimate_plan(plan, summaries).size_bytes()
            for plan in compiled.outputs.values()
        )
        return {
            "data-shipping": source_bytes,
            "query-shipping": result_bytes,
        }

    def run(self, program: str, engine: str = "naive") -> FederatedOutcome:
        """Pick the cheaper strategy by estimate and execute it.

        When the chosen strategy fails on a host-level fault (a node
        died mid-plan, or its breaker opened), the planner falls back to
        the other strategy once before giving up -- a different strategy
        may route around the sick host.
        """
        estimates = self.estimate_strategies(program)
        if estimates["query-shipping"] <= estimates["data-shipping"]:
            order = (self.run_query_shipping, self.run_data_shipping)
        else:
            order = (self.run_data_shipping, self.run_query_shipping)
        try:
            return order[0](program, engine)
        except HOST_FAILURES:
            return order[1](program, engine)


def _brief(error: Exception) -> str:
    """Compact reason string for skipped-host reports."""
    if isinstance(error, RetryExhaustedError) and error.last_error is not None:
        return f"{type(error.last_error).__name__} after {error.attempts} attempt(s)"
    return type(error).__name__
