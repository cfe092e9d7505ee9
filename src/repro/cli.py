"""Command-line interface.

Usage::

    python -m repro.cli stats graph.uel
    python -m repro.cli estimate graph.uel A B --samples 4000
    python -m repro.cli cluster graph.uel --k 20 --algorithm mcp -o out.tsv
    python -m repro.cli kmedian graph.uel --k 20 --samples 2000 -o out.tsv
    python -m repro.cli kcenter graph.uel --k 20 --samples 2000 -o out.tsv
    python -m repro.cli centrality graph.uel --measure harmonic -o values.tsv
    python -m repro.cli mutate graph.uel --update A B 0.9 --add A C 0.4 \
        -o graph2.uel --world-cache .world-cache
    python -m repro.cli generate krogan --scale 0.2 -o krogan.uel
    python -m repro.cli cache info .world-cache
    python -m repro.cli cache clear .world-cache
    python -m repro.cli serve --port 8722 --world-cache .world-cache
    python -m repro.cli bench-serve http://127.0.0.1:8722 --graph krogan

Graphs are read/written in the ``.uel`` text format (``u v probability``
per line); clusterings are written as TSV ``node<TAB>cluster<TAB>center``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro import __version__
from repro.baselines.kpt import kpt_clustering
from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.exceptions import ReproError
from repro.graph.io import read_uncertain_graph, write_uncertain_graph
from repro.sampling.oracle import MonteCarloOracle
from repro.sampling.store import WorldStore
from repro.workloads.families import FAMILIES, MAX_REQUEST_SAMPLES, phase_breakdown
from repro.workloads.measures import MEASURE_NAMES

_CLUSTER_ALGORITHMS = ("mcp", "acp", "mcl", "gmm", "kpt")


def _print_profile(total_s: float, oracle) -> None:
    """Print the per-run phase breakdown table (``--profile``).

    The same ``timings`` breakdown the service reports per job (see
    ``GET /v1/jobs/{id}``), computed from the run's oracle; algorithms
    without an oracle (mcl/gmm/kpt) attribute everything to clustering.
    """
    phases = stats = None
    if oracle is not None:
        phases = oracle.phase_timings
        stats = oracle.cache_stats
    timings = phase_breakdown(total_s, phases, stats)
    print("phase         wall_ms", file=sys.stderr)
    for name, key in (("sample", "sample_ms"), ("label", "label_ms"),
                      ("store read", "store_read_ms"), ("store write", "store_write_ms"),
                      ("distance", "distance_ms"),
                      ("cluster", "cluster_ms"), ("total", "total_ms")):
        print(f"{name:<12} {timings[key]:>9.3f}", file=sys.stderr)
    print(f"worlds sampled {timings['worlds_sampled']}", file=sys.stderr)
    print(f"worlds reused  {timings['worlds_reused']}", file=sys.stderr)


def _write_result(clustering, fields: dict, graph, stream) -> None:
    """TSV of a clustering (node/cluster/center), or of ``fields["values"]`` (node/value)."""
    labels = graph.node_labels
    if clustering is None:
        stream.write("node\tvalue\n")
        for node, value in enumerate(fields["values"]):
            stream.write(f"{labels[node]}\t{value:.6g}\n")
        return
    stream.write("node\tcluster\tcenter\n")
    for node in range(clustering.n_nodes):
        cluster = int(clustering.assignment[node])
        center = labels[clustering.centers[cluster]] if cluster >= 0 else "-"
        stream.write(f"{labels[node]}\t{cluster}\t{center}\n")


def _cmd_stats(args) -> int:
    graph = read_uncertain_graph(args.graph, merge=args.merge)
    degrees = graph.degrees()
    prob = graph.edge_prob
    lcc = graph.largest_component()
    print(f"nodes            {graph.n_nodes}")
    print(f"edges            {graph.n_edges}")
    print(f"largest CC       {lcc.n_nodes} nodes / {lcc.n_edges} edges")
    print(f"expected edges   {graph.expected_edge_count():.1f}")
    if graph.n_edges:
        print(f"degree           mean={degrees.mean():.2f} max={int(degrees.max())}")
        print(
            "edge probability "
            f"min={prob.min():.3f} median={float(np.median(prob)):.3f} max={prob.max():.3f}"
        )
    return 0


def _cmd_estimate(args) -> int:
    graph = read_uncertain_graph(args.graph, merge=args.merge)
    u, v = _node_index(graph, args.u), _node_index(graph, args.v)
    started = time.perf_counter()
    oracle = MonteCarloOracle(graph, seed=args.seed, cache_dir=args.world_cache)
    oracle.ensure_samples(args.samples)
    estimate = oracle.connection(u, v, depth=args.depth)
    suffix = f" (paths <= {args.depth})" if args.depth else ""
    print(f"Pr({args.u} ~ {args.v}){suffix} ~= {estimate:.4f}  [{args.samples} worlds]")
    if args.profile:
        _print_profile(time.perf_counter() - started, oracle)
    return 0


def _node_index(graph, token: str) -> int:
    """:meth:`UncertainGraph.index_of`, the rule ``repro estimate`` and
    ``repro mutate`` both resolve endpoints with."""
    try:
        return graph.index_of(token)
    except KeyError:
        raise ReproError(f"unknown node label {token!r}") from None


def _cmd_family(args) -> int:
    """``cluster`` / ``kmedian`` / ``kcenter`` / ``centrality``: run one
    family of :data:`~repro.workloads.families.FAMILIES` (or the
    CLI-only ``kpt``) with the service's parameter rules and oracle
    configuration, and write its TSV."""
    algorithm = args.algorithm if args.command == "cluster" else args.command
    family = FAMILIES.get(algorithm)  # None: kpt
    params = family.normalize(vars(args)) if family is not None else None
    graph = read_uncertain_graph(args.graph, merge=args.merge)
    started = time.perf_counter()
    if family is None:
        oracle, clustering, fields = None, kpt_clustering(graph, seed=args.seed), {}
        print(f"kpt: {clustering.k} clusters", file=sys.stderr)
    else:
        oracle = (MonteCarloOracle(graph, seed=params["seed"], chunk_size=params["chunk_size"],
                                   max_samples=MAX_REQUEST_SAMPLES, cache_dir=args.world_cache)
                  if family.leases_oracle else None)
        clustering, fields = family.run(graph, oracle, params, None, None)
        if family.summary is not None:
            print(family.summary(fields), file=sys.stderr)
    total_s = time.perf_counter() - started
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            _write_result(clustering, fields, graph, handle)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        _write_result(clustering, fields, graph, sys.stdout)
    if getattr(args, "profile", False):
        _print_profile(total_s, oracle)
    return 0


def _format_bytes(n_bytes: int) -> str:
    value = float(n_bytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{int(value)}B"  # pragma: no cover - loop always returns


def _cmd_cache_info(args) -> int:
    store = WorldStore(args.dir)
    pools = store.info()
    if not pools:
        print(f"{args.dir}: no cached pools")
        return 0
    print("digest        worlds   nodes   edges  masks      labels")
    total_masks = total_labels = 0
    for pool in pools:
        total_masks += pool.mask_bytes
        total_labels += pool.label_bytes
        print(
            f"{pool.digest[:12]}  {pool.n_worlds:>6}  {pool.n_nodes:>6}  {pool.n_edges:>6}  "
            f"{_format_bytes(pool.mask_bytes):<9}  {_format_bytes(pool.label_bytes)}"
        )
    print(
        f"{len(pools)} pool(s), {_format_bytes(total_masks)} packed masks, "
        f"{_format_bytes(total_labels)} labels"
    )
    return 0


def _cmd_cache_clear(args) -> int:
    store = WorldStore(args.dir)
    if args.digest:
        matches = [pool.digest for pool in store.info() if pool.digest.startswith(args.digest)]
        if not matches:
            print(f"error: no cached pool matches digest {args.digest!r}", file=sys.stderr)
            return 2
        removed = sum(store.clear(digest) for digest in matches)
    else:
        removed = store.clear()
    print(f"removed {removed} pool(s) from {args.dir}", file=sys.stderr)
    return 0


def _cmd_mutate(args) -> int:
    """Apply edge mutations to a .uel graph, optionally migrating pools."""
    from repro.sampling.deltas import derive_pool

    graph = read_uncertain_graph(args.graph, merge=args.merge)

    def label(token):
        return graph.label_of(_node_index(graph, token))

    # graph.mutate checks each probability token (checked_probability).
    add = [(label(u), label(v), p) for u, v, p in (args.add or [])]
    remove = [(label(u), label(v)) for u, v in (args.remove or [])]
    update = [(label(u), label(v), p) for u, v, p in (args.update or [])]
    if not (add or remove or update):
        print("error: no mutation ops given (--add/--remove/--update)", file=sys.stderr)
        return 2
    mutated, delta = graph.mutate(add=add, remove=remove, update=update)
    output = args.output or args.graph
    write_uncertain_graph(
        mutated, output,
        header=f"mutated from {args.graph}: "
        + " ".join(f"{k}={c}" for k, c in delta.summary().items() if c),
    )
    counts = delta.summary()
    print(
        f"wrote {output}: {mutated.n_nodes} nodes, {mutated.n_edges} edges "
        f"(+{counts['added']} -{counts['removed']} ~{counts['updated']} edges, "
        f"revision {graph.revision} -> {mutated.revision})",
        file=sys.stderr,
    )
    if args.world_cache:
        # Derive against the graph as *re-read* from the written file:
        # .uel text is the durable identity (probabilities round-trip
        # through %.10g), so pools must be keyed to what later runs
        # will parse, not to the in-memory float values.
        reread = read_uncertain_graph(output, merge=args.merge)
        store = WorldStore(args.world_cache)
        result = derive_pool(store, graph, reread, seed=args.seed)
        if result is None or result.worlds_derived == 0:
            print(
                f"world cache {args.world_cache}: no parent pool for "
                f"seed={args.seed} - the next run samples cold",
                file=sys.stderr,
            )
        else:
            print(
                f"world cache {args.world_cache}: derived {result.worlds_derived} worlds "
                f"({result.worlds_repaired} relabeled, "
                f"{result.columns_resampled} columns resampled"
                + ("" if result.complete else "; incomplete - remainder samples cold")
                + ")",
                file=sys.stderr,
            )
    return 0


def _cmd_generate(args) -> int:
    graph, complexes = load_dataset(args.dataset, seed=args.seed, scale=args.scale, dblp_authors=args.dblp_authors)
    write_uncertain_graph(graph, args.output, header=f"{args.dataset} (seed={args.seed}, scale={args.scale})")
    message = f"wrote {args.output}: {graph.n_nodes} nodes, {graph.n_edges} edges"
    if complexes is not None:
        message += f", {len(complexes)} planted complexes"
    print(message, file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    """Run the async clustering service until shutdown."""
    from repro.service import ClusterService, serve
    from repro.service.admission import AdmissionControl

    preloaded = []
    for spec in args.graph or ():
        path, sep, name = spec.partition(":")
        if not sep:
            name = path.rsplit("/", 1)[-1].removesuffix(".uel")
        preloaded.append((name, path, read_uncertain_graph(path, merge=args.merge)))
    admission = AdmissionControl(
        rate_limit=args.rate_limit,
        max_queued=args.max_queued if args.max_queued > 0 else None,
        max_jobs_per_client=(
            args.max_jobs_per_client if args.max_jobs_per_client > 0 else None
        ),
    )
    service = ClusterService(
        world_cache=args.world_cache,
        cache_bytes=args.cache_bytes,
        job_workers=args.job_threads,
        worker_processes=args.workers,
        admission=admission,
        shutdown_grace_s=args.grace,
        dataset_scale=args.dataset_scale,
        trace_log=args.trace_log,
    )
    for name, path, graph in preloaded:
        service.graphs.register_graph(name, graph, source=path)
        print(
            f"registered graph {name!r}: {graph.n_nodes} nodes, {graph.n_edges} edges",
            file=sys.stderr,
        )
    return serve(service, host=args.host, port=args.port)


def _cmd_bench_serve(args) -> int:
    """Load-generate against a running service; write BENCH_service.json."""
    import asyncio

    from repro.service.loadgen import (
        run_burst,
        run_load,
        run_mixed_load,
        scrape_metrics,
        summarize,
        write_artifact,
    )

    async def measure():
        results = await run_load(
            args.url,
            graph=args.graph,
            algorithm=args.algorithm,
            k=args.k,
            samples=args.samples,
            seed=args.seed,
            duration=args.duration,
            concurrency=args.concurrency,
            upload=args.upload,
            u=args.u,
            v=args.v,
        )
        if args.mixed_jobs > 0:
            results["mixed"] = await run_mixed_load(
                args.url, graph=args.graph, k=args.k, samples=args.samples,
                seed=args.seed, jobs=args.mixed_jobs,
                concurrency=args.concurrency, u=args.u, v=args.v,
            )
        if args.burst > 0:
            results["burst"] = await run_burst(
                args.url, graph=args.graph, count=args.burst, k=args.k,
                seed=args.seed,
            )
        # Scrape last so the snapshot reflects the whole run.
        results["metrics"] = await scrape_metrics(args.url)
        return results

    results = asyncio.run(measure())
    print(summarize(results))
    if args.output:
        write_artifact(results, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    if args.require_429:
        burst = results.get("burst")
        if not burst or burst["rejected_429"] < 1 or not burst["retry_after_present"]:
            print(
                "bench-serve: --require-429 failed: burst produced no 429 "
                f"with Retry-After ({burst})",
                file=sys.stderr,
            )
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser (all subcommands attached).

    Examples
    --------
    >>> parser = build_parser()
    >>> sorted(parser.parse_args(["stats", "g.uel"]).__dict__)[:2]
    ['command', 'func']
    """
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="print statistics of a .uel graph")
    stats.add_argument("graph")
    stats.add_argument("--merge", default="error", help="duplicate-edge policy")
    stats.set_defaults(func=_cmd_stats)

    estimate = sub.add_parser("estimate", help="estimate a connection probability")
    estimate.add_argument("graph")
    estimate.add_argument("u")
    estimate.add_argument("v")
    estimate.add_argument("--samples", type=int, default=2000)
    estimate.add_argument("--depth", type=int, default=None)
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument("--merge", default="error")
    estimate.add_argument(
        "--world-cache", default=None, metavar="DIR",
        help="persistent world-store directory: sampled pools are reused "
        "across runs with the same (graph, seed)",
    )
    estimate.add_argument(
        "--profile", action="store_true",
        help="print the phase breakdown (sample/label/store read/store write/"
        "distance/cluster wall ms, worlds sampled vs reused) after the estimate",
    )
    estimate.set_defaults(func=_cmd_estimate)

    def family(name, help, *, samples, samples_help):
        """A table-family subcommand with the flags every family shares."""
        parser = sub.add_parser(name, help=help)
        parser.add_argument("graph")
        parser.add_argument("--samples", type=int, default=samples, help=samples_help)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument(
            "--world-cache", default=None, metavar="DIR",
            help="persistent world-store directory; the pool is shared with "
            "every other workload of the same (graph, seed)",
        )
        parser.add_argument("--merge", default="error", help="duplicate-edge policy")
        parser.add_argument(
            "-o", "--output", default=None, help="write TSV here (default stdout)"
        )
        parser.set_defaults(func=_cmd_family)
        return parser

    cluster = family("cluster", "cluster a .uel graph", samples=1000,
                     samples_help="Monte Carlo budget")
    cluster.add_argument("--algorithm", choices=_CLUSTER_ALGORITHMS, default="mcp")
    cluster.add_argument("--k", type=int, default=10, help="clusters (mcp/acp/gmm)")
    cluster.add_argument("--depth", type=int, default=None, help="path-length limit (mcp/acp)")
    cluster.add_argument("--inflation", type=float, default=2.0, help="mcl granularity")
    cluster.add_argument(
        "--profile", action="store_true",
        help="print the phase breakdown (sample/label/store read/store write/"
        "distance/cluster wall ms, worlds sampled vs reused) after clustering",
    )

    for kind, objective in (("kmedian", "mean"), ("kcenter", "max")):
        workload = family(
            kind, f"probabilistic {kind[1:]} clustering ({objective} expected "
            "hop distance over sampled worlds)",
            samples=1000, samples_help="worlds the expected distances are estimated over",
        )
        workload.add_argument("--k", type=int, default=10, help="number of clusters")

    centrality = family(
        "centrality", "expected per-node centrality over sampled worlds "
        "(progressive sampling with confidence stopping)",
        samples=2000, samples_help="sample budget (worlds)",
    )
    centrality.add_argument(
        "--measure", choices=MEASURE_NAMES, default="degree",
        help="centrality measure to estimate",
    )
    centrality.add_argument(
        "--tol", type=float, default=0.05,
        help="stop once every node's 95%% confidence half-width is below this",
    )

    mutate = sub.add_parser(
        "mutate",
        help="apply edge mutations to a .uel graph (and migrate cached world pools)",
    )
    mutate.add_argument("graph", help="input .uel graph")
    mutate.add_argument(
        "--add", action="append", nargs=3, metavar=("U", "V", "P"),
        help="add edge U-V with probability P (repeatable)",
    )
    mutate.add_argument(
        "--remove", action="append", nargs=2, metavar=("U", "V"),
        help="remove edge U-V (repeatable)",
    )
    mutate.add_argument(
        "--update", action="append", nargs=3, metavar=("U", "V", "P"),
        help="set edge U-V's probability to P (repeatable)",
    )
    mutate.add_argument(
        "-o", "--output", default=None,
        help="write the mutated graph here (default: overwrite the input)",
    )
    mutate.add_argument("--merge", default="error", help="duplicate-edge policy")
    mutate.add_argument(
        "--world-cache", default=None, metavar="DIR",
        help="derive the mutated graph's cached world pool from the input "
        "graph's instead of leaving the next run cold; --seed must match "
        "the run that filled the cache",
    )
    mutate.add_argument("--seed", type=int, default=0)
    mutate.set_defaults(func=_cmd_mutate)

    generate = sub.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("dataset", choices=DATASET_NAMES)
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--dblp-authors", type=int, default=20_000)
    generate.set_defaults(func=_cmd_generate)

    cache = sub.add_parser("cache", help="inspect or clear a world-store cache directory")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_info = cache_sub.add_parser("info", help="list cached pools and their sizes")
    cache_info.add_argument("dir", help="world-cache directory (as passed to --world-cache)")
    cache_info.set_defaults(func=_cmd_cache_info)
    cache_clear = cache_sub.add_parser("clear", help="delete cached pools")
    cache_clear.add_argument("dir", help="world-cache directory (as passed to --world-cache)")
    cache_clear.add_argument(
        "--digest", default=None,
        help="remove only pools whose digest starts with this prefix (default: all)",
    )
    cache_clear.set_defaults(func=_cmd_cache_clear)

    serve = sub.add_parser(
        "serve", help="run the async clustering service (HTTP/JSON API)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8722)
    serve.add_argument(
        "--world-cache", default=None, metavar="DIR",
        help="persist the service's world pools to this directory "
        "(default: in-memory only)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="clustering worker processes; 0 runs jobs on in-process "
        "executor threads instead (see --job-threads)",
    )
    serve.add_argument(
        "--job-threads", type=int, default=2, metavar="N",
        help="executor threads for in-process jobs (only with --workers 0)",
    )
    serve.add_argument(
        "--grace", type=float, default=5.0, metavar="SECONDS",
        help="default drain grace period of POST /v1/shutdown",
    )
    serve.add_argument(
        "--max-queued", type=int, default=64, metavar="N",
        help="queued-job bound before submissions get 429 + Retry-After "
        "(0 disables)",
    )
    serve.add_argument(
        "--max-jobs-per-client", type=int, default=32, metavar="N",
        help="non-terminal jobs one client may hold (0 disables)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=None, metavar="RPS",
        help="per-client token-bucket rate limit in requests/second "
        "(default: unlimited)",
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=256 << 20, metavar="BYTES",
        help="LRU byte budget of the oracle cache (packed masks + labels)",
    )
    serve.add_argument(
        "--graph", action="append", default=None, metavar="PATH[:NAME]",
        help="pre-register a .uel graph at startup (repeatable); NAME "
        "defaults to the file stem",
    )
    serve.add_argument(
        "--dataset-scale", type=float, default=1.0,
        help="scale used when a built-in dataset is first loaded",
    )
    serve.add_argument("--merge", default="error", help="duplicate-edge policy for --graph files")
    serve.add_argument(
        "--trace-log", default=None, metavar="PATH",
        help="append one JSON span line per traced operation (HTTP "
        "requests, jobs, threshold guesses) to this file; spans carry "
        "the request's X-Request-Id as trace_id",
    )
    serve.set_defaults(func=_cmd_serve)

    bench_serve = sub.add_parser(
        "bench-serve", help="load-generate against a running clustering service"
    )
    bench_serve.add_argument("url", help="service base URL, e.g. http://127.0.0.1:8722")
    bench_serve.add_argument("--graph", required=True, help="registered graph name to hit")
    bench_serve.add_argument(
        "--upload", default=None, metavar="PATH",
        help="upload this .uel file under --graph before measuring",
    )
    bench_serve.add_argument("--algorithm", choices=("mcp", "acp"), default="mcp")
    bench_serve.add_argument("--k", type=int, default=4)
    bench_serve.add_argument("--samples", type=int, default=500)
    bench_serve.add_argument("--seed", type=int, default=0)
    bench_serve.add_argument("--duration", type=float, default=3.0,
                             help="sustained-load phase length in seconds")
    bench_serve.add_argument("--concurrency", type=int, default=4,
                             help="concurrent keep-alive connections")
    bench_serve.add_argument("--u", default="0", help="estimate endpoint node u")
    bench_serve.add_argument("--v", default="1", help="estimate endpoint node v")
    bench_serve.add_argument(
        "--mixed-jobs", type=int, default=0, metavar="N",
        help="also run a mixed cold/warm/mutate phase of N jobs and "
        "record its throughput",
    )
    bench_serve.add_argument(
        "--burst", type=int, default=0, metavar="N",
        help="also burst N distinct submissions to probe admission "
        "control (expects 429s when N exceeds the queue bound)",
    )
    bench_serve.add_argument(
        "--require-429", action="store_true",
        help="fail unless the --burst phase observed at least one 429 "
        "with Retry-After",
    )
    bench_serve.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write a schema-1 BENCH_service.json artifact here",
    )
    bench_serve.set_defaults(func=_cmd_bench_serve)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code (0 ok, 2 usage/error)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
