"""Campaign service CLI.

Usage::

    python -m repro.service serve [--socket PATH | --port N]
        [--workers K] [--quota Q] [--timeout S] [--retries R]
        [--cache-dir DIR | --no-cache] [--sanitize]
        [--trace-dir DIR] [--heartbeat S]
    python -m repro.service submit fig16 --tenant alice [--apps a,b]
        [--length N] [--quota Q] [--wait] [--json]
    python -m repro.service submit matrix --tenant bob --apps mcf,lbm
        --schemes ppa,baseline [--wait]
    python -m repro.service status [--json]
    python -m repro.service health
    python -m repro.service shutdown

``serve`` runs the daemon in the foreground (SIGINT/SIGTERM stop it
cleanly); every other command talks to a running daemon over its socket
(``--socket``/``$REPRO_SERVICE_SOCKET``, default per-user temp path) or
``--port`` on localhost.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import pathlib
import signal
import sys

from repro.cli import add_json_flag, reject_bad_limits
from repro.orchestrator.cache import ResultCache, default_cache_dir

from repro.service.client import ServiceClient, default_socket_path
from repro.service.scheduler import FleetScheduler
from repro.service.server import ServiceServer


def _client(args) -> ServiceClient:
    if getattr(args, "port", None):
        return ServiceClient(host=args.host, port=args.port)
    return ServiceClient(socket_path=args.socket or default_socket_path())


def _cmd_serve(args) -> int:
    cache = None
    if not args.no_cache:
        cache = ResultCache(pathlib.Path(args.cache_dir)
                            if args.cache_dir else default_cache_dir())
    scheduler = FleetScheduler(
        cache=cache, workers=args.workers, quota=args.quota,
        timeout=args.timeout, retries=args.retries,
        sanitize=True if args.sanitize else None,
        engine=args.engine, trace_dir=args.trace_dir,
        heartbeat=args.heartbeat)
    socket_path = None if args.port is not None \
        else (args.socket or default_socket_path())
    server = ServiceServer(scheduler, socket_path=socket_path,
                           host=args.host, port=args.port)

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, server.stop)
        print(f"[service] listening on {server.address} "
              f"({args.workers} workers, cache: "
              f"{cache.root if cache else 'off'})", flush=True)
        await server.serve_until_shutdown()
        print("[service] stopped", flush=True)

    asyncio.run(_serve())
    return 0


def _cmd_submit(args) -> int:
    client = _client(args)
    kwargs: dict = {"quota": args.quota}
    if args.campaign == "matrix":
        if not args.apps or not args.schemes:
            print("matrix submissions need --apps and --schemes",
                  file=sys.stderr)
            return 2
        kwargs["matrix"] = {"apps": args.apps.split(","),
                            "schemes": args.schemes.split(","),
                            "length": args.length or 12_000}
    else:
        kwargs["sweep"] = args.campaign
        if args.apps:
            kwargs["apps"] = args.apps.split(",")
        if args.length:
            kwargs["length"] = args.length
    job = client.submit(args.tenant, **kwargs)
    if not args.wait:
        if args.json:
            print(json.dumps(job, indent=2, allow_nan=False))
        else:
            print(f"[{job['tenant']}] {job['id']} queued: "
                  f"{job['total']} points")
        return 0

    for event in client.events(job["id"]):
        if args.json or event.get("type") != "point":
            continue
        tag = {"hit": "hit ", "sim": "sim ", "dedup": "dup ",
               "fail": "FAIL"}.get(event["source"], "?   ")
        print(f"  [{event['done']:4d}/{event['total']}] {tag} "
              f"{event['point']}", flush=True)
    final = client.results(job["id"])
    if args.json:
        print(json.dumps(final, indent=2, allow_nan=False))
    else:
        snap = final["campaign"]
        print(f"[{snap['tenant']}] {snap['id']} {snap['state']}: "
              f"{snap['done']}/{snap['total']} points, "
              f"{snap['cache_hits']} hits, {snap['simulated']} simulated, "
              f"{snap['deduped']} deduped, {snap['failures']} failed")
        for row in final.get("summary") or []:
            print(f"  {row['label']:12s} {row['gmean_slowdown']:.3f}")
    return 0 if final["campaign"]["state"] == "done" else 1


def _cmd_status(args) -> int:
    status = _client(args).status()
    if args.json:
        print(json.dumps(status, indent=2, allow_nan=False))
        return 0
    print(f"uptime:   {status['uptime']:.1f}s, "
          f"{status['workers']} workers "
          f"(pool generation {status['pool_generation']})")
    print(f"cache:    {status['cache_root'] or 'off'}")
    for tenant in status["tenants"]:
        print(f"tenant {tenant['name']}: {tenant['inflight']} in flight, "
              f"{tenant['queued']} queued (quota {tenant['quota']})")
    for job in status["campaigns"]:
        print(f"  {job['id']} [{job['tenant']}] {job['state']}: "
              f"{job['done']}/{job['total']} done, "
              f"{job['cache_hits']} hits, {job['simulated']} sim, "
              f"{job['deduped']} deduped")
    return 0


def _cmd_health(args) -> int:
    try:
        info = _client(args).healthz()
    except (OSError, RuntimeError) as exc:
        print(f"unreachable: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info, allow_nan=False))
    return 0


def _cmd_shutdown(args) -> int:
    _client(args).shutdown()
    print("shutdown requested")
    return 0


def _add_endpoint_args(parser) -> None:
    parser.add_argument("--socket", type=str, default=None,
                        help="daemon unix socket path (default: "
                             "$REPRO_SERVICE_SOCKET or a per-user temp "
                             "path)")
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="talk TCP to localhost instead of the socket")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Long-lived multi-tenant campaign daemon.")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the daemon (foreground)")
    _add_endpoint_args(serve)
    serve.add_argument("--workers", type=int, default=2,
                       help="process-pool worker fleet size")
    serve.add_argument("--quota", type=int, default=None,
                       help="default per-tenant in-flight point cap "
                            "(default: the fleet size)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-point deadline in seconds")
    serve.add_argument("--retries", type=int, default=1,
                       help="retries per point on worker failure")
    serve.add_argument("--cache-dir", type=str, default=None,
                       help="L2 result cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-sim)")
    serve.add_argument("--no-cache", action="store_true",
                       help="run without the L2 result cache")
    serve.add_argument("--sanitize", action="store_true",
                       help="simulate under the persistency sanitizer")
    serve.add_argument("--engine", type=str, default=None,
                       choices=("auto", "scalar", "batched"),
                       help="simulation engine (default: $REPRO_ENGINE "
                            "or 'auto'; 'auto' batches compatible "
                            "submissions into lockstep cohorts)")
    serve.add_argument("--trace-dir", type=str, default=None,
                       help="capture per-point kernel traces plus "
                            "scheduler stitch manifests under this "
                            "directory (forces the scalar kernel; merge "
                            "with 'python -m repro.observe stitch')")
    serve.add_argument("--heartbeat", type=float, default=10.0,
                       help="seconds between liveness heartbeats on "
                            "campaign event streams (0 disables)")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser("submit", help="submit a campaign")
    _add_endpoint_args(submit)
    submit.add_argument("campaign",
                        help="fig15|fig16|fig17|fig18 sweep, or 'matrix'")
    submit.add_argument("--tenant", type=str, required=True)
    submit.add_argument("--apps", type=str, default=None,
                        help="comma-separated application subset")
    submit.add_argument("--schemes", type=str, default=None,
                        help="comma-separated schemes (matrix)")
    submit.add_argument("--length", type=int, default=None)
    submit.add_argument("--quota", type=int, default=None,
                        help="per-tenant in-flight cap override")
    submit.add_argument("--wait", action="store_true",
                        help="follow the event stream until completion")
    add_json_flag(submit)
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="daemon-wide status")
    _add_endpoint_args(status)
    add_json_flag(status)
    status.set_defaults(func=_cmd_status)

    health = sub.add_parser("health", help="liveness probe")
    _add_endpoint_args(health)
    health.set_defaults(func=_cmd_health)

    shutdown = sub.add_parser("shutdown", help="stop the daemon")
    _add_endpoint_args(shutdown)
    shutdown.set_defaults(func=_cmd_shutdown)

    args = parser.parse_args(argv)
    if reject_bad_limits(args):
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
