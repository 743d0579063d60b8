"""``repro-fleet`` — a sharded multi-replica solve fleet from the command line.

Installed as a console script by ``setup.py``.  Launches ``N`` ``repro-serve
--http`` workers on ephemeral ports, keeps them alive (health probes,
backoff restarts), and fronts them with the
:class:`~repro.fleet.router.FleetRouter` — one URL speaking the same
``/v1/*`` wire schema as a single server::

    repro-fleet --replicas 2 --port 8080
    repro-fleet --replicas 4 --port 0 --trace-dir traces/

With ``--trace-dir`` each replica streams its spans to
``DIR/replica-<i>/trace.jsonl`` and the inbound ``X-Repro-Trace-Id`` header
is forwarded on the proxied hop, so one trace id follows a request through
router and replica alike.

SIGINT/SIGTERM drain gracefully: the router stops accepting, every replica
finishes its admitted jobs, and the process exits 0 after printing the same
clean-shutdown line CI greps for.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from repro.fleet.replica import FleetError, ReplicaFleet, SubprocessReplica
from repro.fleet.ring import DEFAULT_VNODES
from repro.fleet.router import FleetRouter
from repro.version import __version__

__all__ = ["build_parser", "main"]

#: Exit code when the fleet could not come up at all.
EXIT_LAUNCH_FAILED = 2


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-fleet`` argument parser (exposed for the smoke test)."""
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="Serve the repro wire protocol through a consistent-hash "
                    "sharded fleet of repro-serve replicas with health-aware "
                    "failover.")
    parser.add_argument("--replicas", type=int, default=2, metavar="N",
                        help="number of repro-serve --http workers to launch "
                             "(default: 2)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address of the router and its replicas "
                             "(default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080,
                        help="router port; 0 picks an ephemeral port "
                             "(default: 8080)")
    parser.add_argument("--vnodes", type=int, default=DEFAULT_VNODES,
                        help="virtual nodes per replica on the hash ring "
                             f"(default: {DEFAULT_VNODES})")
    parser.add_argument("--health-interval", type=float, default=0.5,
                        metavar="S",
                        help="seconds between replica health probes "
                             "(default: 0.5)")
    parser.add_argument("--no-restart", action="store_true",
                        help="do not relaunch dead replicas (default: "
                             "restart with exponential backoff)")
    parser.add_argument("--store", default=None,
                        help="observation-store directory passed to every "
                             "replica (default: none)")
    parser.add_argument("--batch-mode", default="loop",
                        choices=("loop", "block", "auto"),
                        help="multi-rhs batch mode passed to every replica; "
                             "'block' and 'auto' change only CG batches, "
                             "which block CG serves (default: loop)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="enable tracing on every replica; replica i "
                             "writes to DIR/replica-<i>/ (default: off)")
    parser.add_argument("--version", action="version",
                        version=f"repro-fleet {__version__}")
    return parser


def _replica_args(args: argparse.Namespace, index: int) -> tuple[str, ...]:
    """The extra ``repro-serve`` flags of replica ``index``."""
    extra: list[str] = ["--batch-mode", args.batch_mode]
    if args.store is not None:
        extra += ["--store", args.store]
    if args.trace_dir is not None:
        replica_dir = os.path.join(args.trace_dir, f"replica-{index}")
        os.makedirs(replica_dir, exist_ok=True)
        extra += ["--trace-dir", replica_dir]
    return tuple(extra)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.replicas < 1:
        parser.error(f"--replicas must be >= 1, got {args.replicas}")

    replicas = [
        SubprocessReplica(f"replica-{index}", host=args.host,
                          extra_args=_replica_args(args, index))
        for index in range(args.replicas)
    ]
    fleet = ReplicaFleet(replicas,
                         health_interval=args.health_interval,
                         restart=not args.no_restart)
    try:
        fleet.start()
    except FleetError as error:
        print(f"repro-fleet: launch failed: {error}", file=sys.stderr)
        return EXIT_LAUNCH_FAILED
    if not fleet.live_ids():
        print("repro-fleet: no replica came up healthy", file=sys.stderr)
        fleet.drain()
        return EXIT_LAUNCH_FAILED

    router = FleetRouter(fleet, host=args.host, port=args.port,
                         vnodes=args.vnodes)

    def interrupt(signum, frame):  # noqa: ARG001 - signal API
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, interrupt)
    # Announce the resolved (possibly ephemeral) port before blocking, same
    # contract as repro-serve: supervisors parse this line.
    print(f"repro-fleet listening on {router.url} "
          f"({args.replicas} replicas)", flush=True)
    for replica in replicas:
        print(f"repro-fleet: {replica.name} on {replica.url} "
              f"(pid {replica.process.pid})", flush=True)
    try:
        router.serve_forever()
    except KeyboardInterrupt:
        codes = fleet.drain()
        dirty = {name: code for name, code in codes.items() if code != 0}
        if dirty:
            print(f"repro-fleet: replicas exited uncleanly: {dirty}",
                  file=sys.stderr)
            return 1
        print("repro-fleet: drained and shut down cleanly", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
