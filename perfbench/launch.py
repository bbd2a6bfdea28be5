"""Run ``python -m repro ...`` with span recording installed.

Usage: ``python launch.py -m repro serve ...`` (the same arguments the
plain command takes).  ``PERFBENCH_TRACE_DIR`` names the directory the
spans are dumped to when the process exits; ``PERFBENCH_PYTHON`` names
an executable that runs this launcher, which a shard router is given
as its ``python`` so that its workers are traced too.

SIGTERM ends a single daemon or worker like Ctrl-C does, so the spans
are dumped; the router handles SIGTERM itself and returns normally.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def _interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def main(argv: list) -> int:
    if argv[:2] != ["-m", "repro"]:
        print("usage: launch.py -m repro <command> ...", file=sys.stderr)
        return 2
    args = argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)

    import repro.service
    from repro.cli import main as cli_main

    class TracedRouter(repro.service.ShardRouter):
        def __init__(self, *a: object, **kw: object) -> None:
            kw.setdefault("python", os.environ["PERFBENCH_PYTHON"])
            super().__init__(*a, **kw)

    repro.service.ShardRouter = TracedRouter
    header = {"pid": os.getpid(), "role": "daemon"}
    if "--shards" in args:
        header["role"] = "router"
    elif "--admin" in args:
        prefix = args[args.index("--session-prefix") + 1]
        header.update(role="worker", worker=int(prefix[1 : prefix.index("e")]))
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli_main(args)
    except KeyboardInterrupt:
        return 0
    finally:
        out = Path(os.environ["PERFBENCH_TRACE_DIR"]) / f"spans-{os.getpid()}"
        recorder.dump(out, header)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
