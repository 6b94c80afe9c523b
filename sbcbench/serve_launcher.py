"""Server process of ``serve_mixed``: ``repro serve`` on its defaults.

    python3 sbcbench/serve_launcher.py --trace 0|1

Runs the program's own CLI entry (``repro serve --port 0``), which
prints the bound address once it listens; SIGINT stops it.  With
``--trace 1`` the layer tracer is prepared but swapped in only on
SIGUSR1, so a run can measure an untraced phase first; a probe callback
on the server's event loop records how late the loop runs it, and at
exit the totals are printed as one ``TRACE {...}`` line.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

from common import SRC

#: Period of the loop-lag probe callback.
PROBE_SECONDS = 0.01


class LoopProbe:
    """Lateness of a periodic callback on the server's event loop."""

    def __init__(self):
        self.lags_ms = []
        self.recording = False

    def start(self, loop):
        due = time.perf_counter() + PROBE_SECONDS
        loop.call_later(PROBE_SECONDS, self._tick, loop, due)

    def _tick(self, loop, due):
        now = time.perf_counter()
        if self.recording:
            self.lags_ms.append(max(now - due, 0.0) * 1000.0)
        due = now + PROBE_SECONDS
        loop.call_later(PROBE_SECONDS, self._tick, loop, due)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    sys.stdout.reconfigure(line_buffering=True)
    from repro.cli import main as repro_main

    tracer = probe = None
    if args.trace:
        import asyncio

        from layertrace import LayerTracer, copy_executor_context
        from repro.serve.app import ServeApp

        tracer = LayerTracer()
        probe = LoopProbe()
        original_start = ServeApp.start

        async def start(app):
            await original_start(app)
            probe.start(asyncio.get_running_loop())

        ServeApp.start = start

        def begin_tracing(_signum, _frame):
            copy_executor_context()
            tracer.install()
            probe.recording = True

        signal.signal(signal.SIGUSR1, begin_tracing)

    code = repro_main(["serve", "--port", "0"])
    if tracer is not None:
        print("TRACE " + json.dumps({
            "totals": [[layer, cls, *record] for (layer, cls), record
                       in tracer.totals.items()],
            "counts": tracer.counts,
            "unresolved": tracer.unresolved,
            "loop_lag_ms": probe.lags_ms,
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
