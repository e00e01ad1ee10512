"""Serve ``python -m repro.service`` with the layer wrappers installed.

Usage::

    python3 perfbench/serve_traced.py --trace-out FILE [repro.service args]

The wrappers go in before the service builds its engine, then
``repro.service.__main__.main`` runs with the remaining arguments, so the
server is the same ``SQLService`` at the same defaults.  Recording starts
at a ``{"op": "trace_start"}`` request (after the engine's start-up
recovery) and stops at ``{"op": "trace_dump"}``, which writes the spans to
``FILE``.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    args, service_argv = parser.parse_known_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)

    import spans
    from repro.service import __main__ as service_main
    from repro.service import protocol
    from repro.service.core import ServiceCore

    tracer = spans.Tracer(tag="s")
    spans.install(tracer)
    dispatch = ServiceCore._dispatch

    def dispatch_with_dump(core, session, request_id, message):
        if message.get("op") == "trace_start":
            tracer.enabled = True
            return protocol.ok_response(request_id)
        if message.get("op") == "trace_dump":
            tracer.enabled = False
            tracer.write(args.trace_out)
            return protocol.ok_response(request_id, rowcount=len(tracer.spans))
        return dispatch(core, session, request_id, message)

    ServiceCore._dispatch = dispatch_with_dump
    return service_main.main(service_argv)


if __name__ == "__main__":
    raise SystemExit(main())
