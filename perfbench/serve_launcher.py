"""Start ``repro serve`` with the layer wrappers installed.

Usage (from the repository root)::

    python3 perfbench/serve_launcher.py --trace SPANS.bin -- [serve flags...]

Installs :mod:`tracing`'s wrappers, then calls
:func:`repro.api.serve.serve` with a default session (explicit backend,
``auto`` kernel, as ``repro serve`` builds it) and the config its limit
flags describe.  When the
server drains (SIGTERM) the spans and a queue-depth sample per dispatched
request are written to the ``--trace`` file and ``<file>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_argv = [arg for arg in args.serve_args if arg != "--"]

    import importlib

    import tracing
    from repro.api.session import Session

    # the module, not the ``serve`` function that ``repro.api`` re-exports
    serve_module = importlib.import_module("repro.api.serve")

    serve_parser = argparse.ArgumentParser()
    serve_module.add_serve_arguments(serve_parser)
    serve_args = serve_parser.parse_args(serve_argv)

    recorder = tracing.Recorder()
    installed = tracing.install(recorder)
    depths = []
    submit = serve_module.Dispatcher.submit

    def sampled_submit(self, fn):
        depths.append(self.depth())
        return submit(self, fn)

    serve_module.Dispatcher.submit = sampled_submit
    session = Session()  # the defaults of ``repro serve``: explicit backend, auto kernel
    try:
        code = serve_module.serve(
            session, host=serve_args.host, port=serve_args.port,
            config=serve_module.config_from_args(serve_args),
        )
    finally:
        serve_module.Dispatcher.submit = submit
        tracing.uninstall(installed)
    recorder.dump(args.trace)
    with open(args.trace + ".json", "w") as handle:
        json.dump({"queue_depths": depths}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
