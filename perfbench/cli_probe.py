"""Run one ``sgclone`` command in this process and report where its time went.

Usage: python3 cli_probe.py [--trace] -- <sgclone arguments>

Behaves as ``python -m sgclone.cli <arguments>`` (same stdout, stderr and
exit code) and adds one last stderr line, ``perfbench-probe {json}``, with
the CPU time of ``import sgclone.cli``, the number of modules it loaded,
the CPU time of ``main()`` and, with ``--trace``, the per-layer tracer snapshot.
"""

import sys
import time

_bare_modules = len(sys.modules)
_start = time.process_time()
import sgclone.cli  # noqa: E402

_import_s = time.process_time() - _start
_loaded = len(sys.modules) - _bare_modules

MARKER = "perfbench-probe "


def main() -> None:
    import json
    import os

    split = sys.argv.index("--")
    tracer = None
    if "--trace" in sys.argv[1:split]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    code = 1
    start = time.process_time()
    try:
        code = sgclone.cli.main(sys.argv[split + 1:])
    except SystemExit as exc:
        code = exc.code
    finally:
        main_s = time.process_time() - start
        sys.stdout.flush()
        report = {"import_ms": _import_s * 1e3, "modules_loaded": _loaded, "main_ms": main_s * 1e3,
                  "trace": tracer.snapshot() if tracer else None}
        print(MARKER + json.dumps(report), file=sys.stderr, flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
