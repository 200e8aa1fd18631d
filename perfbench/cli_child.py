"""Run one klform CLI invocation under the span tracer.

Usage: python3 perfbench/cli_child.py TRACE_JSON -- <klform arguments>

Used for the traced items of cli-batch.  Writes the spans, the import time
of ``klform.cli``, the time ``main`` spent outside ``run`` (serialization
and writing) and the assembled-matrix nonzeros to TRACE_JSON, then exits
with the CLI's own exit code.
"""

import json
import sys
import time

from tracing import NNZ, Tracer

if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit(__doc__)
    trace_path, argv = sys.argv[1], sys.argv[3:]
    t0 = time.perf_counter()
    import klform.cli

    import_ms = 1000.0 * (time.perf_counter() - t0)
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    code = klform.cli.main(argv)
    main_ms = 1000.0 * (time.perf_counter() - t0)
    run_ms = sum(
        1000.0 * (end - start) for name, start, end, _ in tracer.spans if name == "cli.run"
    )
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_ms": import_ms,
                "write_ms": main_ms - run_ms,
                "nnz": tracer.counts[NNZ],
                "spans": tracer.spans,
            },
            fh,
        )
    sys.exit(code)
