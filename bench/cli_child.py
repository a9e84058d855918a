"""Run the bht_arima CLI under the benchmark's tracer.

Usage: python bench/cli_child.py SPANS_OUT CLI_ARGS...

Records a ``cli.import`` span around importing ``bht_arima.cli``, wraps the
package's public functions, runs ``bht_arima.cli.main(CLI_ARGS)``, writes the
spans as JSON to SPANS_OUT and exits with the CLI's exit code. The parent
adopts the spans under its op span.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    sid = tracer.begin("cli.import")
    import bht_arima.cli

    tracer.end(sid)
    tracer.install()
    try:
        code = bht_arima.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
