"""Run the fisherinfo CLI once with a span around each layer.

Usage: python tracer.py SPANS_OUT CLI_ARG...

Each public function is wrapped where its caller looks it up, so the program
itself is unchanged; a layer a future version no longer calls just records
no spans.  Spans stay in memory as [id, name, start, end, parent] and are
written to SPANS_OUT as JSON when the run ends.  The exit code is the CLI's.
"""
from __future__ import annotations

import json
import sys
import time
from functools import wraps

import fisherinfo.cli
import fisherinfo.engine
import fisherinfo.io
import fisherinfo.worldbank

# (module, attribute, span name); write_results spans add the format suffix.
LAYERS = (
    (fisherinfo.cli, "demo_matrix", "worldbank.demo_matrix"),
    (fisherinfo.cli, "read_csv", "io.read_csv"),
    (fisherinfo.io, "validate_matrix", "core.validate_matrix"),
    (fisherinfo.worldbank, "validate_matrix", "core.validate_matrix"),
    (fisherinfo.cli, "estimate_state_size", "engine.estimate_state_size"),
    (fisherinfo.cli, "sliding_fi", "engine.sliding_fi"),
    (fisherinfo.engine, "bin_window", "binning.bin_window"),
    (fisherinfo.engine, "state_probabilities", "engine.state_probabilities"),
    (fisherinfo.engine, "fisher_index", "engine.fisher_index"),
    (fisherinfo.cli, "classify_regime", "regimes.classify_regime"),
    (fisherinfo.cli, "local_maxima", "regimes.local_maxima"),
    (fisherinfo.cli, "write_results", "io.write_results"),
    (fisherinfo.cli, "emit_plot", "io.emit_plot"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int | None] = [None]

    def wrap(self, fn, name: str):
        @wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if name == "io.write_results":   # one span name per output format
                label += "." + (args[1] if len(args) > 1 else kwargs["fmt"])
            span = [len(self.spans), label, 0.0, 0.0, self._open[-1]]
            self.spans.append(span)
            self._open.append(span[0])
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()

        return traced

    def install(self) -> None:
        for module, attr, name in LAYERS:
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(fn, name))


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = tracer.wrap(fisherinfo.cli.main, "cli.main")(cli_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
