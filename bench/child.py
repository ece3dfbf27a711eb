"""One fresh interpreter per operation, as a CLI user runs it.

    python3 bench/child.py setup CONFIG...            import nonholo.cli, parse each config
    python3 bench/child.py run [--trace FILE] ARGS...  run the nonholo CLI with ARGS

With ``--trace FILE`` the tracer is installed before ``nonholo.cli.main``
runs and its spans are written to FILE when the command returns.
"""
from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        from nonholo.cli import parse_config

        for path in rest:
            with open(path, encoding="utf-8") as fh:
                parse_config(fh.read())
        return 0
    if mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")
    trace_path = None
    if rest[:1] == ["--trace"]:
        trace_path, rest = rest[1], rest[2:]
    import nonholo.cli

    if trace_path is None:
        return nonholo.cli.main(rest)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return nonholo.cli.main(rest)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
