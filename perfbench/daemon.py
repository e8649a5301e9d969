"""Program process of the serve workloads: ``repro serve --demo``.

Started by ``serve.py``; not meant to be run by hand.  It runs the
daemon exactly as ``repro serve --demo --port 0`` does (the port is
printed on the ``listening on`` line).  With ``--spans PATH`` the
daemon's layer entry points are wrapped first (see ``spans.py``) and the
recorded spans are written to PATH once a ``shutdown`` op stops it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import add_program_path  # noqa: E402

add_program_path()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans")
    args = parser.parse_args()
    recorder = None
    if args.spans:
        from spans import SERVE_TARGETS, SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder, SERVE_TARGETS)
    from repro.cli import main as repro_main

    code = repro_main(["serve", "--demo", "--port", "0"])
    if recorder is not None:
        recorder.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
