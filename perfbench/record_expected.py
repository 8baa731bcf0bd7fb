"""Record `expected_suite.json`: for every model of the random pool, the
digest of its `.vass` text, the digest of its default `analyze` text report
and its cost, the number of `lp_feasible` calls the analysis makes (the
seeded suite selection stratifies by it).

    python3 perfbench/record_expected.py

Run once, at the commit whose reports are the reference; the benchmark
then fails any `analyze-suite` job whose report is not byte-identical.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import inputs
import run
import spans


def main() -> int:
    root = run.HERE.parent
    cli = run.import_program(root)
    models = []
    with tempfile.TemporaryDirectory() as tmp:
        for model in inputs.random_pool():
            path = Path(tmp) / f"{model.name}.vass"
            path.write_text(model.text(), encoding="utf-8")
            out = io.StringIO()
            tracer = spans.Tracer()
            tracer.install()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(["analyze", str(path)])
            finally:
                tracer.uninstall()
            if code != 0:
                print(f"{model.name}: exit code {code}", file=sys.stderr)
                return 1
            cost = sum(span.name == "exactlp.lp_feasible" for span in tracer.spans)
            models.append([model.digest(), inputs.short_digest(out.getvalue()), cost])
    rows = ",\n".join(json.dumps(m) for m in models)
    inputs.EXPECTED_SUITE.write_text(
        f'{{"pool_seed": {inputs.POOL_SEED},\n"models": [\n{rows}\n]}}\n', encoding="utf-8")
    print(f"recorded {len(models)} reports in {inputs.EXPECTED_SUITE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
