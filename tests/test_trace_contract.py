"""The benchmark's trace contract: every name it patches is still called.

perfbench/tracing.py records spans by replacing pairbag functions at the
module attributes their callers look up. A refactor that stops calling one
of those names, or calls it through another module, leaves the benchmark
silently without that layer's metrics. This test runs `generate`, `sweep`
on the generated manifest and `report` in this process with every target
patched, and demands at least one span of each name.
"""

import sys
from pathlib import Path

from pairbag.cli import main
from test_cli import TINY_INI

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_cli_run_records_every_traced_name(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_INI)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, tracing.TRACE_TARGETS):
        assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
        config.write_text(
            TINY_INI.replace("[data]\n", f"[data]\nmanifest = {data / 'manifest.csv'}\n")
        )
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert main(["report", "--results", str(out / "results.jsonl")]) == 0
    recorded = {span[0] for span in tracer.spans}
    assert {target[2] for target in tracing.TRACE_TARGETS} - recorded == set()
