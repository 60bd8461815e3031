"""Check the result line that ends a `bench/run.py` run.

    python3 .github/check_bench_result.py OUTPUT end_to_end|per_layer

OUTPUT holds the run's standard output. Its last line must be one JSON
object that parses with NaN and Infinity refused, holds "correct" (true),
"attempted", "failed" and "metrics", and reports a number for every metric
that BENCHMARK.json lists under the given key: `end_to_end` for an untraced
run, `per_layer` for a traced one. Exits 1 with one line saying what is
wrong, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _refuse(constant: str):
    raise ValueError(f"{constant} is not a number")


def _number(entry) -> bool:
    """A metric entry `{"value": <int or float>, ...}`."""
    return isinstance(entry, dict) and type(entry.get("value")) in (int, float)


def problem(output: Path, kind: str) -> str | None:
    lines = output.read_text("utf-8").splitlines()
    if not lines:
        return "the run printed nothing"
    try:
        result = json.loads(lines[-1], parse_constant=_refuse)
    except ValueError as exc:
        return f"the last line is not a JSON result: {exc}"
    if not isinstance(result, dict):
        return "the last line is not a JSON object"
    absent = [key for key in ("correct", "attempted", "failed", "metrics") if key not in result]
    if absent:
        return f"the result lacks {absent}"
    if result["correct"] is not True:
        return f"the result is not correct: {result['correct']!r}"
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return "the result's metrics are not an object"
    declared = [m["name"] for m in json.loads(BENCHMARK.read_text("utf-8"))[kind]]
    missing = [name for name in declared if not _number(metrics.get(name))]
    if missing:
        return f"the result reports no number for {len(missing)} {kind} metrics: {missing}"
    return None


def main() -> int:
    output, kind = sys.argv[1:]
    if kind not in ("end_to_end", "per_layer"):
        print(f"unknown metric kind {kind!r}; expected end_to_end or per_layer")
        return 2
    found = problem(Path(output), kind)
    if found:
        print(f"{output}: {found}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
