"""phonesim benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/` there.
Every measured run is a fresh child interpreter (`bench/child.py`) that
times set-up and the full workload through `phonesim.cli.main`. Children
run one after another until `--seconds` have passed (at least
MIN_CHILDREN of them), and each timing is reported as the median over the
children.

With `--trace 0` the end-to-end metrics are printed. With `--trace 1` an
untraced and a traced child run in pairs and the per-layer metrics are
printed, taken from the traced children's spans, with `trace.overhead` as
traced over untraced wall time.

Every child is checked: exit codes, the episode count, the goals each
workload must hold, and a digest of the records, which must be the same in
every child of one run, traced or not. The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
when every check passed and 1 otherwise; it is 2, with no result, when
there is no phonesim source to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from tracing import layer_metrics
from workloads import WORKLOADS, Workload

MIN_CHILDREN = 3        # timed children per untraced run, whatever --seconds says
RUN_BUDGET_S = 150      # start no child past this, so a run ends within 180 s
CHILD_TIMEOUT_S = 120
OUT = Path(".bench_out")

END_TO_END = {"setup_s": "s", "wall_s": "s", "episodes_per_s": "1/s",
              "turns_per_s": "1/s", "peak_rss_mb": "MB"}
# Per-layer metrics that count work: they must repeat exactly between runs.
COUNTS = (".calls", "events.resolved", "database.max_records")


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if ".ms_" in name:
        return "ms"
    if name.endswith(COUNTS):
        return "count"
    return "ratio"


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k.lower() not in ("http_proxy", "https_proxy", "all_proxy")}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class FakeEndpoint:
    """The fake chat endpoint, in its own process for the length of a run."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, "bench/fake_llm.py", "--scripts", "src/phonesim/data/scripts"],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise RuntimeError("the fake chat endpoint did not start")
        self.port = int(line[1])
        # Ask directly, never through a proxy from the environment.
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def served(self) -> int:
        with self._opener.open(f"http://127.0.0.1:{self.port}/stats", timeout=10) as resp:
            return json.load(resp)["served"]

    def close(self) -> None:
        self.proc.stdin.close()       # the fake stops at end of input
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _records(out: Path) -> tuple[list[dict], str]:
    """All run records under `out`, and sha256 over each cell's
    records.jsonl with cells in sorted order."""
    sha, records = hashlib.sha256(), []
    for path in sorted(out.glob("*/records.jsonl")):
        data = path.read_bytes()
        sha.update(path.parent.name.encode() + b"\n" + data)
        records += [json.loads(line) for line in data.splitlines() if line.strip()]
    return records, sha.hexdigest()


class Bench:
    def __init__(self, workload: Workload, work: Path, env: dict[str, str],
                 fake: FakeEndpoint | None):
        self.workload = workload
        self.work = work
        self.env = env
        self.fake = fake
        self.count = 0
        self.errors: list[str] = []
        self.digest: str | None = None
        self.served: int | None = None

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok

    def next_dir(self) -> Path:
        self.count += 1
        d = self.work / f"child{self.count}"
        d.mkdir(parents=True)
        return d

    def child(self, d: Path, setup_argv, argvs, trace: bool = False) -> dict | None:
        """Run one child in directory `d`; return its result, or None if it
        did not finish."""
        spec = {"setup_argv": setup_argv, "argvs": argvs, "trace": trace,
                "result": str(d / "result.json"), "spans": str(d / "spans.json")}
        (d / "spec.json").write_text(json.dumps(spec), "utf-8")
        before = self.fake.served() if self.fake else 0
        with open(d / "output.txt", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run([sys.executable, "bench/child.py", str(d / "spec.json")],
                                      env=self.env, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.check(False, f"child {self.count} timed out")
                return None
        where = f"child {self.count} (see {d / 'output.txt'})"
        if not self.check(proc.returncode == 0, f"{where} exited {proc.returncode}"):
            return None
        result = json.loads((d / "result.json").read_text("utf-8"))
        if self.fake:
            result["served"] = self.fake.served() - before
        if trace:
            result["trace"] = json.loads((d / "spans.json").read_text("utf-8"))
        result["ok"] = (
            self.check(Path(result["module"]).resolve().is_relative_to(Path("src").resolve()),
                       f"{where} imported phonesim from {result['module']}, not ./src")
            & self.check(result["setup_code"] == 0,
                         f"{where}: set-up exited {result['setup_code']}")
            & self.check(all(c == 0 for c in result["codes"]),
                         f"{where}: commands exited {result['codes']}"))
        return result

    def measured(self, trace: bool = False) -> dict:
        """One child running the full workload, with its records checked."""
        w = self.workload
        d = self.next_dir()
        result = self.child(d, w.setup_argv(str(d / "setup")), w.main_argvs(str(d / "out")), trace)
        if result is None:
            result = {"ok": False}
        else:
            records, digest = _records(d / "out")
            result["episodes"] = len(records)
            result["recorded"] = sum(1 for r in records if not r.get("aborted_reason"))
            result["turns"] = sum(r["turns_used"] for r in records)
            where = f"child {self.count}"
            self.digest = self.digest or digest
            result["ok"] &= (
                self.check(len(records) == w.episodes,
                           f"{where}: {len(records)} records, expected {w.episodes}")
                & self.check(digest == self.digest, f"{where}: records differ from the first run's")
                & self.check(not w.all_success or all(r["success"] for r in records),
                             f"{where}: an episode did not succeed")
                & self.check(all(r["goals"].get(g) is True for r in records
                                 for g in w.required_goals),
                             f"{where}: a required goal {w.required_goals} failed"))
            if self.fake:
                self.served = self.served if self.served is not None else result["served"]
                result["ok"] &= self.check(
                    result["served"] == self.served and self.served > 0,
                    f"{where}: the fake served {result['served']} requests, "
                    f"in the first run {self.served}")
            shutil.rmtree(d / "setup", ignore_errors=True)
            shutil.rmtree(d / "out")
        failed = w.episodes - result["recorded"] if result["ok"] else w.episodes
        result["failed"] = max(failed, 0)
        return result


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def run(args, workload: Workload, work: Path, env, fake) -> int:
    bench = Bench(workload, work, env, fake)
    # Untimed first child: fills the bytecode cache and runs the workload's
    # own checks (for `sweep`, `phonesim validate` over the pack).
    warm = bench.child(bench.next_dir(), None, workload.check_argvs)
    bench.check(warm is not None and warm["ok"], "the warm-up and check child failed")

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(bench.measured())
        if args.trace:
            traced.append(bench.measured(trace=True))
        elapsed = time.perf_counter() - start
        done = len(untraced) >= (1 if args.trace else MIN_CHILDREN)
        if (done and elapsed >= args.seconds) or \
                elapsed * (len(untraced) + 1) / len(untraced) > RUN_BUDGET_S:
            break

    everyone = untraced + traced
    attempted = workload.episodes * len(everyone)
    failed = sum(r["failed"] for r in everyone)
    good_untraced = [r for r in untraced if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    metrics: dict[str, float] = {}
    if not args.trace and good_untraced:
        for r in good_untraced:
            r["episodes_per_s"] = r["episodes"] / r["wall_s"]
            r["turns_per_s"] = r["turns"] / r["wall_s"]
        metrics = {name: _median(good_untraced, name) for name in END_TO_END}
    elif args.trace and good_traced and good_untraced:
        layers = [layer_metrics(r["trace"], r["wall_s"]) for r in good_traced]
        for name in layers[0]:
            values = [m[name] for m in layers]
            if name.endswith(COUNTS):
                bench.check(len(set(values)) == 1, f"count {name} differs between runs: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead"] = _median(good_traced, "wall_s") / _median(good_untraced, "wall_s")
        if fake:
            bench.check(metrics.get("llm.complete.calls") == bench.served,
                        f"llm.complete.calls {metrics.get('llm.complete.calls')} != "
                        f"{bench.served} requests served by the fake")
    correct = not bench.errors

    for message in bench.errors:
        print(f"check failed: {message}")
    print(f"workload {workload.name}: {len(untraced)} untraced and {len(traced)} traced "
          f"runs of {workload.episodes} episodes each; records sha256 {bench.digest}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6f} {_unit(name)}")
        if name in END_TO_END:
            print(f"    samples: {' '.join(f'{r[name]:.4f}' for r in good_untraced)}")
    print(f"  {'failed_frac':44s} {failed / attempted:14.6f} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one phonesim benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/phonesim/cli.py").is_file():
        print("error: no src/phonesim here; run from the root of a phonesim checkout",
              file=sys.stderr)
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    workload = WORKLOADS[args.workload](inputs, args.seed)
    env = _child_env()
    fake = FakeEndpoint(env) if workload.llm_config else None
    try:
        if fake:
            workload.llm_config.write_text(
                f"base_url: http://127.0.0.1:{fake.port}/v1\nmodel: fake-apartment\n"
                "timeout: 30\nretries: 1\n", "utf-8")
        return run(args, workload, work, env, fake)
    finally:
        if fake:
            fake.close()


if __name__ == "__main__":
    sys.exit(main())
