"""Benchmark for ``collabmetrics report``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's corpora are generated from
the seed with ``simgen.simulate_to_dir`` ``SETUP_REPS`` times, each set-up
timed and followed by an equal share of the ``S``-second measuring window,
so set-up and samples see the same host. In each share a closed loop with
one client starts one process at a time and checks its bundle. After the
last set-up the corpora are checked against independent references.

With ``--trace 0`` each sample is a ``collabmetrics report`` process and
the run reports end-to-end metrics: the report's wall time and peak RSS
per process, rows per second and set-up time. With ``--trace 1`` each
sample is a pair of child processes that call ``report.run_report``
directly, one untraced and one with every layer function wrapped from
outside (see ``tracing.py``), and the run reports per-layer self times and
counts.

The host this runs on changes speed by up to half for tens of seconds at a
time, and the report's CPU time slows with its wall time, so a median of
raw wall times depends on how much of the run fell in a slow phase. Each
timing (a report sample, a set-up) is therefore bracketed by a fixed
pure-Python calibration loop and scaled by ``REFERENCE_CALIBRATION_S`` over
the loop's mean time around it: ``report_s``, ``rows_per_s`` and
``setup_s`` are wall times at the host speed where that loop takes
``REFERENCE_CALIBRATION_S``. Raw wall times are printed beside them.
The benchmark and its children are pinned to one CPU, so the loop runs
where the timed work runs; the report itself is single-threaded.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = HERE / "references.json"

SETUP_REPS = 3
MIN_SAMPLES_PER_SETUP = 2
STARTUP_REPS = 5
# The run must end within 180 s: no sample starts after SAMPLE_CUTOFF_S, and
# a child still running at CHILD_KILL_S is killed and counted as failed.
SAMPLE_CUTOFF_S = 120.0
CHILD_KILL_S = 170.0
CLOSENESS_TOL = 1e-12
# The calibration loop's time on a 2-vCPU cloud host (Python 3.11) in its
# fast phases; timings are scaled to it (see the module docstring).
REFERENCE_CALIBRATION_S = 0.014
CALIBRATION_LOOPS = 200_000

_START = time.perf_counter()


def import_program():
    """Put the checkout's ``src`` on the path; exit if there is none."""
    if not (SRC / "collabmetrics" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/collabmetrics not found; run from the root of a collabmetrics checkout")
    sys.path.insert(0, str(SRC))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], log_path: Path, timeout_s: float | None = None) -> tuple[int, float, int]:
    """Run one child to completion; return (exit code, wall seconds, peak RSS in KiB).

    The child runs under ``spawn.py``, which measures it and reads its own
    ``ru_maxrss`` from ``wait4``; it is killed after ``timeout_s`` (default:
    what is left of this run's time limit).
    """
    timeout_s = timeout_s or max(1.0, CHILD_KILL_S - (time.perf_counter() - _START))
    done = subprocess.run(
        [sys.executable, str(HERE / "spawn.py"), str(log_path), str(timeout_s), *cmd],
        env=_child_env(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=timeout_s + 10,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    return result["code"], result["wall_s"], result["maxrss_kib"]


def _normalized_manifest(path: Path) -> bytes:
    """The manifest with its path fields replaced by placeholders."""
    raw = path.read_bytes()
    try:
        manifest = json.loads(raw)
        config = manifest["config"]
        config["out_dir"] = "<out>"
        config["community_dirs"] = [f"<corpus{i}>" for i in range(len(config["community_dirs"]))]
    except (ValueError, KeyError, TypeError):
        return raw
    return json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False).encode()


def tree_digest(directory: Path, normalize_manifest: bool = False) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        rel = path.relative_to(directory).as_posix()
        data = _normalized_manifest(path) if normalize_manifest and rel == "manifest.json" else path.read_bytes()
        h.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _log_tail(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")[-2000:]


class Corpora:
    """The workload's corpora, written anew by every timed set-up."""

    def __init__(self, workload, seed: int, work: Path, trace: bool):
        self.workload = workload
        self.specs = workload.specs(seed)
        self.work = work
        self.trace = trace
        self.dirs: list[Path] = []
        self.setup_s: list[float] = []  # scaled to the reference host speed
        self.setup_raw_s: list[float] = []
        self.layer_s: dict[str, list[float]] = {}  # traced set-up spans, one value per set-up
        self.missing: set[str] = set()
        self.digests: list[str] = []
        self.generated: list = []  # (Corpus, PlantedTruth) per community

    def build(self, keep_generated: bool) -> None:
        """One timed set-up; its corpora replace the previous set-up's.

        With ``keep_generated`` the generated records are kept for the
        reference checks. Only the last set-up keeps them, so earlier
        set-ups do not run with them on the heap.
        """
        from collabmetrics import simgen

        import tracing

        rep_dir = self.work / f"corpus{len(self.setup_s)}"
        dirs = [rep_dir / spec.community for spec in self.specs]
        real_generate = simgen.generate

        def capture(spec):
            result = real_generate(spec)
            self.generated.append(result)
            return result

        tracer = tracing.Tracer()
        if keep_generated:
            simgen.generate = capture
        if self.trace:
            tracer.install(tracing.SETUP_LAYERS)
        gc.collect()
        try:
            with HostSpeed() as host:
                start = time.perf_counter()
                for spec, directory in zip(self.specs, dirs):
                    simgen.simulate_to_dir(spec, directory, fmt=self.workload.corpus_format)
                wall = time.perf_counter() - start
            self.setup_raw_s.append(wall)
            self.setup_s.append(wall * host.scale)
        finally:
            tracer.uninstall()
            simgen.generate = real_generate
        if self.trace:
            for name, value in tracing.self_times(tracer.spans).items():
                self.layer_s.setdefault(name, []).append(value)
            self.missing.update(tracer.missing())
        if keep_generated and len(self.generated) != len(self.specs):
            # The set-up path no longer goes through generate().
            self.generated = [real_generate(spec) for spec in self.specs]
        self.digests.append(tree_digest(rep_dir))
        if self.dirs:
            shutil.rmtree(self.dirs[0].parent)
        self.dirs = dirs

    def input_size(self) -> tuple[int, int]:
        """Input rows (registry + videos + comments) and corpus bytes, truth files excluded."""
        rows = sum(len(c.registry) + len(c.videos) + len(c.comments) for c, _ in self.generated)
        size = sum(_dir_bytes(d) - (d / "truth.json").stat().st_size for d in self.dirs)
        return rows, size


def oracle_checks(workload, generated) -> dict[str, str]:
    """``simgen.oracle_check`` on every community (naive re-implementations)."""
    from collabmetrics import simgen

    results = {}
    for corpus, truth in generated:
        report = simgen.oracle_check(corpus, truth, attribute_key=workload.attribute_key)
        detail = f"{report.checks} checks, {len(report.mismatches)} mismatches"
        results[f"oracle[{corpus.community}]"] = ("pass" if report.ok else "fail") + f" ({detail})"
    return results


def closeness_check(workload, generated, bundle: Path) -> dict[str, str]:
    """report.json closeness per attribute against networkx on the planted dyads."""
    try:
        import networkx as nx
    except ImportError:
        return {"networkx-closeness": "unavailable (networkx not installed)"}
    if not (bundle / "report.json").is_file():
        return {"networkx-closeness": "fail (no report.json in the bundle)"}
    payload = json.loads((bundle / "report.json").read_text(encoding="utf-8"))
    results = {}
    for corpus, truth in generated:
        graph = nx.Graph()
        graph.add_nodes_from(ch.channel_id for ch in corpus.registry)
        graph.add_edges_from(truth.multipliers_by_dyad)
        values = nx.closeness_centrality(graph, wf_improved=True)
        expected: dict[str, list[float]] = {}
        for ch in corpus.registry:
            expected.setdefault(ch.attributes[workload.attribute_key], []).append(values[ch.channel_id])
        got = payload["communities"][corpus.community]["centrality"]
        ok = set(got) == set(expected)
        max_diff = 0.0
        for attr, vals in expected.items():
            mine = got.get(attr, {}).get("values", [])
            ok = ok and len(mine) == len(vals)
            max_diff = max([max_diff, *(abs(a - b) for a, b in zip(sorted(vals), mine))])
        ok = ok and max_diff <= CLOSENESS_TOL
        detail = f"{graph.number_of_nodes()} nodes, {graph.number_of_edges()} edges, max diff {max_diff:.3g}"
        results[f"networkx-closeness[{corpus.community}]"] = ("pass" if ok else "fail") + f" ({detail})"
    return results


def _calibration_s(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop; tracks host speed."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Brackets a timing with calibration loops and gives its host-speed scale.

    ``scale`` is ``REFERENCE_CALIBRATION_S`` over the mean of the loop's
    time just before and just after the timed work.
    """

    def __enter__(self) -> HostSpeed:
        self.before = _calibration_s(reps=3)
        return self

    def __exit__(self, *exc) -> None:
        self.after = _calibration_s(reps=3)
        self.scale = REFERENCE_CALIBRATION_S / ((self.before + self.after) / 2)


def host_record() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_s": round(_calibration_s(), 6),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _reference_digest(workload_name: str, seed: int) -> str | None:
    if not REFERENCES.is_file():
        return None
    seeds = json.loads(REFERENCES.read_text(encoding="utf-8")).get(workload_name, {}).get("seeds", {})
    return seeds.get(str(seed), {}).get("bundle_sha256")


class BundleCheck:
    """Every sample's bundle must match the first one and the recorded reference."""

    def __init__(self, reference: str | None):
        self.reference = reference
        self.first: str | None = None

    def ok(self, bundle: Path) -> bool:
        digest = tree_digest(bundle, normalize_manifest=True)
        if self.first is None:
            self.first = digest
        return digest == self.first and (self.reference is None or digest == self.reference)

    def summary(self) -> str:
        if self.reference is None:
            return "not recorded for this seed; samples compared with each other only"
        return "pass" if self.first == self.reference else f"fail (got {self.first})"


def cli_report_cmd(workload, corpus_dirs: list[Path], out: Path) -> list[str]:
    cmd = [sys.executable, "-m", "collabmetrics.cli", "report", "--out", str(out)]
    for directory in corpus_dirs:
        cmd += ["--corpus", str(directory)]
    cmd += ["--attribute-key", workload.attribute_key]
    for fmt in workload.report_formats:
        cmd += ["--format", fmt]
    return cmd


class ReportSamples:
    """End-to-end samples: one ``collabmetrics report`` process each."""

    def __init__(self, workload, work: Path, bundles: BundleCheck):
        self.workload, self.work, self.bundles = workload, work, bundles
        self.samples: list[tuple[bool, float, float, int]] = []  # (ok, wall_s, scale, maxrss_kib)

    def take(self, corpus_dirs: list[Path]) -> None:
        out = self.work / ("out0" if not self.samples else "out")  # the first bundle is kept
        log = self.work / "child.log"
        with HostSpeed() as host:
            code, wall, rss = run_child(cli_report_cmd(self.workload, corpus_dirs, out), log)
        ok = code == 0 and self.bundles.ok(out)
        if not ok:
            print(f"sample {len(self.samples)} failed (exit {code}):\n{_log_tail(log)}")
        self.samples.append((ok, wall, host.scale, rss))
        if out.name != "out0":
            shutil.rmtree(out, ignore_errors=True)

    def attempted(self) -> int:
        return len(self.samples)

    def failed(self) -> int:
        return sum(not ok for ok, *_ in self.samples)


class TracedSamples:
    """Per-layer samples: an untraced and a traced ``run_report`` child, in alternating order."""

    def __init__(self, workload, work: Path, bundles: BundleCheck):
        self.workload, self.work, self.bundles = workload, work, bundles
        self.results: dict[int, list[dict]] = {0: [], 1: []}
        self.overhead_s: list[float] = []  # traced minus untraced run_report time, per pair
        self.pairs = 0
        self.startup_s: list[float] = []
        self.failures = 0

    def take(self, corpus_dirs: list[Path]) -> None:
        run_report_s = {}
        for trace in (0, 1) if self.pairs % 2 == 0 else (1, 0):
            out = self.work / ("out0" if self.pairs == 0 and trace == 0 else "out")
            config_path, result_path = self.work / "child.config.json", self.work / "child.result.json"
            config = {
                "community_dirs": [str(d) for d in corpus_dirs],
                "out_dir": str(out),
                "attribute_key": self.workload.attribute_key,
                "formats": list(self.workload.report_formats),
                "trace": trace,
                "result": str(result_path),
            }
            config_path.write_text(json.dumps(config), encoding="utf-8")
            log = self.work / "child.log"
            code, _, _ = run_child([sys.executable, str(HERE / "tracing.py"), str(config_path)], log)
            if code == 0 and self.bundles.ok(out):
                result = json.loads(result_path.read_text(encoding="utf-8"))
                result["bundle_bytes"] = _dir_bytes(out)
                self.results[trace].append(result)
                run_report_s[trace] = result["run_report_s"]
            else:
                self.failures += 1
                print(f"traced child (trace={trace}) failed (exit {code}):\n{_log_tail(log)}")
            if out.name != "out0":
                shutil.rmtree(out, ignore_errors=True)
        if len(run_report_s) == 2:
            self.overhead_s.append(run_report_s[1] - run_report_s[0])
        self.pairs += 1

    def measure_startup(self) -> None:
        """Wall time of a fresh ``collabmetrics --version``: interpreter, imports and click."""
        for _ in range(STARTUP_REPS):
            cmd = [sys.executable, "-m", "collabmetrics.cli", "--version"]
            code, wall, _ = run_child(cmd, self.work / "child.log")
            self.startup_s.append(wall)
            self.failures += code != 0

    def attempted(self) -> int:
        return 2 * self.pairs + STARTUP_REPS

    def failed(self) -> int:
        return self.failures


def measure(corpora: Corpora, sampler, seconds: float) -> None:
    """Alternate set-ups and sampling: each set-up is followed by its share of the window."""
    for rep in range(SETUP_REPS):
        corpora.build(keep_generated=rep == SETUP_REPS - 1)
        start = time.perf_counter()
        count = 0
        while count < MIN_SAMPLES_PER_SETUP or time.perf_counter() - start < seconds / SETUP_REPS:
            if count and time.perf_counter() - _START > SAMPLE_CUTOFF_S:
                break
            sampler.take(corpora.dirs)
            count += 1


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, per the sample count."""
    n = len(values)
    q = int(100 * (1 - 10 / n))
    if q <= 50:
        return f"n={n}: no percentile above the median has 10 samples beyond it (max {max(values):.4f})"
    return f"p{q} {statistics.quantiles(values, n=100, method='inclusive')[q - 1]:.4f} (n={n})"


def e2e_metrics(corpora: Corpora, sampler: ReportSamples, rows: int) -> dict:
    good = [s for s in sampler.samples if s[0]] or sampler.samples
    times = [wall * scale for _, wall, scale, _ in good]
    raw = [wall for _, wall, _, _ in good]
    report_s = statistics.median(times)
    metrics = {
        "report_s": _metric(report_s, "s"),
        "rows_per_s": _metric(rows / report_s, "rows/s"),
        "peak_rss_mb": _metric(statistics.median(rss * 1024 / 1e6 for *_, rss in good), "MB"),
        "setup_s": _metric(statistics.median(corpora.setup_s), "s"),
    }
    scales = [scale for _, _, scale, _ in good]
    print(f"report_s: median {report_s:.4f} s; {percentile_note(times)}; scaled to the reference host speed")
    print(f"report_s raw wall: median {statistics.median(raw):.4f} s; {percentile_note(raw)}")
    print(f"host speed scale per sample: {min(scales):.3f} to {max(scales):.3f}, median {statistics.median(scales):.3f}")
    print("samples (raw wall s x scale): " + ", ".join(f"{w:.3f}x{k:.3f}" for _, w, k, _ in sampler.samples))
    print(f"rows_per_s: {rows / report_s:.1f} rows/s over {rows} input rows")
    print(f"peak_rss_mb: median {metrics['peak_rss_mb']['value']:.1f} MB over {len(good)} samples")
    print(f"setup_s: median over {len(corpora.setup_s)} set-ups: " + ", ".join(f"{t:.4f}" for t in corpora.setup_s)
          + "; raw wall: " + ", ".join(f"{t:.4f}" for t in corpora.setup_raw_s))
    failed, attempted = sampler.failed(), sampler.attempted()
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    return metrics


def layer_metrics(corpora: Corpora, sampler: TracedSamples) -> dict:
    import tracing

    traced, untraced = sampler.results[1], sampler.results[0]
    if not sampler.overhead_s:
        return {}
    per_run = [tracing.self_times(r["spans"]) for r in traced]
    metrics = {}
    for name in (f"{m}.{f}" for m, fs in tracing.REPORT_LAYERS.items() for f in fs):
        key = "report.self_s" if name == "report.run_report" else f"{name}_s"
        metrics[key] = _metric(statistics.median(t.get(name, 0.0) for t in per_run), "s")
    counts = traced[0]["counts"]
    for name in (
        "corpus.rows_read", "corpus.rows_accepted", "collab.videos_scanned", "collab.dyads",
        "collab.multi_way_videos", "synergy.dyads_scored", "synergy.dyads_skipped",
        "netmetrics.nodes", "netmetrics.edges", "netmetrics.commenters",
        "discourse.comments_scored", "discourse.groups",
    ):
        metrics[name] = _metric(counts.get(name, 0), "count")
    rows_read = counts.get("corpus.rows_read", 0)
    accept_ratio = counts.get("corpus.rows_accepted", 0) / rows_read if rows_read else 0.0
    metrics["corpus.accept_ratio"] = _metric(accept_ratio, "ratio")
    metrics["corpus.input_mb"] = _metric(counts.get("corpus.input_bytes", 0) / 1e6, "MB")
    metrics["report.bundle_bytes"] = _metric(traced[0]["bundle_bytes"], "bytes")
    metrics["cli.startup_s"] = _metric(statistics.median(sampler.startup_s), "s")
    for name in ("simgen.generate", "corpus.write_corpus"):
        metrics[f"{name}_s"] = _metric(statistics.median(corpora.layer_s.get(name, [0.0])), "s")
    missing = sorted({m for r in traced for m in r["missing"]} | corpora.missing)
    metrics["trace.overhead_s"] = _metric(statistics.median(sampler.overhead_s), "s")
    metrics["trace.missing_spans"] = _metric(len(missing), "count")
    print(f"trace: {len(traced)} traced / {len(untraced)} untraced children; missing spans: {missing or 'none'}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is using it
            pass


def pin_to_one_cpu() -> None:
    """Run this process and the children it starts on its lowest allowed CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _run(workload, args, work: Path) -> int:
    pin_to_one_cpu()
    host_before = host_record()
    corpora = Corpora(workload, args.seed, work, trace=bool(args.trace))
    bundles = BundleCheck(_reference_digest(workload.name, args.seed))
    sampler = (TracedSamples if args.trace else ReportSamples)(workload, work, bundles)
    measure(corpora, sampler, args.seconds)
    if args.trace:
        sampler.measure_startup()
    host_after = host_record()

    checks = {"setup-deterministic": "pass" if len(set(corpora.digests)) == 1 else "fail (set-ups differ)"}
    if workload.reference == "oracle":
        checks.update(oracle_checks(workload, corpora.generated))
    elif workload.reference == "networkx-closeness":
        checks.update(closeness_check(workload, corpora.generated, work / "out0"))
    checks["bundle-reference"] = bundles.summary()
    rows, input_bytes = corpora.input_size()

    print(f"workload: {workload.name} (seed {args.seed}): {workload.why}")
    provenance = {
        "specs": [dataclasses.asdict(s) for s in corpora.specs],
        "input_rows": rows,
        "input_bytes": input_bytes,
        "bundle_sha256": bundles.first,
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("host: " + json.dumps({"before": host_before, "after": host_after}, sort_keys=True))
    for name, result in checks.items():
        print(f"check {name}: {result}")
    if args.trace:
        metrics = layer_metrics(corpora, sampler)
    else:
        metrics = e2e_metrics(corpora, sampler, rows)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    failed = sampler.failed()
    correct = failed == 0 and not any(r.startswith("fail") for r in checks.values())
    print(json.dumps({"correct": correct, "attempted": sampler.attempted(), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
