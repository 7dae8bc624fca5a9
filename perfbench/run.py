"""framesphere benchmark: end-to-end metrics per workload, per-layer from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``./src``.  NAME is one of ``exact-n4``, ``schur-n4``, ``mc-n3``, or ``all``
to run the three in turn and print a summary.  The last line of output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Load model: a closed loop with one client.  One operation runs at a time;
the next starts when it has finished and its output has been checked.  CLI
workloads start one ``framesphere`` process per operation, which is what a
command-line user pays (a fresh interpreter and a cold basis cache).
Operations run until ``--seconds`` have passed, and at least MIN_OPS times.
Operation 1 repeats operation 0 with the same inputs; the two reports must be
byte-identical.  Every other operation gets fresh inputs made from
``--seed`` and its index.

The traced run alternates traced and untraced operations, so that it can
report the tracing overhead from the same run.  Spans are recorded by
wrappers the benchmark installs from outside the program (``spans.py``) and
written to ``.perfbench/`` when the run ends.
"""

import os

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = Path(".perfbench")
ENTRY = Path(__file__).resolve().parent / "cli_entry.py"

MIN_OPS = 3
HARD_LIMIT_S = 100.0  # never start an operation that would likely end after this
OP_TIMEOUT_S = 60.0
SETUP_PROBES = 15  # spread evenly over the run, topped up at the end if it ended early

EXACT_ARGS = ["verify-frame", "--max-bidegree", "5"]
SCHUR_N, SCHUR_MAX_BIDEGREE, SCHUR_SAMPLES = 4, 3, 20000
MC_N, MC_J_MAX = 3, 4
MC_COMPONENTS = ((0, 0), (1, 1), (2, 2), (3, 1))
MC_RESIDUAL_SAMPLES = 1 << 16
MC_MOMENT_SAMPLES = 1 << 17
MC_HARMONIC_SAMPLES = 1 << 16
MC_BIDEGREES = [(p, t - p) for t in range(MC_J_MAX + 1) for p in range(t + 1)]
# sphere points drawn per operation: residual, moment, and the mean plus the
# (1,1) projection inside reconstruct_harmonic
MC_POINTS = MC_RESIDUAL_SAMPLES + MC_MOMENT_SAMPLES + 2 * MC_HARMONIC_SAMPLES

SETUP_CODE = {
    "exact-n4": "import framesphere.cli",
    "schur-n4": "import framesphere.cli",
    "mc-n3": f"import framesphere as fs\nfor j in {MC_BIDEGREES!r}:\n    fs.build_basis({MC_N}, j)",
}
WORKLOADS = tuple(SETUP_CODE)

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "calls": "count", "misses": "count", "hit_ratio": "ratio", "ambient_monomials": "count",
    "basis_dim": "count", "samples": "count", "sample_dims": "count", "point_terms": "count",
    "points": "count", "matrices": "count", "max": "ratio", "bytes": "bytes",
}


def per_layer_unit(name):
    last = name.rsplit(".", 1)[1]
    return "s" if last.endswith("_s") else PER_LAYER_UNITS[last]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def input_index(k):
    """Operation 1 repeats operation 0's inputs; later ones get fresh ones."""
    return max(k - 1, 0)


def input_rng(seed, k):
    return np.random.default_rng(np.random.SeedSequence([seed, input_index(k)]))


def op_seed(seed, k):
    return int(np.random.SeedSequence([seed, input_index(k)]).generate_state(1)[0])


def exact_operator(seed, k):
    """A Hermitian 4x4 operator with entries in multiples of 1/8 (exact in JSON)."""
    rng = input_rng(seed, k)
    a = rng.integers(-16, 17, (4, 4)) / 8 + 1j * rng.integers(-16, 17, (4, 4)) / 8
    return (a + a.conj().T) / 2


def mc_function(fs, seed, k):
    """Harmonic-model f at n=3 with random float coefficients over exact bases.

    Returns f and its L2 norm (the bases are orthonormal, so the norm is the
    coefficient vector's length).  Components outside (0,0) and (1,1) make f
    a non-frame function.
    """
    rng = input_rng(seed, k)
    components, norm_sq = {}, 0.0
    for j in MC_COMPONENTS:
        space = fs.build_basis(MC_N, j)
        coeffs = (rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)) / math.sqrt(
            2 * space.dim
        )
        poly = fs.BiDegreePolynomial(MC_N, j[0], j[1], {})
        for c, z in zip(coeffs, space.basis):
            poly = poly + z * complex(c)
        components[j] = poly
        norm_sq += float(np.sum(np.abs(coeffs) ** 2))
    return fs.FrameFunction(harmonic=components), math.sqrt(norm_sq)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, stderr_path, timeout=OP_TIMEOUT_S):
    """Run one child to completion; returns (exit code or None on timeout, wall s, start).

    The wait blocks on a pidfd, which wakes the moment the child exits.
    ``subprocess.run(timeout=...)`` would poll with sleeps of up to 50 ms and
    round every wall time up by as much.
    """
    with open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], timeout)[0]
        finally:
            os.close(pidfd)
        wall = time.monotonic() - start
        if not exited:
            proc.kill()
        code = proc.wait()
    return (code if exited else None), wall, start


def setup_probe(workload, tmp):
    """Wall time of a fresh process that does only the set-up."""
    code, wall, _ = run_child([sys.executable, "-c", SETUP_CODE[workload]], tmp / "setup.err")
    if code != 0:
        raise RuntimeError(f"set-up failed: {(tmp / 'setup.err').read_text()}")
    return wall


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


class CliWorkload:
    """One ``framesphere`` process per operation."""

    def __init__(self, name, seed, tmp):
        self.name, self.seed, self.tmp = name, seed, tmp
        self.first_report = None
        self.processes = []  # traced children's span files

    def command(self, k):
        rel = self.tmp.relative_to(ROOT)  # reports quote these paths; keep them checkout-relative
        report = str(rel / "report.out")
        if self.name == "exact-n4":
            self.operator = exact_operator(self.seed, k)
            path = rel / "operator.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"n": 4, "re": self.operator.real.tolist(), "im": self.operator.imag.tolist()}, fh)
            return EXACT_ARGS + ["--input", str(path), "--output", report]
        return ["character-check", "--n", str(SCHUR_N), "--max-bidegree", str(SCHUR_MAX_BIDEGREE),
                "--samples", str(SCHUR_SAMPLES), "--seed", str(op_seed(self.seed, k)), "--output", report]

    def run(self, k, traced):
        args = self.command(k)
        report_path = self.tmp / "report.out"
        report_path.unlink(missing_ok=True)
        if traced:
            spans_file = self.tmp / f"spans-{k}.json"
            argv = [sys.executable, str(ENTRY), str(spans_file), str(k), "--"] + args
        else:
            argv = [sys.executable, "-m", "framesphere"] + args
        code, wall, start = run_child(argv, self.tmp / "op.err")
        report = report_path.read_bytes() if report_path.exists() else b""
        if self.name == "exact-n4":
            problems = checks.check_exact_report(code, report, self.operator)
        else:
            problems = checks.check_schur_report(code, report, SCHUR_SAMPLES)
        if code is None:
            problems.append(f"killed after {OP_TIMEOUT_S:g} s")
        elif code not in (0, 1):
            problems.append("stderr: " + (self.tmp / "op.err").read_text(errors="replace")[-500:])
        problems += self.repeat_check(k, report)
        if traced and spans_file.exists():
            data = json.loads(spans_file.read_text())
            data["spawned"] = start
            self.processes.append(data)
        return {"wall": wall, "problems": problems, "bytes": len(report)}

    def repeat_check(self, k, report):
        if k == 0:
            self.first_report = report
        return checks.check_repeat(self.first_report, report) if k == 1 else []

    def layer_totals(self):
        totals = {}
        for proc in self.processes:
            totals = spans.merge(totals, spans.layer_totals(proc["spans"]))
        return totals

    def breakdown(self):
        out = {}
        for proc in self.processes:
            out = spans.merge(out, spans.descendant_busy(proc["spans"], "cli.main"))
        return out

    def extra_layer_metrics(self, ops, n_traced):
        starts = [p["imported"] - p["spawned"] for p in self.processes]
        return {
            "cli.process.start_s": sum(starts) / n_traced,
            "cli.report.bytes": statistics.mean(op["bytes"] for op in ops),
            "frame.mc_gap_budget.max": 0.0,
        }

    def dump(self):
        return {"processes": self.processes}

    def peak_rss(self, ops):
        # the largest child waited for; set-up probes only import, so an operation child is it
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class McWorkload:
    """In-process library calls on a harmonic-model f; bases built in set-up."""

    def __init__(self, seed, tracer):
        self.seed, self.tracer = seed, tracer
        self.first_report = None
        sys.path.insert(0, str(SRC))
        import framesphere

        self.fs = framesphere
        if tracer is not None:
            tracer.install()
        for j in MC_BIDEGREES:  # the set-up that SETUP_CODE["mc-n3"] times
            framesphere.build_basis(MC_N, j)
        if tracer is not None:
            tracer.uninstall()
        self.inputs = {}

    def prepare(self, k):
        """Input and exact-route reference for operation k, untimed."""
        index = input_index(k)
        if index not in self.inputs:
            fs = self.fs
            f, norm = mc_function(fs, self.seed, k)
            reference = {
                "residual_sq": float(fs.frame_residual(f, MC_J_MAX, detail=True).norm_sq),
                "moment": fs.reconstruct_moment(f).entries,
                "harmonic": fs.reconstruct_harmonic(f).entries,
            }
            self.inputs = {index: (f, norm, reference)}
        return self.inputs[index]

    def operation(self, f, seed):
        fs = self.fs
        rng = fs.RngStream(seed)
        residual = fs.frame_residual(f, MC_J_MAX, n_samples=MC_RESIDUAL_SAMPLES, rng=rng.child(0), detail=True)
        moment, moment_stderr = fs.reconstruct_moment(f, MC_MOMENT_SAMPLES, rng.child(1), return_stderr=True)
        harmonic = fs.reconstruct_harmonic(f, MC_HARMONIC_SAMPLES, rng.child(2))
        return {
            "residual_sq": float(residual.norm_sq),
            "residual_stderr": float(residual.stderr),
            "moment": moment.entries,
            "moment_stderr": moment_stderr,
            "harmonic": harmonic.entries,
            "harmonic_samples": MC_HARMONIC_SAMPLES,
        }

    def run(self, k, traced):
        f, norm, reference = self.prepare(k)
        if traced:
            self.tracer.install()
            self.tracer.op = k
        start = time.perf_counter()
        try:
            result = self.operation(f, op_seed(self.seed, k))
        except Exception as exc:  # an exception is a failed operation, not a crashed benchmark
            return {"wall": time.perf_counter() - start, "problems": [f"exception: {exc!r}"], "gap_ratio": 0.0}
        finally:
            if traced:
                self.tracer.uninstall()
        wall = time.perf_counter() - start
        gaps = checks.mc_gaps(result, reference, norm)
        problems = checks.check_mc(result, reference, norm)
        report = json.dumps(
            {key: (np.asarray(v).tolist() if isinstance(v, np.ndarray) else v) for key, v in result.items()},
            default=lambda z: [z.real, z.imag],
        ).encode()
        if k == 0:
            self.first_report = report
        if k == 1:
            problems += checks.check_repeat(self.first_report, report)
        return {"wall": wall, "problems": problems,
                "gap_ratio": max(gaps["frame_residual"], gaps["reconstruct_moment"])}

    def layer_totals(self):
        return spans.layer_totals(self.tracer.spans)

    def breakdown(self):
        return spans.descendant_busy(self.tracer.spans, "frame.")

    def extra_layer_metrics(self, ops, n_traced):
        return {
            "cli.process.start_s": 0.0,
            "cli.report.bytes": 0,
            "frame.mc_gap_budget.max": max(op["gap_ratio"] for op in ops),
        }

    def dump(self):
        return {"processes": [{"spans": self.tracer.spans}]}

    def peak_rss(self, ops):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    return out.stdout.strip() or None


def run_workload(workload, seed, seconds, trace):
    tmp = ROOT / WORK / f"{workload}-seed{seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        tracer = spans.Tracer() if trace else None
        if workload == "mc-n3":
            runner = McWorkload(seed, tracer)
        else:
            runner = CliWorkload(workload, seed, tmp)
        ops, setup_times = [], []
        begin = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - begin
            if len(ops) >= MIN_OPS and elapsed >= seconds:
                break
            if ops and elapsed + ops[-1]["wall"] > HARD_LIMIT_S:
                break
            # probes spread over the run see the same machine load as the operations
            while len(setup_times) < min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed / seconds)):
                setup_times.append(setup_probe(workload, tmp))
            k = len(ops)
            ops.append(runner.run(k, traced=bool(trace) and k % 2 == 0))
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe(workload, tmp))
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": git_commit(), "src_sha256": source_digest(), "nproc": NPROC,
            "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "operations": len(ops), "min_operations": MIN_OPS,
            "setup_probes_s": [round(t, 4) for t in setup_times],
        }
        result = summarize(runner, ops, statistics.median(setup_times), trace)
        if trace:
            WORK.mkdir(exist_ok=True)
            with open(WORK / f"spans-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
                json.dump({"record": record, **runner.dump()}, fh)
        return record, ops, result, (runner.breakdown() if trace else None)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def summarize(runner, ops, setup_s, trace):
    walls = [op["wall"] for op in ops]
    failed = sum(1 for op in ops if op["problems"])
    if not trace:
        values = {"setup_s": setup_s, "op_p50_s": statistics.median(walls),
                  "peak_rss_mb": runner.peak_rss(ops)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        n_traced = (len(ops) + 1) // 2
        # op 0 also pays first-call warm-up, so both medians leave it out when they can
        traced = [op["wall"] for k, op in enumerate(ops) if k % 2 == 0][1:] or [ops[0]["wall"]]
        untraced = [op["wall"] for k, op in enumerate(ops) if k % 2 == 1] or traced
        values = spans.per_layer_metrics(runner.layer_totals(), n_traced)
        values.update(runner.extra_layer_metrics(ops, n_traced))
        values["trace.op_p50_s"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics = {name: {"value": values[name], "unit": per_layer_unit(name)} for name in sorted(values)}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def print_human(workload, record, ops, result, breakdown):
    print("record " + json.dumps(record, sort_keys=True))
    for k, op in enumerate(ops):
        status = "ok" if not op["problems"] else "FAILED: " + "; ".join(op["problems"])
        print(f"op {k} {op['wall']:.4f} s {status}")
    print(f"{workload} fail_frac {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.4g}")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    if "op_p50_s" in result["metrics"]:
        per_op = {"schur-n4": SCHUR_SAMPLES, "mc-n3": MC_POINTS}.get(workload)
        if per_op:
            print(f"{workload} mc_samples_per_s {per_op / result['metrics']['op_p50_s']['value']:.6g} 1/s")
    for root, parts in sorted((breakdown or {}).items()):
        total = parts.pop("total_s")
        print(f"time under {root}, summed over traced operations: {total:.4f} s")
        for name, busy in sorted(parts.items(), key=lambda kv: -kv[1]):
            print(f"    {name:42s} {busy:10.4f} s {100 * busy / total:6.1f}%")


def run_all(args):
    """Run every workload in its own process, one after another."""
    summary = []
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(out.stdout)
        if out.returncode != 0:
            return out.returncode
        summary.append((workload, json.loads(out.stdout.strip().splitlines()[-1])))
    print("summary")
    for workload, result in summary:
        print(f"  {workload:9s} fail_frac {result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            print(f"  {workload:9s} {name:45s} {m['value']:12.6g} {m['unit']}")
    total = {"attempted": sum(r["attempted"] for _, r in summary), "failed": sum(r["failed"] for _, r in summary)}
    metrics = {f"{w}.{name}": m for w, r in summary for name, m in r["metrics"].items()}
    print(json.dumps({"correct": total["failed"] == 0, **total, "metrics": metrics}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "framesphere" / "__init__.py").is_file():
        print(f"error: no framesphere sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record, ops, result, breakdown = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_human(args.workload, record, ops, result, breakdown)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
