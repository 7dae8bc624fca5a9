"""Check the benchmark's checks: wrong answers must count as failures.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Feeds each output check a correct
answer and a wrong one (a report for a perturbed operator, Monte Carlo
estimates shifted by 10 standard errors, character means off delta(j, k)
with exit 1, an inflated stderr, an exit code that disagrees with the
report, a changed repeat) and shows that a failed check raises the
run's ``failed`` count.  Also checks that BENCHMARK.json names exactly the
metrics the benchmark prints.  Runs character-check in process twice, as
is and with one bidegree's characters scaled by 1.1 (~0.5 GB peak).  Exits 1 if any expectation fails.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run

sys.path.insert(0, str(run.SRC))
import framesphere.cli  # noqa: E402

FAILURES = []


def expect(condition, what):
    print(("PASS " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def exact_cases(tmp):
    operator = run.exact_operator(0, 0)[:3, :3]
    path, out = tmp / "operator.json", tmp / "report.json"
    path.write_text(json.dumps({"n": 3, "re": operator.real.tolist(), "im": operator.imag.tolist()}))
    code = framesphere.cli.main(["verify-frame", "--input", str(path), "--output", str(out)])
    report = out.read_bytes()
    expect(checks.check_exact_report(code, report, operator) == [], "exact: true report passes")

    data = json.loads(report)
    data["reconstruction"]["operator"]["re"][0][1] += 1e-6
    perturbed = json.dumps(data).encode()
    expect(checks.check_exact_report(code, perturbed, operator) != [], "exact: perturbed operator fails")
    data = json.loads(report)
    data["verdict"] = False
    expect(checks.check_exact_report(code, json.dumps(data).encode(), operator) != [],
           "exact: verdict false fails")
    expect(checks.check_exact_report(1, report, operator) != [], "exact: exit code 1 fails")
    expect(checks.check_exact_report(0, b"", operator) != [], "exact: missing report fails")


def mc_cases():
    fs = framesphere
    f, norm = run.mc_function(fs, 0, 0)
    rng = fs.RngStream(0)
    residual = fs.frame_residual(f, run.MC_J_MAX, n_samples=4096, rng=rng.child(0), detail=True)
    moment, moment_stderr = fs.reconstruct_moment(f, 4096, rng.child(1), return_stderr=True)
    result = {
        "residual_sq": float(residual.norm_sq), "residual_stderr": float(residual.stderr),
        "moment": moment.entries, "moment_stderr": moment_stderr,
        "harmonic": fs.reconstruct_harmonic(f, 4096, rng.child(2)).entries, "harmonic_samples": 4096,
    }
    reference = {
        "residual_sq": float(fs.frame_residual(f, run.MC_J_MAX, detail=True).norm_sq),
        "moment": fs.reconstruct_moment(f).entries,
        "harmonic": fs.reconstruct_harmonic(f).entries,
    }
    expect(checks.check_mc(result, reference, norm) == [], "mc: unshifted estimates pass")

    shifted = dict(result, residual_sq=result["residual_sq"] + 10 * result["residual_stderr"])
    expect(checks.check_mc(shifted, reference, norm) != [], "mc: residual shifted by 10 stderr fails")
    direction = np.ones((run.MC_N, run.MC_N)) / run.MC_N  # unit Frobenius norm
    shifted = dict(result, moment=reference["moment"] + 10 * moment_stderr * direction)
    expect(checks.check_mc(shifted, reference, norm) != [], "mc: operator shifted by 10 stderr fails")
    bound = checks.HARMONIC_BOUND * norm / np.sqrt(result["harmonic_samples"])
    shifted = dict(result, harmonic=reference["harmonic"] + 1.01 * bound)
    expect(checks.check_mc(shifted, reference, norm) != [], "mc: harmonic route past its bound fails")


def schur_report(shift=(), stderr_scale=0.5, expected=None, flag=None, code=None):
    """A character-check report at SCHUR_SAMPLES samples; each mean sits on delta(j, k)
    except the rows in ``shift``, moved by that many stderr.  ``expected``/``flag``
    override one row's column; ``code`` the exit code the report implies."""
    header = "p1,q1,p2,q2,mean_re,mean_im,stderr,expected,within_4_stderr\n"
    lines, all_ok = [header], True
    for key, cap in checks.SCHUR_STD_CAPS.items():
        delta = 1.0 if key[:2] == key[2:] else 0.0
        stderr = float(stderr_scale * cap / np.sqrt(run.SCHUR_SAMPLES))
        mean = delta + dict(shift).get(key, 0.0) * stderr
        ok = abs(mean - delta) <= 4 * stderr if stderr > 0 else mean == delta
        row_expected = expected[1] if expected and expected[0] == key else delta
        row_flag = flag[1] if flag and flag[0] == key else ok
        all_ok = all_ok and row_flag
        lines.append(f"{key[0]},{key[1]},{key[2]},{key[3]},{mean!r},0.0,{stderr!r},{row_expected!r},{row_flag}\n")
    implied = 0 if all_ok else 1
    return (implied if code is None else code), "".join(lines).encode()


def schur_cases():
    n = run.SCHUR_SAMPLES
    diag, other = (1, 1, 1, 1), (1, 2, 1, 2)
    expect(checks.check_schur_report(*schur_report(), n) == [], "schur: every row on delta passes")
    expect(checks.check_schur_report(*schur_report(shift=[(diag, 5.0)]), n) == [],
           "schur: exit 1 with one row at 5 stderr (a chance outlier) passes")
    expect(checks.check_schur_report(*schur_report(shift=[(diag, 10.0), (other, 10.0)]), n) != [],
           "schur: exit 1 with two means shifted by 10 stderr fails")
    expect(checks.check_schur_report(*schur_report(shift=[(diag, 10.0)]), n) != [],
           "schur: exit 1 with one mean shifted by 10 stderr fails")
    expect(checks.check_schur_report(*schur_report(shift=[(diag, 3.0)], stderr_scale=3.0), n) != [],
           "schur: a wrong mean hidden by an inflated stderr fails")
    expect(checks.check_schur_report(*schur_report(expected=((0, 1, 1, 0), 1.0)), n) != [],
           "schur: a wrong expected column fails")
    expect(checks.check_schur_report(*schur_report(shift=[(diag, 10.0)], flag=(diag, True)), n) != [],
           "schur: within_4_stderr True on a row 10 stderr off fails")
    code, report = schur_report(shift=[(diag, 5.0)])
    expect(checks.check_schur_report(0, report, n) != [], "schur: exit 0 with a row beyond 4 stderr fails")
    code, report = schur_report()
    expect(checks.check_schur_report(1, report, n) != [], "schur: exit 1 with every row within fails")
    short = b"".join(report.splitlines(keepends=True)[:-1])
    expect(checks.check_schur_report(0, short, n) != [], "schur: a missing row fails")


def schur_program_cases(tmp):
    """The real character-check passes; with one bidegree's characters off by 10% it fails."""
    out = tmp / "characters.csv"
    argv = ["character-check", "--n", str(run.SCHUR_N), "--max-bidegree", str(run.SCHUR_MAX_BIDEGREE),
            "--samples", str(run.SCHUR_SAMPLES), "--seed", "5", "--output", str(out)]
    code = framesphere.cli.main(argv)
    expect(checks.check_schur_report(code, out.read_bytes(), run.SCHUR_SAMPLES) == [],
           "schur: the program's own report passes")
    true_batch = framesphere.cli.character_batch

    def off_batch(space, gs):
        chars = true_batch(space, gs)
        return chars * 1.1 if tuple(space.j) == (1, 1) else chars

    framesphere.cli.character_batch = off_batch
    try:
        code = framesphere.cli.main(argv)
    finally:
        framesphere.cli.character_batch = true_batch
    expect(checks.check_schur_report(code, out.read_bytes(), run.SCHUR_SAMPLES) != [],
           "schur: characters of one bidegree scaled by 1.1 fail")


class _Runner:
    def peak_rss(self, ops):
        return 1.0

    def layer_totals(self):
        return {}

    def extra_layer_metrics(self, ops, n_traced):
        return {"cli.process.start_s": 0.0, "cli.report.bytes": 0, "frame.mc_gap_budget.max": 0.0}


def counting_cases():
    expect(checks.check_repeat(b"a", b"b") != [], "repeat: differing reports fail")
    ops = [{"wall": 1.0, "problems": [], "bytes": 1},
           {"wall": 1.0, "problems": ["wrong"], "bytes": 1},
           {"wall": 1.0, "problems": [], "bytes": 1}]
    result = run.summarize(_Runner(), ops, 0.1, trace=0)
    expect(result["failed"] == 1 and result["attempted"] == 3 and result["correct"] is False,
           "a failed check counts toward fail_frac")


def benchmark_json_cases():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ops = [{"wall": 1.0, "problems": [], "bytes": 1}] * 3
    e2e = run.summarize(_Runner(), ops, 0.1, trace=0)["metrics"]
    layer = run.summarize(_Runner(), ops, 0.1, trace=1)["metrics"]
    expect({(m["name"], m["unit"]) for m in spec["end_to_end"]}
           == {(name, m["unit"]) for name, m in e2e.items()}, "BENCHMARK.json end_to_end matches run.py")
    expect({(m["name"], m["unit"]) for m in spec["per_layer"]}
           == {(name, m["unit"]) for name, m in layer.items()}, "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json workloads match")


def main():
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        exact_cases(Path(tmp))
        schur_program_cases(Path(tmp))
    mc_cases()
    schur_cases()
    counting_cases()
    benchmark_json_cases()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
