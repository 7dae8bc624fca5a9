"""Output checks for each workload's operations.

Each check returns a list of problems; an empty list means the operation's
output is correct.  They take plain data (exit codes, report bytes, numbers)
so that ``selftest.py`` can feed them wrong answers.
"""

import csv
import io
import json
import math

import numpy as np

OPERATOR_TOL = 1e-8  # exact-n4: reconstructed operator vs the generated input, max abs entry
STDERR_BUDGET = 4.0  # mc-n3, schur-n4: an estimate may miss its reference by this many stderr
# mc-n3: reconstruct_harmonic reports no stderr.  Its largest entry error,
# in units of ||f||_2 / sqrt(samples), had median 5.5 and maximum 9.1 over
# seeds 0..59; the bound leaves a factor of two over that maximum.
HARMONIC_BOUND = 20.0

# schur-n4: a correct run has each row within 4 stderr of delta(j, k), except
# by chance.  Rows share their samples, and at 4 stderr a second outlier among
# 55 is rare enough to call a failure; so is any row past SCHUR_Z_MAX.
SCHUR_OUTLIERS = 1
SCHUR_Z_MAX = 6.0
FLOAT_TOL = 1e-12  # room for rounding in rows that are exact (the trivial character)
# Cap on each row's sample standard deviation, stderr * sqrt(samples), keyed by
# (p1, q1, p2, q2) in the report's row order for n=4, p+q <= 3.  Each cap is
# twice the largest value seen over 30 runs of 20000 samples (the largest
# spread seen for one row was a factor 1.64 from min to max).
SCHUR_STD_CAPS = {
    (0, 0, 0, 0): 0.0, (0, 0, 0, 1): 2.1, (0, 0, 1, 0): 2.1, (0, 0, 0, 2): 2.1, (0, 0, 1, 1): 2.1,
    (0, 0, 2, 0): 2.1, (0, 0, 0, 3): 2.1, (0, 0, 1, 2): 2.1, (0, 0, 2, 1): 2.1, (0, 0, 3, 0): 2.1,
    (0, 1, 0, 1): 2.1, (0, 1, 1, 0): 2.9, (0, 1, 0, 2): 3.0, (0, 1, 1, 1): 3.7, (0, 1, 2, 0): 3.0,
    (0, 1, 0, 3): 3.0, (0, 1, 1, 2): 3.8, (0, 1, 2, 1): 3.8, (0, 1, 3, 0): 3.0, (1, 0, 1, 0): 2.1,
    (1, 0, 0, 2): 3.0, (1, 0, 1, 1): 3.7, (1, 0, 2, 0): 3.0, (1, 0, 0, 3): 3.0, (1, 0, 1, 2): 3.8,
    (1, 0, 2, 1): 3.8, (1, 0, 3, 0): 3.0, (0, 2, 0, 2): 3.1, (0, 2, 1, 1): 4.4, (0, 2, 2, 0): 3.7,
    (0, 2, 0, 3): 3.8, (0, 2, 1, 2): 5.2, (0, 2, 2, 1): 5.2, (0, 2, 3, 0): 3.8, (1, 1, 1, 1): 6.4,
    (1, 1, 2, 0): 4.4, (1, 1, 0, 3): 4.6, (1, 1, 1, 2): 7.5, (1, 1, 2, 1): 7.5, (1, 1, 3, 0): 4.6,
    (2, 0, 2, 0): 3.1, (2, 0, 0, 3): 3.8, (2, 0, 1, 2): 5.2, (2, 0, 2, 1): 5.2, (2, 0, 3, 0): 3.8,
    (0, 3, 0, 3): 4.0, (0, 3, 1, 2): 6.0, (0, 3, 2, 1): 6.0, (0, 3, 3, 0): 4.5, (1, 2, 1, 2): 10.1,
    (1, 2, 2, 1): 10.3, (1, 2, 3, 0): 6.0, (2, 1, 2, 1): 10.1, (2, 1, 3, 0): 6.0, (3, 0, 3, 0): 4.0,
}


def check_exact_report(code, report, operator):
    """verify-frame must exit 0, say verdict true and give back ``operator``."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        data = json.loads(report)
        rec = data["reconstruction"]["operator"]
        verdict = data["verdict"]
        got = np.asarray(rec["re"], dtype=float) + 1j * np.asarray(rec["im"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    if verdict is not True:
        problems.append(f"verdict {verdict!r}, expected true")
    if got.shape != operator.shape:
        return problems + [f"operator shape {got.shape}, expected {operator.shape}"]
    gap = float(np.max(np.abs(got - operator)))
    if not gap <= OPERATOR_TOL:
        problems.append(f"reconstructed operator off by {gap:.3e} > {OPERATOR_TOL}")
    return problems


def check_schur_report(code, report, samples):
    """character-check's rows must show Schur orthogonality, and its exit code must agree.

    Each row's mean of chi_j * conj(chi_k) is tested against delta(j, k)
    from the benchmark's side, with the row's stderr capped by
    SCHUR_STD_CAPS so that an inflated stderr cannot hide a wrong mean.
    """
    try:
        rows = list(csv.DictReader(io.StringIO(report.decode("utf-8"))))
        keys = [tuple(int(row[c]) for c in ("p1", "q1", "p2", "q2")) for row in rows]
        means = [complex(float(row["mean_re"]), float(row["mean_im"])) for row in rows]
        stderrs = [float(row["stderr"]) for row in rows]
        expecteds = [float(row["expected"]) for row in rows]
        flags = [row["within_4_stderr"] for row in rows]
    except (UnicodeDecodeError, KeyError, ValueError, TypeError, csv.Error) as exc:
        return [f"unreadable report: {exc!r}"]
    if keys != list(SCHUR_STD_CAPS):
        return [f"{len(rows)} rows, expected the {len(SCHUR_STD_CAPS)} bidegree pairs of p+q <= 3 in order"]
    problems, outliers = [], 0
    for key, mean, stderr, expected, flag in zip(keys, means, stderrs, expecteds, flags):
        delta = 1.0 if key[:2] == key[2:] else 0.0
        if expected != delta:
            problems.append(f"{key}: expected {expected!r}, Schur orthogonality gives {delta!r}")
        gap = abs(mean - delta)
        within = gap <= STDERR_BUDGET * stderr if stderr > 0 else gap == 0
        outliers += not within
        if flag != str(within):
            problems.append(f"{key}: within_4_stderr says {flag}, the row gives {within}")
        if not stderr <= SCHUR_STD_CAPS[key] / math.sqrt(samples) + FLOAT_TOL:
            problems.append(f"{key}: stderr {stderr:.3e} is above its cap")
        if not gap <= SCHUR_Z_MAX * stderr + FLOAT_TOL:
            problems.append(f"{key}: mean {mean:.6g} is more than {SCHUR_Z_MAX:g} stderr from {delta:g}")
    if outliers > SCHUR_OUTLIERS:
        problems.append(f"{outliers} rows beyond {STDERR_BUDGET:g} stderr, at most {SCHUR_OUTLIERS} allowed")
    implied = 0 if all(flag == "True" for flag in flags) else 1
    if code != implied:
        problems.append(f"exit code {code}, but the report implies {implied}")
    return problems


def mc_gaps(result, reference, f_norm):
    """Gap of each Monte Carlo result to its exact-route counterpart.

    ``result`` holds the MC outputs (``residual_sq``, ``residual_stderr``,
    ``moment`` matrix, ``moment_stderr``, ``harmonic`` matrix,
    ``harmonic_samples``); ``reference`` the exact ``residual_sq``,
    ``moment`` and ``harmonic``.  Returns {name: gap / allowed gap}.
    """
    residual = abs(result["residual_sq"] - reference["residual_sq"])
    moment = float(np.linalg.norm(result["moment"] - reference["moment"]))
    harmonic = float(np.max(np.abs(result["harmonic"] - reference["harmonic"])))
    return {
        "frame_residual": residual / (STDERR_BUDGET * result["residual_stderr"]),
        "reconstruct_moment": moment / (STDERR_BUDGET * result["moment_stderr"]),
        "reconstruct_harmonic": harmonic
        / (HARMONIC_BOUND * f_norm / np.sqrt(result["harmonic_samples"])),
    }


def check_mc(result, reference, f_norm):
    """Each MC result must lie within its allowed gap of the exact route."""
    return [
        f"{name}: gap is {ratio:.3f} of its bound"
        for name, ratio in mc_gaps(result, reference, f_norm).items()
        if not ratio <= 1.0
    ]


def check_repeat(first, second):
    """The same operation run twice must give byte-identical reports."""
    return [] if first == second else ["report differs from the same operation's first run"]
