"""Command-line front end for decomposition, reconstruction, and verification.

Each command accepts only the settings it reads, as listed in _COMMANDS
(``framesphere COMMAND --help`` shows them).  An unset flag falls back to its
environment variable (FRAMESPHERE_N, FRAMESPHERE_SEED, ...), then to its
default; a command reads the variables of its own settings only.  Runs are
deterministic: identical configurations produce byte-identical output files.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or parse
error, 3 a resource guard refused the computation.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from itertools import combinations_with_replacement

import numpy as np

from . import __version__
from .errors import (
    ConfigurationError,
    DimensionUnsupportedError,
    NumericalError,
    ParseError,
    ResourceGuardError,
    SamplingFailureError,
    ShapeMismatchError,
    UnderdeterminedDataError,
)
from .frame import (
    HERMITIAN_TOL,
    FrameFunction,
    OperatorMatrix,
    _exact_component_norms,
    basis_weight_sums,
    fit_samples,
    frame_residual,
    gleason_additivity_check,
    hermitian_check,
    random_orthonormal_basis,
    reconstruct_harmonic,
    reconstruct_moment,
)
from .harmonics import (
    bidegrees_up_to,
    build_basis,
    character_batch,
    dimension,
    zonal_frame_sum,
    zonal_polynomial,
)
from .measure import RngStream, haar_sample_batch

ENV_PREFIX = "FRAMESPHERE_"
N_BASES = 100  # orthonormal bases drawn for the constant-sum check
NORM_FLOOR = 1e-12  # components below this are not worth a table row


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

#: Every setting, once: name -> (type, default, help, check).  A command
#: accepts the flag --name and reads FRAMESPHERE_NAME only when its _COMMANDS
#: entry lists the setting; a set value must pass ``check``.
_SETTINGS = {
    "n": (int, 3, "ambient dimension, >= 3", lambda v: v >= 3),
    "seed": (int, 0, "random seed, 0 to 2**64 - 1", lambda v: 0 <= v <= 2**64 - 1),
    "samples": (int, 20000, "Monte Carlo sample count, >= 2", lambda v: v >= 2),
    "tol": (float, 1e-8, "verification tolerance, > 0", lambda v: v > 0),
    "max_bidegree": (int, 4, "largest p+q considered, >= 0", lambda v: v >= 0),
    "input": (str, None, "operator .json, or for verify-frame and decompose a sample .csv", None),
    "output": (str, None, "write the report here instead of stdout", None),
}


def _resolve_config(args, settings, defaults) -> argparse.Namespace:
    """Fill each unset flag from its FRAMESPHERE_ variable, then its default."""
    for name in settings:
        cast, default, help_text, check = _SETTINGS[name]
        value = getattr(args, name)
        if value is None:
            var = ENV_PREFIX + name.upper()
            raw = os.environ.get(var, "")
            try:
                value = cast(raw) if raw else defaults.get(name, default)
            except ValueError:
                raise ConfigurationError(f"{var}={raw!r} is not a valid {cast.__name__}") from None
        if value is not None and check is not None and not check(value):
            raise ConfigurationError(f"--{_flag(name)} {value} is out of range: {help_text}")
        setattr(args, name, value)
    return args


def _flag(name) -> str:
    return name.replace("_", "-")


def _require_input(cfg) -> str:
    if not cfg.input:
        raise ConfigurationError(f"{cfg.command} needs --input (or {ENV_PREFIX}INPUT)")
    return cfg.input


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def read_operator_json(path) -> OperatorMatrix:
    """Operator file: {"n": int, "re": [[float]], "im": [[float]]} (row-major)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    return OperatorMatrix.from_dict(data)


def write_operator_json(path, op: OperatorMatrix) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(op.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_samples_csv(path):
    """Sample file: header re_1..re_n, im_1..im_n, f_re, f_im; one row per point."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ParseError(f"{path} is not valid CSV: {exc}") from None
    if not rows or not rows[0]:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    n = (len(header) - 2) // 2
    expected = (
        [f"re_{k}" for k in range(1, n + 1)]
        + [f"im_{k}" for k in range(1, n + 1)]
        + ["f_re", "f_im"]
    )
    if n < 1 or len(header) != 2 * n + 2 or header != expected:
        raise ParseError(
            f"{path}: header must read re_1..re_n,im_1..im_n,f_re,f_im; got {','.join(header)}"
        )
    points, values = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"{path} line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            nums = [float(x) for x in row]
        except ValueError:
            bad = next(x for x in row if not _is_float(x))
            raise ParseError(f"{path} line {lineno}: field {bad!r} is not a number") from None
        points.append([complex(nums[k], nums[n + k]) for k in range(n)])
        values.append(complex(nums[2 * n], nums[2 * n + 1]))
    if not points:
        raise ParseError(f"{path}: no sample rows")
    return np.asarray(points, dtype=complex), np.asarray(values, dtype=complex)


def _is_float(text) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def write_samples_csv(path, points, values) -> None:
    points = np.asarray(points, dtype=complex)
    values = np.asarray(values, dtype=complex)
    n = points.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [f"re_{k}" for k in range(1, n + 1)]
            + [f"im_{k}" for k in range(1, n + 1)]
            + ["f_re", "f_im"]
        )
        for z, v in zip(points, values):
            writer.writerow(
                [repr(float(x)) for x in z.real]
                + [repr(float(x)) for x in z.imag]
                + [repr(float(v.real)), repr(float(v.imag))]
            )


def _load_frame_input(cfg) -> FrameFunction:
    path = _require_input(cfg)
    if path.endswith(".json"):
        f = FrameFunction(operator=read_operator_json(path))
        _check_input_n(cfg, f.n)
        return f
    if path.endswith(".csv"):
        points, values = read_samples_csv(path)
        _check_input_n(cfg, points.shape[1])  # before the fit, whose errors assume the file's n
        return fit_samples(points, values, cfg.max_bidegree)
    raise ParseError(f"{path}: expected a .json operator or a .csv sample file")


def _check_input_n(cfg, n) -> None:
    if cfg.n is not None and n != cfg.n:
        raise ConfigurationError(f"--n {cfg.n} disagrees with the input file (n={n})")


def _emit(cfg, text) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_report(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _config_section(cfg, n) -> dict:
    return dict(vars(cfg), n=n)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify_frame(cfg) -> int:
    """Constant-sum check, residual, two-route reconstruction, symmetry."""
    f = _load_frame_input(cfg)
    rng = RngStream(cfg.seed)

    reconstruction = reconstruct_moment(f)
    # float rounding grows with the operator's entries, so the weight and
    # cross-route tolerances scale with its largest one (never below 1)
    scale = max(1.0, float(np.max(np.abs(reconstruction.entries))))
    weight_tol = cfg.tol * scale
    cross_tol = 10 * HERMITIAN_TOL * scale
    sums = basis_weight_sums(f, N_BASES, rng.child(0))
    weight = complex(np.mean(sums))
    max_dev = float(np.max(np.abs(sums - weight)))
    weight_ok = max_dev <= weight_tol
    residual = frame_residual(f, cfg.max_bidegree, detail=True)
    residual_ok = residual.norm <= cfg.tol
    cross = reconstruct_harmonic(f)
    cross_gap = float(np.max(np.abs(reconstruction.entries - cross.entries)))
    cross_ok = cross_gap <= cross_tol

    symmetry = hermitian_check(f, reconstruction, rng=rng.child(1))
    additivity = None
    if reconstruction.is_hermitian and abs(reconstruction.trace()) > 1e-12:
        normalized = reconstruction.normalized()
        if normalized.is_hermitian:
            check = gleason_additivity_check(normalized, N_BASES, rng.child(2), warn=False)
            additivity = check.max_error

    verdict = bool(weight_ok and residual_ok and cross_ok and symmetry.consistent)
    payload = {
        "command": cfg.command,
        "version": __version__,
        "config": _config_section(cfg, n=f.n),
        "tolerances": {
            "weight_deviation": weight_tol,
            "residual_l2": cfg.tol,
            "hermitian": HERMITIAN_TOL,
            "cross_method_gap": cross_tol,
        },
        "weight": {
            "estimates": [[complex(w).real, complex(w).imag] for w in sums],
            "mean": [weight.real, weight.imag],
            "max_deviation": max_dev,
            "n_bases": N_BASES,
            "verdict": bool(weight_ok),
        },
        "residual": {
            "l2_norm": residual.norm,
            "components": [
                {"p": int(j[0]), "q": int(j[1]), "norm_sq": float(v)}
                for j, v in sorted(residual.components.items())
                if float(v) > NORM_FLOOR**2
            ],
            "verdict": bool(residual_ok),
        },
        "reconstruction": {
            "operator": reconstruction.to_dict(),
            "hermitian": reconstruction.is_hermitian,
            "cross_method_gap": cross_gap,
            "verdict": bool(cross_ok),
        },
        "hermitian_check": {
            "real_valued": symmetry.real_valued,
            "hermitian": symmetry.hermitian,
            "consistent": symmetry.consistent,
            "max_imag": symmetry.max_imag,
        },
        "additivity_max_error": additivity,
        "verdict": verdict,
    }
    _emit(cfg, _json_report(payload))
    return 0 if verdict else 1


def cmd_decompose(cfg) -> int:
    """Component norms of the input over all bidegrees p+q <= max_bidegree."""
    f = _load_frame_input(cfg)
    degrees = bidegrees_up_to(cfg.max_bidegree)
    norms_sq = _exact_component_norms(f.n, f.polynomial_parts(), degrees)
    norms = {j: math.sqrt(v) for j, v in norms_sq.items()}
    rows = [
        (int(j[0]), int(j[1]), dimension(f.n, j), repr(norms[j]))
        for j in degrees
        if norms[j] > NORM_FLOOR
    ]
    _emit(cfg, _csv_text(["p", "q", "dim", "component_l2_norm"], rows))
    return 0


def cmd_zonal_table(cfg) -> int:
    """Exact zonal values R(1), R(0) and the basis-sum check, as rationals."""
    rows = []
    for p, q in bidegrees_up_to(cfg.max_bidegree):
        r = zonal_polynomial(cfg.n, (p, q))
        rows.append((p, q, str(r.at_one()), str(r.at_zero()), str(zonal_frame_sum(cfg.n, (p, q)))))
    _emit(cfg, _csv_text(["p", "q", "value_at_1", "value_at_0", "basis_sum"], rows))
    return 0


def cmd_character_check(cfg) -> int:
    """Monte Carlo Schur orthogonality for all bidegrees p+q <= max_bidegree."""
    degrees = bidegrees_up_to(cfg.max_bidegree)
    rng = RngStream(cfg.seed)
    gs = haar_sample_batch(cfg.n, cfg.samples, rng.child(0))
    characters = {j: character_batch(build_basis(cfg.n, j), gs) for j in degrees}
    rows = []
    all_ok = True
    for j, k in combinations_with_replacement(degrees, 2):
        product = characters[j] * np.conj(characters[k])
        mean = complex(np.mean(product))
        stderr = float(np.std(product, ddof=1) / np.sqrt(cfg.samples))
        expected = 1.0 if j == k else 0.0
        ok = abs(mean - expected) <= 4 * stderr if stderr > 0 else abs(mean - expected) == 0
        all_ok = all_ok and ok
        rows.append(
            (
                int(j[0]),
                int(j[1]),
                int(k[0]),
                int(k[1]),
                repr(mean.real),
                repr(mean.imag),
                repr(stderr),
                repr(expected),
                str(bool(ok)),
            )
        )
    header = ["p1", "q1", "p2", "q2", "mean_re", "mean_im", "stderr", "expected", "within_4_stderr"]
    _emit(cfg, _csv_text(header, rows))
    return 0 if all_ok else 1


def cmd_gleason_demo(cfg) -> int:
    """Normalize an operator to unit trace and exhibit the projector measure."""
    path = _require_input(cfg)
    op = read_operator_json(path)
    if not op.is_hermitian:
        raise ConfigurationError("gleason-demo needs a Hermitian operator as input")
    normalized = op.normalized()
    rng = RngStream(cfg.seed)
    import warnings as _warnings

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        result = gleason_additivity_check(normalized, N_BASES, rng.child(0))
    basis = random_orthonormal_basis(normalized.n, rng.child(1))
    measures = []
    for rank in range(1, normalized.n):
        vecs = basis.vectors[:rank]
        projector = np.einsum("gk,gl->kl", vecs, np.conj(vecs))
        mu = complex(np.einsum("kl,lk->", normalized.entries, projector))
        measures.append({"rank": rank, "measure": mu.real})
    verdict = result.max_error <= cfg.tol
    payload = {
        "command": cfg.command,
        "version": __version__,
        "config": _config_section(cfg, n=normalized.n),
        "tolerances": {"additivity": cfg.tol},
        "normalized_operator": normalized.to_dict(),
        "additivity_error": result.additivity_error,
        "trace_match_error": result.trace_match_error,
        "negative_eigenvalues": result.negative_eigenvalues,
        "positive": not result.negative_eigenvalues,
        "warnings": [str(w.message) for w in caught],
        "projector_measures": measures,
        "verdict": bool(verdict),
    }
    _emit(cfg, _json_report(payload))
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


#: command -> (function, help, the settings it reads, defaults that replace
#: those of _SETTINGS).  Where the input fixes n, --n has no default, and a set
#: --n must agree with the input.
_COMMANDS = {
    "verify-frame": (cmd_verify_frame, "check the constant-sum property and reconstruct the operator",
                     ("n", "seed", "tol", "max_bidegree", "input", "output"), {"n": None}),
    "decompose": (cmd_decompose, "table of harmonic component norms",
                  ("n", "max_bidegree", "input", "output"), {"n": None}),
    "zonal-table": (cmd_zonal_table, "exact zonal polynomial values and the selection rule",
                    ("n", "max_bidegree", "output"), {}),
    "character-check": (cmd_character_check, "Monte Carlo Schur orthogonality statistics",
                        ("n", "seed", "samples", "max_bidegree", "output"), {}),
    "gleason-demo": (cmd_gleason_demo, "projector measures of a unit-trace operator",
                     ("seed", "tol", "input", "output"), {}),
}


def _build_parser():
    """The top-level parser, and each command's subparser by name."""
    parser = argparse.ArgumentParser(
        prog="framesphere",
        description="harmonic analysis and frame-function verification on the complex sphere",
    )
    parser.add_argument("--version", action="version", version=f"framesphere {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for command, (_func, help_text, settings, defaults) in _COMMANDS.items():
        sub = subs[command] = subparsers.add_parser(command, help=help_text)
        for name in settings:
            cast, default, setting_help, _check = _SETTINGS[name]
            default = defaults.get(name, default)
            if default is not None:
                setting_help += f" (default {default})"
            sub.add_argument("--" + _flag(name), dest=name, type=cast, help=setting_help)
    return parser, subs


def main(argv=None) -> int:
    parser, subs = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:  # reported with the usage of the command that rejects them
            subs[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code) if exc.code else 0
    try:
        func, _help, settings, defaults = _COMMANDS[args.command]
        return func(_resolve_config(args, settings, defaults))
    except (
        ParseError,
        ConfigurationError,
        DimensionUnsupportedError,
        ShapeMismatchError,
        UnderdeterminedDataError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except SamplingFailureError as exc:
        print(f"sampling failure: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
