"""Command-line front end.

Subcommands: validate, analyze, features, synth, report.
Exit codes: 0 success, 1 validation failure, 2 usage error, 3 I/O error.
All diagnostics go to stderr; outputs are files (or stdout for `report`).

An `analyze` batch renders on up to ``jobs`` CPUs (one per usable CPU, at
most one per input): the parent plus ``jobs - 1`` forked workers, Linux only.
The parent writes every file and stderr line, in input order, so both are the
same on one CPU or many. A batch's peak memory is up to ``jobs`` times one
input's. A worker lost to the operating system (killed, or out of memory)
fails each input whose render it took with it as a ``ChildProcessError``, an
``OSError``, so the batch exits 3; the parent still analyzes and writes its
own inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .core import CHANNEL_SLOTS, UpdrsItem
from .errors import UnreadableInput, WalkupError
from .features import default_specs, extract_values, features_csv, features_json_payload
from .ingest import FileFormat, csv_number, parse_frames, write_sequence
from .peaks import CadenceStats, overlay_csv
from .report import (
    REPORT_SCHEMA, AnalysisConfig, analyze, atomic_write, build_series, file_digest, plot_svg, report_json,
)
from .signals import signal_csv
from .synth import MotionScenario, generate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


# the stderr prefix of a failure that ends a command, by exit code; a
# validation failure is prefixed with its type
_PREFIXES = {EXIT_IO: "I/O error", EXIT_USAGE: "error"}


def _exit_code(exc: BaseException) -> int:
    """The exit code ``main`` gives a failure; anything else is re-raised."""
    if isinstance(exc, (UnreadableInput, OSError)):
        return EXIT_IO
    if isinstance(exc, WalkupError):
        return EXIT_VALIDATION
    if isinstance(exc, ValueError):
        return EXIT_USAGE
    raise exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="walkup", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--in", dest="inputs", required=True, nargs="+", help="input file(s)")
        p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
        p.add_argument("--item", help="item tag override (e.g. finger_taps)")

    p_validate = sub.add_parser("validate", help="check a landmark file as analyze reads it, writing nothing")
    add_inputs(p_validate)

    p_analyze = sub.add_parser("analyze", help="full analysis: report + overlays + plots")
    add_inputs(p_analyze)
    p_analyze.add_argument("--config", help="JSON config file")
    p_analyze.add_argument("--out", required=True, help="output directory")

    p_features = sub.add_parser("features", help="extract features from a signal CSV (t,value)")
    p_features.add_argument("--in", dest="inputs", required=True)
    p_features.add_argument("--out", help="output directory (default: stdout CSV)")

    # a flag given sets the MotionScenario field its dest names; the metavars keep the help's names
    p_synth = sub.add_parser("synth", help="generate a synthetic landmark JSONL file",
                             argument_default=argparse.SUPPRESS)
    p_synth.add_argument("--item", required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--duration", type=float, dest="duration_s", metavar="DURATION")
    p_synth.add_argument("--fps", type=float)
    p_synth.add_argument("--frequency", type=float, dest="frequency_hz", metavar="FREQUENCY")
    p_synth.add_argument("--amplitude", type=float, dest="base_amplitude", metavar="AMPLITUDE",
                         help="swing size (per-item default)")
    p_synth.add_argument("--decrement", type=float, dest="amplitude_decrement_per_cycle",
                         metavar="DECREMENT", help="amplitude lost per cycle")
    p_synth.add_argument("--interval-growth", type=float, dest="interval_growth_s_per_cycle",
                         metavar="INTERVAL_GROWTH", help="seconds added to each successive cycle")
    p_synth.add_argument("--tremor-amplitude", type=float)
    p_synth.add_argument("--tremor-freq", type=float, dest="tremor_freq_hz", metavar="TREMOR_FREQ")
    p_synth.add_argument("--noise-std", type=float)

    p_report = sub.add_parser("report", help="merge analysis reports into a summary table")
    p_report.add_argument("--in", dest="inputs", required=True, nargs="+",
                          help="report.json files")
    p_report.add_argument("--out", help="summary CSV path (default: stdout)")
    return parser


def _each_input(paths: list[str], run) -> int:
    """``run(path)`` on each input in the order given, so stderr lists them in
    that order. A failure is printed as ``path: Type: message`` and the next
    input still runs; the worst code wins, ``run``'s own or a failure's."""
    worst = EXIT_OK
    for path in paths:
        try:
            code = run(path)
        except Exception as exc:
            _err(f"{path}: {type(exc).__name__}: {exc}")
            code = _exit_code(exc)
        worst = max(worst, code or EXIT_OK)
    return worst


def _reader(args):
    """``parse_frames`` under ``--format`` and ``--item``, worked out once, so
    an unknown item is one usage error before any input is read. A partial,
    not a lambda, so that it pickles to a batch worker."""
    fmt = FileFormat(args.format)
    item = UpdrsItem.from_name(args.item) if args.item else None
    return partial(parse_frames, format=fmt, item=item)


def _cmd_validate(args) -> int:
    read = _reader(args)

    def run(path: str) -> None:
        seq = read(path)
        series = build_series(seq)
        # per channel: the samples built, and the frames that carried its slot before repair
        slots = CHANNEL_SLOTS[seq.item]
        built = [f"{s.channel.value} {len(s)} samples, {slots[s.channel]} in "
                 f"{int(seq.present[slots[s.channel]].sum())} frames" for s in series]
        _err(f"{path}: ok ({len(seq)} frames; {'; '.join(built)})")

    return _each_input(args.inputs, run)


def _render_one(path: str, read, cfg: AnalysisConfig) -> tuple[str, dict[str, str]]:
    """Analyze one input: the prefix of its output files, and the text of each
    file by name. Writes nothing, so a batch worker can run it."""
    digest = file_digest(path)
    report = analyze(read(path), cfg, digest=digest)
    # the prefix of the output files: the subject, else the file stem, then the item
    stem = f"{report.subject_id or Path(path).stem}_{report.item.value}"
    files = {"report.json": report_json(report)}
    for ch in report.channels:
        base = f"{stem}_{ch.series.channel.value}"
        files[f"{base}.csv"] = signal_csv(ch.series)
        files[f"{base}_peaks.csv"] = overlay_csv(ch.series, ch.peaks, ch.troughs)
        files[f"{base}.svg"] = plot_svg(ch.series, ch.peaks, ch.troughs)
    return stem, files


def _write_one(path: str, rendered: tuple[str, dict[str, str]], out_dir: Path,
               taken: Optional[dict[str, str]]) -> None:
    """Write one rendered input into ``out_dir``, or, in a batch, into its own
    directory there; ``taken`` maps each directory name the batch has used so
    far to its input, and is None for a single input."""
    stem, files = rendered
    sub = out_dir
    if taken is not None:
        # a natural stem ends in an item name, so "<stem>-<k>" is never one
        name, k = stem, 1
        while name in taken:
            k += 1
            name = f"{stem}-{k}"
        if k > 1:
            _err(f"{path}: {out_dir / stem} holds {taken[stem]}, so this input goes to {out_dir / name}")
        taken[name] = path
        sub = out_dir / name
    sub.mkdir(parents=True, exist_ok=True)
    for file_name, text in files.items():
        atomic_write(sub / file_name, text)
    _err(f"analyzed {path} -> {sub}")


def _jobs(count: int) -> int:
    """How many processes render a batch of ``count`` inputs: one per usable
    CPU, and no more than the inputs; 1 where the CPU set cannot be read."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(count, cpus)


def _cmd_analyze(args) -> int:
    read = _reader(args)
    cfg = AnalysisConfig.load(args.config) if args.config else AnalysisConfig()
    render = partial(_render_one, read=read, cfg=cfg)
    out_dir = Path(args.out)
    inputs = args.inputs
    taken = {} if len(inputs) > 1 else None
    jobs = _jobs(len(inputs))
    if jobs == 1:
        pool = nullcontext()
    else:  # imported here: a single input or a single CPU never pays for them
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        from multiprocessing import get_context
        # fork, not spawn: a spawned worker imports numpy and walkup again,
        # about 0.2 s, as long as a whole batch of a dozen short inputs
        pool = ProcessPoolExecutor(jobs - 1, mp_context=get_context("fork"))
    with pool:
        # input i renders in this process when i % jobs == 0, else in a worker,
        # all submitted now; each is written when its turn comes, in input order
        pending = iter([pool.submit(render, path) if i % jobs else None for i, path in enumerate(inputs)])

        def run(path: str) -> None:
            job = next(pending)
            if job is None:
                rendered = render(path)
            else:
                try:
                    rendered = job.result()
                except BrokenExecutor as exc:
                    raise ChildProcessError(f"the process rendering it was lost: {exc}") from None
            _write_one(path, rendered, out_dir, taken)

        return _each_input(inputs, run)


def _read_signal_csv(path: str) -> np.ndarray:
    """The values of a t,value CSV: each row two numbers, t finite and strictly
    increasing. Blank lines are skipped, as the landmark readers skip them, and
    still count in the line numbers of errors."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [(no, row) for no, row in enumerate(csv.reader(fh), 1) if row]
    except UnicodeDecodeError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc}") from exc
    if not rows or rows[0][1] != ["t", "value"]:
        raise WalkupError(f"{path}: expected a t,value CSV")
    values = []
    last_t = -np.inf
    for line, row in rows[1:]:
        try:
            t, value = map(csv_number, row)
        except ValueError:  # a bad number, or not two cells
            raise WalkupError(f"{path}: line {line}: expected a t,value row of numbers") from None
        if not np.isfinite(value):
            raise WalkupError(f"{path}: line {line}: non-finite value")
        if not np.isfinite(t):
            raise WalkupError(f"{path}: line {line}: non-finite t")
        if t <= last_t:
            raise WalkupError(f"{path}: line {line}: t {t!r} is not above the previous {last_t!r}")
        last_t = t
        values.append(value)
    return np.array(values, dtype=float)


def _cmd_features(args) -> int:
    values = _read_signal_csv(args.inputs)
    vector = extract_values(values, default_specs())
    csv_text = features_csv(vector)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        atomic_write(out_dir / "features.csv", csv_text)
        payload = json.dumps(features_json_payload(vector), sort_keys=True, indent=2) + "\n"
        atomic_write(out_dir / "features.json", payload)
        _err(f"wrote {out_dir / 'features.csv'} and features.json")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_synth(args) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(MotionScenario) if hasattr(args, f.name)}
    seq = generate(MotionScenario(**{**given, "item": UpdrsItem.from_name(args.item)}))
    write_sequence(seq, args.out)
    _err(f"wrote {args.out} ({len(seq)} frames)")
    return EXIT_OK


_CADENCE_FIELDS = [f.name for f in fields(CadenceStats)]
_SUMMARY_COLUMNS = ["subject", "item", "channel", "length", *_CADENCE_FIELDS]


def _field(obj, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise WalkupError(f"{where} has no {key!r} field")
    return obj[key]


def _summary_rows(path: str) -> list[list[str]]:
    """One summary row per channel of a report.json; a malformed report is a WalkupError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise WalkupError(f"not JSON: {exc}") from None
    schema = _field(data, "schema", "report")
    if schema != REPORT_SCHEMA:
        raise WalkupError(f"schema {schema!r} is not {REPORT_SCHEMA!r}")
    channels = _field(data, "channels", "report")
    if not isinstance(channels, dict):
        raise WalkupError("report channels must be an object")
    rows = []
    for channel in sorted(channels):
        where = f"channel {channel!r}"
        signal = _field(channels[channel], "signal", where)
        cadence = _field(channels[channel], "cadence", where)
        length = _field(signal, "length", f"{where} signal")
        stats = [_field(cadence, key, f"{where} cadence") for key in _CADENCE_FIELDS]
        rows.append([
            str(data.get("subject", "")),
            str(data.get("item", "")),
            channel,
            str(length),
            *("" if v is None else repr(v) for v in stats),
        ])
    return rows


def _cmd_report(args) -> int:
    rows = [_SUMMARY_COLUMNS]
    if worst := _each_input(args.inputs, lambda path: rows.extend(_summary_rows(path))):
        return worst
    # a cell that holds a comma, a quote or a line break is quoted
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = buf.getvalue()
    if args.out:
        atomic_write(Path(args.out), text)
        _err(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "features": _cmd_features,
    "synth": _cmd_synth,
    "report": _cmd_report,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        code = _exit_code(exc)
        _err(f"{_PREFIXES.get(code, type(exc).__name__)}: {exc}")
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
