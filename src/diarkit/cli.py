"""Command-line entry points for the diarization pipeline.

Subcommands:
  route    print the bandwidth route chosen for each recording
  diarize  run the full pipeline over a corpus and write outputs
  score    score existing hypothesis RTTMs against the reference
  synth    generate a ready-to-run synthetic corpus
  report   rewrite report files from existing outputs

``diarize`` exits 0 when at least one recording succeeded and the config was
valid; config errors exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .annotations import Annotation, RTTMParseError, read_fields, read_rttm_file
from .pipeline import (
    ConfigError,
    ModelSet,
    PipelineConfig,
    discover_recordings,
    route_recording,
    run_corpus,
    score_corpus,
    synthesize_corpus,
    write_report,
)


def _add_common(parser: argparse.ArgumentParser, config_required: bool = True) -> None:
    parser.add_argument("--config", required=config_required, metavar="PATH", help="pipeline config YAML")
    parser.add_argument("--output", metavar="DIR", help="output directory")
    parser.add_argument("--workers", type=int, default=1, metavar="N", help="ignored; recordings run one after another")
    parser.add_argument("--seed", type=int, default=None, metavar="N", help="override config seed")
    parser.add_argument(
        "--subset",
        choices=("full", "core"),
        default="full",
        help="process the full corpus or only the core list",
    )
    parser.add_argument("--core-list", metavar="PATH", help="file with one core recording id per line")
    parser.add_argument("--domain-map", metavar="PATH", help="file with 'recording domain' lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diarkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_route = sub.add_parser("route", help="print bandwidth routing decisions")
    _add_common(p_route)

    p_diar = sub.add_parser(
        "diarize",
        help="run the pipeline over a corpus; every loaded OpenBLAS is held at "
        "one thread while it runs, which is faster on small machines",
    )
    _add_common(p_diar)

    p_score = sub.add_parser("score", help="score hypothesis RTTMs in an output directory")
    _add_common(p_score)

    p_synth = sub.add_parser("synth", help="write a synthetic corpus")
    _add_common(p_synth, config_required=False)
    p_synth.add_argument("--recordings", type=int, default=4, metavar="N")
    p_synth.add_argument("--duration", type=float, default=120.0, metavar="SECONDS")
    p_synth.add_argument("--overlap", type=float, default=0.0, metavar="FRACTION")

    p_report = sub.add_parser("report", help="rewrite report files from existing outputs")
    _add_common(p_report)
    return parser


def _load_config(args) -> PipelineConfig:
    config = PipelineConfig.load(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _read_lines(path: Path, what: str, n_fields: int, expected: str) -> list[list[str]]:
    """The ``n_fields`` fields of each data line of the ``what`` file at
    ``path``; blank and comment lines are skipped."""
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return [fields for _, fields, _ in read_fields(path.read_text(), what, n_fields, (), tagged=False)]
    except RTTMParseError as exc:
        raise ConfigError(f"{path}:{exc.line_number}: expected {expected}") from None


def _read_core_list(args) -> set[str] | None:
    if args.core_list is None:
        if args.subset == "core":
            raise ConfigError("--subset core requires --core-list")
        return None
    path = Path(args.core_list)
    ids = {fields[0] for fields in _read_lines(path, "core list", 1, "one recording id per line")}
    if not ids:
        raise ConfigError(f"core list is empty: {path}")
    return ids


def _read_domain_map(args) -> dict[str, str] | None:
    if args.domain_map is None:
        return None
    return dict(_read_lines(Path(args.domain_map), "domain map", 2, "'recording domain'"))


def _apply_subset(config: PipelineConfig, args, core: set[str] | None) -> PipelineConfig:
    if args.subset != "core":
        return config
    recordings = [rec for rec in discover_recordings(config) if rec in core]
    if not recordings:
        raise ConfigError("core list matches no recording in the corpus")
    return dataclasses.replace(config, recordings=tuple(recordings))


def _require_output(args) -> Path:
    if not args.output:
        raise ConfigError("--output is required for this command")
    return Path(args.output)


def _cmd_route(args) -> int:
    config = _load_config(args)
    core = _read_core_list(args)
    config = _apply_subset(config, args, core)
    models = ModelSet.load(config)
    lines = []
    for rec in discover_recordings(config):
        try:
            route = route_recording(rec, config, models)
        except Exception as exc:  # noqa: BLE001 - report per recording
            route = f"error ({exc})"
        lines.append(f"{rec}\t{route}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.output:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        (out / "routes.txt").write_text(text)
    return 0


def _cmd_diarize(args) -> int:
    config = _load_config(args)
    core = _read_core_list(args)
    domain_map = _read_domain_map(args)
    config = _apply_subset(config, args, core)
    out = _require_output(args)
    manifest = run_corpus(
        config,
        out,
        workers=max(1, args.workers),
        core_list=core if args.subset == "full" else None,
        domain_map=domain_map,
    )
    failed = [e for e in manifest.entries if e.status != "ok"]
    for entry in failed:
        print(f"failed: {entry.recording_id}: {entry.message}", file=sys.stderr)
    print(f"{len(manifest.succeeded())}/{len(manifest.entries)} recordings diarized -> {out}")
    return 0 if manifest.succeeded() else 1


def _read_hypotheses(out: Path) -> dict[str, Annotation]:
    hyp_dir = out / "hyp"
    if not hyp_dir.is_dir():
        raise ConfigError(f"no hypothesis directory at {hyp_dir}; run diarize first")
    hypotheses = {}
    for path in sorted(hyp_dir.glob("*.rttm")):
        anns = read_rttm_file(path)
        hypotheses[path.stem] = anns[0] if anns else Annotation(path.stem, ())
    return hypotheses


def _score_outputs(args):
    config = _load_config(args)
    core = _read_core_list(args)
    domain_map = _read_domain_map(args)
    out = _require_output(args)
    rows, text = score_corpus(_read_hypotheses(out), config, core, domain_map)
    return out, rows, text


def _cmd_score(args) -> int:
    _, _, text = _score_outputs(args)
    sys.stdout.write(text)
    return 0


def _cmd_report(args) -> int:
    out, rows, text = _score_outputs(args)
    write_report(out, rows, text)
    print(f"wrote {out / 'report.txt'} and {out / 'report.tsv'}")
    return 0


def _cmd_synth(args) -> int:
    out = _require_output(args)
    config_path = synthesize_corpus(
        out,
        num_recordings=args.recordings,
        duration=args.duration,
        overlap_fraction=args.overlap,
        seed=args.seed if args.seed is not None else 0,
    )
    print(f"synthetic corpus at {out} (config: {config_path})")
    return 0


_COMMANDS = {
    "route": _cmd_route,
    "diarize": _cmd_diarize,
    "score": _cmd_score,
    "synth": _cmd_synth,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
