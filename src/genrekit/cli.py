"""Command-line surface.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

import argparse
import dataclasses
import json
import os
import sys

from . import binfile, experiment, labelspace, metrics, pipeline, textfeat, zoo
from .errors import ConfigError, DataError, GenrekitError, NumericError, ParseError
from .nn import load_model


DEFAULT_SEED = 42


_OPTIONS = {
    "manifest": {"help": "manifest.jsonl path"},
    "taxonomy": {"help": "taxonomy file path"},
    "seed": {"type": int, "help": f"overrides a config's seed (default: the config's, "
                                  f"else {DEFAULT_SEED})"},
    "out": {"help": "output file or directory"},
    "config": {"help": "experiment config JSON"},
}


def _add_options(parser, names=tuple(_OPTIONS)):
    """The shared options a subcommand reads, and no others."""
    for name in names:
        parser.add_argument(f"--{name}", **_OPTIONS[name])


def _load_inputs(args):
    if not args.manifest or not args.taxonomy:
        raise ConfigError("--manifest and --taxonomy are required")
    manifest = pipeline.load_manifest(args.manifest)
    tax = labelspace.load_taxonomy(args.taxonomy)
    return manifest, tax


def _config(args, **overrides):
    cfg = (experiment.ExperimentConfig.from_json(args.config) if args.config
           else experiment.ExperimentConfig())
    return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def cmd_synth(args):
    out = args.out or "synth_data"
    spec = pipeline.SynthSpec(
        n_top_genres=args.top_genres, subs_per_genre=args.subs_per_genre,
        albums=args.albums, tracks_per_album=args.tracks_per_album,
        seed=DEFAULT_SEED if args.seed is None else args.seed)
    manifest, tax = pipeline.synth_dataset(spec, out)
    print(f"wrote {len(manifest)} albums, {tax.n_labels} labels under {out}")


def cmd_factorize(args):
    manifest, tax = _load_inputs(args)
    cfg = _config(args, seed=args.seed, d=args.d)
    setup = experiment.prepare_labels(manifest, tax, cfg.seed)
    model = experiment.fit_factors(setup, cfg.d)
    out = args.out or "factors.muf"
    labelspace.save_factor_model(model, out)
    print(f"wrote {out}: {model.label_factors.shape[0]} labels x {model.d} dims")


def cmd_train(args):
    manifest, tax = _load_inputs(args)
    cfg = _config(args, seed=args.seed, out_dir=args.out)
    result = experiment.run_experiment(cfg, manifest, tax)
    print(json.dumps(result["row"], sort_keys=True))
    print(f"artifacts under {cfg.out_dir}")


def cmd_extract(args):
    manifest, tax = _load_inputs(args)
    cfg = _config(args, seed=args.seed)
    model = load_model(args.model)
    if model.seed != cfg.seed:  # the inputs would be refit on another split
        raise ConfigError(f"{args.model} was trained with seed {model.seed}, "
                          f"but the config seed is {cfg.seed}")
    setup = experiment.prepare_labels(manifest, tax, cfg.seed)
    inputs, album_of_track = experiment.model_inputs(cfg, manifest, setup)
    mat = experiment.album_features(model, inputs, album_of_track, cfg, len(manifest))
    out = args.out or "features.mufv"
    zoo.save_feature_vectors(mat, manifest.ids(), out)
    print(f"wrote {out}: {mat.shape[0]} x {mat.shape[1]}")


def cmd_fuse(args):
    files = {}
    for spec in args.inputs:
        if "=" not in spec:
            raise ConfigError("fuse inputs look like A=path.mufv")
        mod, path = spec.split("=", 1)
        if mod in files:
            raise ConfigError(f"modality {mod!r} given more than once")
        files[mod] = path
    fused, ids = zoo.fuse_files(files)
    out = args.out or "fused.mufv"
    zoo.save_feature_vectors(fused, ids, out)
    print(f"wrote {out}: {fused.shape[0]} x {fused.shape[1]}")


def cmd_evaluate(args):
    manifest, tax = _load_inputs(args)
    cfg = _config(args, seed=args.seed)
    setup = experiment.prepare_labels(manifest, tax, cfg.seed)
    scores, ids = zoo.load_feature_vectors(args.predictions)
    pos = {item_id: i for i, item_id in enumerate(manifest.ids())}
    unknown = [i for i in ids if i not in pos]
    if unknown:
        raise DataError(f"{args.predictions}: {len(unknown)} ids are not in the manifest, "
                        f"e.g. {unknown[0]!r}")
    n_labels = setup.truth.shape[1]
    if scores.shape[1] != n_labels:
        raise DataError(f"{args.predictions}: {scores.shape[1]} score columns, but the "
                        f"manifest keeps {n_labels} labels")
    rows = [pos[i] for i in ids]
    truth = setup.truth[rows]
    report = metrics.evaluate(metrics.PredictionMatrix(scores, truth))
    text = report.to_json()
    if args.out:
        binfile.write_text(args.out, text)
    print(text, end="")


def cmd_experiment(args):
    manifest, tax = _load_inputs(args)
    out = args.out or "runs"
    grid = experiment.read_json(args.config) if args.config else None
    rows, _results = experiment.run_grid(
        manifest, tax, out_root=out, seed=DEFAULT_SEED if args.seed is None else args.seed,
        grid=grid)
    table = experiment.report_table(rows)
    binfile.write_text(os.path.join(out, "rows.jsonl"),
                       "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    binfile.write_text(os.path.join(out, "table.txt"), table)
    print(table, end="")


def cmd_infogain(args):
    if args.top < 1:
        raise ConfigError(f"--top must be >= 1, got {args.top}")
    manifest, tax = _load_inputs(args)
    cfg = _config(args, seed=args.seed)
    corpus = experiment.text_corpus(manifest, cfg)
    label_id = tax.path_index.get(args.label)
    if label_id is None:
        raise DataError(f"label {args.label!r} not in taxonomy")
    column = [label_id in labelspace.close_labels(it.labels, tax)
              for it in manifest.items]
    gains = textfeat.term_information_gain([set(t) for t in corpus], column)
    top = sorted(gains.items(), key=lambda kv: (-kv[1], kv[0]))[:args.top]
    for term, gain in top:
        print(f"{gain:.4f}\t{term}")


def cmd_report(args):
    rows = []
    for line_no, line in enumerate(binfile.read_text(args.rows).split("\n"), start=1):
        if line.strip():
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, str(exc), args.rows) from exc
    if not rows:
        raise DataError(f"{args.rows}: no rows")
    print(experiment.report_table(rows), end="")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="genrekit",
        description="Multi-label music genre classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic multimodal dataset")
    _add_options(p, ("seed", "out"))
    p.add_argument("--top-genres", type=int, default=3)
    p.add_argument("--subs-per-genre", type=int, default=4)
    p.add_argument("--albums", type=int, default=300)
    p.add_argument("--tracks-per-album", type=int, default=3)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("factorize", help="fit label factors on train+validation")
    _add_options(p)
    p.add_argument("--d", type=int, help="label factor dims (default: the config's, else 50)")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("train", help="train one experiment row")
    _add_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="extract penultimate feature vectors")
    _add_options(p)
    p.add_argument("--model", required=True, help="model checkpoint (.munn)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("fuse", help="concatenate l2-normalized feature files")
    _add_options(p, ("out",))
    p.add_argument("inputs", nargs="+", help="A=path.mufv T=path.mufv ...")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("evaluate", help="score a prediction matrix")
    _add_options(p)
    p.add_argument("--predictions", required=True, help="predictions .mufv file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run the full results grid")
    _add_options(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("infogain", help="information gain of terms for a label")
    _add_options(p, ("manifest", "taxonomy", "seed", "config"))
    p.add_argument("--label", required=True, help="label path, e.g. genre00/style01")
    p.add_argument("--top", type=int, default=20)
    p.set_defaults(func=cmd_infogain)

    p = sub.add_parser("report", help="format a rows.jsonl as a text table")
    p.add_argument("--rows", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (DataError, GenrekitError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
