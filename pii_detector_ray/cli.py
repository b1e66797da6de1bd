"""Command-line entry point — the unit you hand to ``ray job submit``.

Examples::

    # full (resumable) run over an input directory of pages parquet
    ray job submit -- python -m pii_detector_ray.cli run \\
        --input /data/pages --output /data/out --partitions 64

    # resume after a kill: identical command — committed partitions skip
    ray job submit -- python -m pii_detector_ray.cli run \\
        --input /data/pages --output /data/out --partitions 64

    # rescan prior output with a delta pattern set
    python -m pii_detector_ray.cli rescan --prior /data/out \\
        --out /data/rescan --only EMAIL_ADDRESS US_SSN

    # synthesize a test corpus
    python -m pii_detector_ray.cli synth --size correctness

The CLI owns the Ray session (``ray.init`` guarded for pre-initialized
environments); library code never calls ``ray.init`` (driver contract).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _ray_init(num_cpus: int | None) -> None:
    import ray
    if not ray.is_initialized():
        kwargs = dict(include_dashboard=False, ignore_reinit_error=True,
                      logging_level='ERROR')
        if num_cpus:
            kwargs['num_cpus'] = num_cpus
        ray.init(address=os.environ.get('RAY_ADDRESS', 'local'), **kwargs)


def _load_cfg(args: argparse.Namespace):
    from pii_detector_ray.config import PipelineConfig
    if getattr(args, 'config', None):
        with open(args.config) as f:
            cfg = PipelineConfig.from_json(f.read())
    else:
        cfg = PipelineConfig()
    if getattr(args, 'only', None):
        cfg.rescan_only = list(args.only)
    return cfg


def cmd_run(args: argparse.Namespace) -> int:
    _ray_init(args.num_cpus)
    from pii_detector_ray.pipelines.runner import run_partitioned
    files = sorted(glob.glob(os.path.join(args.input, '*.parquet'))) \
        or sorted(glob.glob(os.path.join(args.input, '**', '*.parquet'), recursive=True))
    if not files:
        print(f'no parquet files under {args.input}', file=sys.stderr)
        return 2
    cfg = _load_cfg(args)
    summary = run_partitioned(files, args.output, cfg,
                              num_partitions=args.partitions,
                              dedup_urls=args.dedup_urls,
                              keep_only=args.keep_only)
    print(json.dumps(summary))
    return 0


def cmd_rescan(args: argparse.Namespace) -> int:
    _ray_init(args.num_cpus)
    from pii_detector_ray.pipelines.rescan import rescan_output
    cfg = _load_cfg(args)
    ds = rescan_output(args.prior, cfg)
    # write_parquet APPENDS into an existing dir (Ray 2.49) — truncate so
    # a re-run replaces rather than duplicates
    import shutil
    shutil.rmtree(args.out, ignore_errors=True)
    ds.write_parquet(args.out)
    print(json.dumps({'rescanned_rows_with_findings': ds.count()}))
    return 0


def cmd_traindata(args: argparse.Namespace) -> int:
    _ray_init(args.num_cpus)
    from pii_detector_ray.pipelines.traindata import build_traindata_pipeline
    from pii_detector_ray.sources.pqread import read_parquet_clean
    files = sorted(glob.glob(os.path.join(args.input, '*.parquet'))) \
        or sorted(glob.glob(os.path.join(args.input, '**', '*.parquet'),
                            recursive=True)) or [args.input]
    cfg = _load_cfg(args)
    corpus, dropped = build_traindata_pipeline(
        read_parquet_clean(files, columns=[args.id_col, args.text_col]),
        cfg, id_col=args.id_col, text_col=args.text_col,
        span_dedup_enabled=not args.no_span_dedup,
        c4_enabled=not args.no_c4,
        near_dedup_enabled=not args.no_near_dedup)
    # write_parquet APPENDS into an existing directory (Ray 2.49): truncate
    # so a re-run replaces rather than duplicates the previous output
    import shutil
    for sub in ('corpus', 'dropped'):
        shutil.rmtree(os.path.join(args.output, sub), ignore_errors=True)
    corpus.write_parquet(os.path.join(args.output, 'corpus'))
    dropped.write_parquet(os.path.join(args.output, 'dropped'))
    import ray.data as rd
    n_kept = rd.read_parquet(os.path.join(args.output, 'corpus')).count()
    n_drop = rd.read_parquet(os.path.join(args.output, 'dropped')).count()
    print(json.dumps({'kept': n_kept, 'dropped': n_drop}))
    return 0


class _Stop(Exception):
    """Raised in the main thread by ``cli watch``'s SIGTERM handler."""


def _raise_stop(signum, frame):
    raise _Stop


def cmd_watch(args: argparse.Namespace) -> int:
    """Run watch cycles until ``--max-cycles`` or SIGTERM, which exits 0.

    SIGTERM during the sleep ends the loop at once.  SIGTERM mid-cycle stops
    the driver where it stands: each partition's manifest and the ledger are
    committed atomically, so the partition being written is committed or not,
    and the next invocation resumes the same generation."""
    _ray_init(args.num_cpus)
    import signal
    import time as _time

    from pii_detector_ray.pipelines.watch import watch_once
    cfg = _load_cfg(args)
    cycles = 1 if args.once else args.max_cycles
    previous = signal.signal(signal.SIGTERM, _raise_stop)
    try:
        for i in range(cycles):
            summary = watch_once(args.input, args.output, cfg,
                                 num_partitions=args.partitions,
                                 dedup_urls=args.dedup_urls,
                                 keep_only=args.keep_only)
            print(json.dumps(summary), flush=True)
            if i + 1 < cycles:
                _time.sleep(args.interval)
    except _Stop:
        print('watch: stopped by SIGTERM', file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from pii_detector_ray.sources.pages import SIZES, generate_pages
    out = generate_pages(args.out or f'/tmp/pii_ray_corpus/{args.size}',
                         SIZES[args.size], force=args.force)
    print(json.dumps({'pages_dir': out}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog='pii_detector_ray')
    sub = p.add_subparsers(dest='cmd', required=True)

    r = sub.add_parser('run', help='run (or resume) the quality-filter pipeline')
    r.add_argument('--input', required=True, help='directory of pages parquet')
    r.add_argument('--output', required=True)
    r.add_argument('--partitions', type=int, default=8)
    r.add_argument('--num-cpus', type=int, default=None)
    r.add_argument('--config', help='PipelineConfig JSON file')
    r.add_argument('--dedup-urls', action='store_true')
    r.add_argument('--keep-only', action='store_true')
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser('rescan', help='re-scrub prior output with a delta pattern set')
    s.add_argument('--prior', required=True)
    s.add_argument('--out', required=True)
    s.add_argument('--only', nargs='*', help='detector names to rescan with')
    s.add_argument('--num-cpus', type=int, default=None)
    s.add_argument('--config')
    s.set_defaults(fn=cmd_rescan)

    t = sub.add_parser(
        'traindata',
        help='composite training-data prep: normalize + C4 + quality + '
             'scrub + exact dedup + span dedup + token stats')
    t.add_argument('--input', required=True,
                   help='parquet file/dir with (id, text) columns')
    t.add_argument('--output', required=True,
                   help='writes <output>/corpus and <output>/dropped')
    t.add_argument('--id-col', default='doc_id')
    t.add_argument('--text-col', default='text')
    t.add_argument('--no-span-dedup', action='store_true')
    t.add_argument('--no-c4', action='store_true')
    t.add_argument('--no-near-dedup', action='store_true',
                   help='skip the exact Jaccard near-dup join stage')
    t.add_argument('--num-cpus', type=int, default=None)
    t.add_argument('--config')
    t.set_defaults(fn=cmd_traindata)

    w = sub.add_parser(
        'watch',
        help='incremental scan: diff input shards against the committed '
             'ledger, run only new/changed shards as a new generation '
             '(the reference\'s 15-min rescheduler, Ray-native)')
    w.add_argument('--input', required=True, help='directory of pages parquet')
    w.add_argument('--output', required=True)
    w.add_argument('--once', action='store_true',
                   help='run one cycle and exit (external timers own cadence)')
    w.add_argument('--interval', type=float, default=900.0,
                   help='seconds between cycles when looping (default 900, '
                        'the reference\'s 15 minutes)')
    w.add_argument('--max-cycles', type=int, default=1_000_000)
    w.add_argument('--partitions', type=int, default=8)
    w.add_argument('--num-cpus', type=int, default=None)
    w.add_argument('--config')
    w.add_argument('--dedup-urls', action='store_true')
    w.add_argument('--keep-only', action='store_true')
    w.set_defaults(fn=cmd_watch)

    g = sub.add_parser('synth', help='generate a synthetic pages corpus')
    g.add_argument('--size', choices=['smoke', 'correctness', 'bench'],
                   default='correctness')
    g.add_argument('--out')
    g.add_argument('--force', action='store_true')
    g.set_defaults(fn=cmd_synth)

    args = p.parse_args(argv)
    import ray
    pre_initialized = ray.is_initialized()
    code = args.fn(args)
    # shut down only a session this CLI created — when embedded in a larger
    # process (tests, the driver) the caller owns the session lifecycle
    if not pre_initialized and ray.is_initialized():
        ray.shutdown()
    return code


if __name__ == '__main__':
    sys.exit(main())
