"""Command-line surface: chip lifecycle, marking, verification, experiments.

Exit codes form the scripting contract: 0 success/authentic, 1 usage or I/O
error, 2 tampered, 3 unknown source. Every command is deterministic given
its flags and seeds, so reruns produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .codec import WatermarkLayout, Watermark, embed_lsb, read_pgm, save_watermark, write_pgm
from .features import FeatureConfig
from .imager import AcquisitionConfig, ChipParams, chip_path, load_chip, new_chip, save_chip
from .puf import enroll, enrollment_path, load_enrollment, load_enrollment_db, save_enrollment
from .verifier import (AUTHENTIC, TAMPERED, UNKNOWN_SOURCE, Thresholds,
                       generate_watermark, hamming_frac, robustness_sweep,
                       sensitivity, tamper_bitmap, verify, watermark_bitmap,
                       _psnr_db)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TAMPERED = 2
EXIT_UNKNOWN_SOURCE = 3

_VERDICT_EXIT = {AUTHENTIC: EXIT_OK, TAMPERED: EXIT_TAMPERED,
                 UNKNOWN_SOURCE: EXIT_UNKNOWN_SOURCE}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is taken by "tampered"
    def error(self, message):
        raise CliError(message)


def _features(args) -> FeatureConfig:
    return FeatureConfig(overlap=args.overlap)


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([header] + rows) + "\n")


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


# --- commands ----------------------------------------------------------------

def cmd_chip_new(args) -> int:
    params = ChipParams(array_dim=args.array_dim, dcr_median=args.dcr_median,
                        dcr_sigma=args.dcr_sigma,
                        doubling_temp_mean=args.doubling_temp,
                        doubling_temp_jitter=args.doubling_temp_jitter,
                        ref_temp=args.ref_temp)
    path = chip_path(args.db_dir, args.chip_id)
    if path.exists():
        raise CliError(f"chip {args.chip_id!r} already exists at {path}")
    chip = new_chip(args.chip_id, args.seed, params)
    save_chip(chip, args.db_dir)
    print(f"created chip {args.chip_id} (seed {args.seed}, "
          f"{params.array_dim}x{params.array_dim}) -> {path}")
    return EXIT_OK


def cmd_chip_enroll(args) -> int:
    path = chip_path(args.db_dir, args.chip_id)
    if not path.exists():
        raise CliError(f"no chip file for {args.chip_id!r} at {path}")
    chip = load_chip(path)
    temperature = chip.params.ref_temp if args.temperature is None else args.temperature
    cfg = AcquisitionConfig(temperature=temperature, exposure=args.exposure,
                            n_frames=args.frames, rng_seed=args.seed)
    record = enroll(chip, cfg)
    out = save_enrollment(record, args.db_dir)
    print(f"enrolled {args.chip_id} at {temperature:g} C, "
          f"{args.frames} x {args.exposure:g} s -> {out}")
    return EXIT_OK


def cmd_mark(args) -> int:
    record = load_enrollment(enrollment_path(args.db_dir, args.chip))
    features = _features(args)
    layout = WatermarkLayout(grid_dim=args.grid_dim, puf_dim=record.fingerprint.bits.shape[0])
    img = read_pgm(args.image)
    wm = generate_watermark(img, record, features, layout, response_map=args.response_map)
    # read_pgm's array is ours alone: mark it in place. The pixels the
    # payload changes differ by exactly 1, so the changed LSBs are the
    # squared error that psnr(img, marked) would sum over the whole host.
    old_lsbs = img.reshape(-1)[:wm.layout.total_bits] & 1
    marked = embed_lsb(img, wm, out=img)
    sse = int(np.count_nonzero(old_lsbs != wm.bits))
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.image).parent
    stem = Path(args.image).stem
    marked_path = write_pgm(marked, out_dir / f"{stem}.marked.pgm")
    sidecar_path = save_watermark(wm, out_dir / f"{stem}.wm.txt")
    print(f"marked {args.image} with {args.chip}: {wm.layout.total_bits} bits, "
          f"PSNR {_psnr_db(sse, img.size):.2f} dB")
    print(f"wrote {marked_path} and {sidecar_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    features = _features(args)
    layout = WatermarkLayout(grid_dim=args.grid_dim, puf_dim=args.puf_dim)
    db = load_enrollment_db(args.db_dir)
    img = read_pgm(args.image)
    thresholds = Thresholds(tau_fingerprint=args.tau_fingerprint,
                            tau_challenge=args.tau_challenge,
                            tau_response=args.tau_response)
    report = verify(img, db, features, layout, thresholds,
                    response_map=args.response_map)

    out_dir = Path(args.out_dir) if args.out_dir else Path(args.image).parent
    stem = Path(args.image).stem
    if report.fingerprint_best_match:
        chip_id, distance = report.fingerprint_best_match
    else:
        chip_id, distance = "", 1.0
    _write_csv(out_dir / f"{stem}.verify.csv",
               "image,verdict,challenge_match_frac,response_match_frac,"
               "chip_id,fingerprint_distance,n_tamper_cells",
               [f"{Path(args.image).name},{report.verdict},"
                f"{report.challenge_match_frac:.6f},{report.response_match_frac:.6f},"
                f"{chip_id},{distance:.6f},{len(report.tamper_cells)}"])
    write_pgm(tamper_bitmap(report, layout.grid_dim), out_dir / f"{stem}.tamper.pgm")

    print(f"verdict: {report.verdict}")
    print(f"challenge match: {report.challenge_match_frac:.4f}  "
          f"response match: {report.response_match_frac:.4f}")
    if report.fingerprint_best_match:
        print(f"source: {chip_id} (fingerprint distance {distance:.4f})")
    else:
        print("source: no enrolled fingerprint within threshold")
    if report.tamper_cells:
        print(f"tamper cells: {len(report.tamper_cells)} "
              f"(map: {out_dir / f'{stem}.tamper.pgm'})")
    return _VERDICT_EXIT[report.verdict]


def cmd_experiment_source_id(args) -> int:
    features = _features(args)
    db = load_enrollment_db(args.db_dir)
    if len(db) < 3:
        raise CliError(f"source-id experiment needs >= 3 enrolled chips, found {len(db)}")
    if len(args.images) < 3:
        raise CliError("source-id experiment needs >= 3 images")
    out_dir = Path(args.out_dir)

    marks = {}
    for image_path in args.images:
        img = read_pgm(image_path)
        stem = Path(image_path).stem
        for record in db:
            layout = WatermarkLayout(grid_dim=args.grid_dim,
                                     puf_dim=record.fingerprint.bits.shape[0])
            wm = generate_watermark(img, record, features, layout)
            marks[(stem, record.chip_id)] = wm
            write_pgm(watermark_bitmap(wm), out_dir / f"wm_{record.chip_id}_{stem}.pgm")

    keys = sorted(marks)
    rows = []
    cross_chip_fracs = []
    for i, (img_a, chip_a) in enumerate(keys):
        for img_b, chip_b in keys[i + 1:]:
            wa, wb = marks[(img_a, chip_a)], marks[(img_b, chip_b)]
            layout = wa.layout
            total = hamming_frac(wa.bits, wb.bits)
            c = hamming_frac(wa.bits[layout.challenge_slice], wb.bits[layout.challenge_slice])
            r = hamming_frac(wa.bits[layout.response_slice], wb.bits[layout.response_slice])
            f = hamming_frac(wa.bits[layout.fingerprint_slice], wb.bits[layout.fingerprint_slice])
            if img_a == img_b and chip_a != chip_b:
                if c != 0:
                    raise CliError(
                        f"challenge blocks differ for the same image {img_a} "
                        f"across chips {chip_a}/{chip_b}")
                cross_chip_fracs.append(total)
            rows.append(f"{img_a},{chip_a},{img_b},{chip_b},"
                        f"{total:.6f},{c:.6f},{r:.6f},{f:.6f}")
    _write_csv(out_dir / "source_id.csv",
               "image_a,chip_a,image_b,chip_b,total_frac,c_frac,r_frac,f_frac", rows)
    print(f"{len(marks)} watermarks, {len(rows)} pairs -> {out_dir / 'source_id.csv'}")
    print(f"same-image cross-chip mismatch (response+fingerprint only): "
          f"mean {np.mean(cross_chip_fracs):.4f} of all watermark bits")
    return EXIT_OK


def cmd_experiment_tamper(args) -> int:
    record = load_enrollment(enrollment_path(args.db_dir, args.chip))
    features = _features(args)
    layout = WatermarkLayout(grid_dim=args.grid_dim, puf_dim=record.fingerprint.bits.shape[0])
    out_dir = Path(args.out_dir)
    rows = []
    for image_path in args.images:
        img = read_pgm(image_path)
        stem = Path(image_path).stem
        reference = generate_watermark(img, record, features, layout)

        row = args.patch_row if args.patch_row is not None else img.shape[0] // 2
        col = args.patch_col if args.patch_col is not None else img.shape[1] // 2
        size = args.patch_size
        edited = img.copy()
        patch = edited[row:row + size, col:col + size].astype(np.int32)
        edited[row:row + size, col:col + size] = np.clip(
            patch + args.delta, 0, 255).astype(np.uint8)

        probe = generate_watermark(edited, record, features, layout)
        img_change = float(np.mean(edited != img))
        wm_change = hamming_frac(reference.bits, probe.bits)
        s = sensitivity(img_change, wm_change)
        rows.append(f"{stem},{row},{col},{size},{args.delta},"
                    f"{img_change:.6f},{wm_change:.6f},{s:.6f}")

        write_pgm(edited, out_dir / f"{stem}.edited.pgm")
        diff = Watermark(bits=np.bitwise_xor(reference.bits, probe.bits), layout=layout)
        write_pgm(watermark_bitmap(diff), out_dir / f"{stem}.wmdiff.pgm")
        print(f"{stem}: image change {img_change:.4%}, watermark change {wm_change:.4%}, "
              f"sensitivity {s:.3f}")
    _write_csv(out_dir / "tamper.csv",
               "image,patch_row,patch_col,patch_size,delta,"
               "img_change_frac,wm_change_frac,sensitivity", rows)
    print(f"wrote {out_dir / 'tamper.csv'}")
    return EXIT_OK


def cmd_experiment_robustness(args) -> int:
    record = load_enrollment(enrollment_path(args.db_dir, args.chip))
    img = read_pgm(args.image)
    layout = WatermarkLayout(grid_dim=args.grid_dim,
                             puf_dim=record.fingerprint.bits.shape[0])
    table = robustness_sweep(img, record, _float_list(args.sigmas),
                             _float_list(args.overlaps),
                             _int_list(args.noise_seeds), layout)
    out_dir = Path(args.out_dir)
    _write_csv(out_dir / "robustness.csv", "sigma,overlap,flip_frac",
               [f"{sigma:g},{overlap:g},{flip:.6f}" for sigma, overlap, flip in table])
    print("sigma  overlap  flip_frac")
    for sigma, overlap, flip in table:
        print(f"{sigma:5g}  {overlap:7g}  {flip:.6f}")
    print(f"wrote {out_dir / 'robustness.csv'}")
    return EXIT_OK


# --- parser ------------------------------------------------------------------

def _add_common_feature_flags(parser) -> None:
    parser.add_argument("--overlap", type=float, default=0.0,
                        help="double-threshold overlap width in intensity units "
                             "(0 = single threshold)")
    parser.add_argument("--grid-dim", type=int, default=64,
                        help="challenge grid side (image dims must divide by it)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``wm`` parser, built once per process: parsing keeps no state
    between calls, and each build cost a few milliseconds per command."""
    parser = _Parser(prog="wm", description=__doc__.splitlines()[0])
    parser.add_argument("--db-dir", default="wm_db",
                        help="workspace directory of chip and enrollment records")
    sub = parser.add_subparsers(dest="command", required=True)

    chip = sub.add_parser("chip", help="chip lifecycle").add_subparsers(
        dest="chip_command", required=True)
    p = chip.add_parser("new", help="create a simulated chip")
    p.add_argument("chip_id")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--array-dim", type=int, default=64)
    p.add_argument("--dcr-median", type=float, default=100.0)
    p.add_argument("--dcr-sigma", type=float, default=1.0)
    p.add_argument("--doubling-temp", type=float, default=8.0)
    p.add_argument("--doubling-temp-jitter", type=float, default=0.2)
    p.add_argument("--ref-temp", type=float, default=25.0)
    p.set_defaults(func=cmd_chip_new)

    p = chip.add_parser("enroll", help="acquire golden maps and store them")
    p.add_argument("chip_id")
    p.add_argument("--temperature", type=float, default=None,
                   help="acquisition temperature in C (default: chip reference)")
    p.add_argument("--exposure", type=float, default=0.1)
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="acquisition noise seed")
    p.set_defaults(func=cmd_chip_enroll)

    p = sub.add_parser("mark", help="watermark a PGM image")
    p.add_argument("image")
    p.add_argument("--chip", required=True)
    p.add_argument("--out-dir", default=None, help="default: alongside the image")
    p.add_argument("--response-map", choices=["h", "v", "both"], default="both")
    _add_common_feature_flags(p)
    p.set_defaults(func=cmd_mark)

    p = sub.add_parser("verify", help="verify a marked PGM image")
    p.add_argument("image")
    p.add_argument("--out-dir", default=None, help="default: alongside the image")
    p.add_argument("--puf-dim", type=int, default=64)
    p.add_argument("--response-map", choices=["h", "v", "both"], default="both")
    p.add_argument("--tau-fingerprint", type=float, default=0.25)
    p.add_argument("--tau-challenge", type=float, default=0.0)
    p.add_argument("--tau-response", type=float, default=0.05)
    _add_common_feature_flags(p)
    p.set_defaults(func=cmd_verify)

    exp = sub.add_parser("experiment", help="batch reproductions").add_subparsers(
        dest="experiment_command", required=True)
    p = exp.add_parser("source-id", help="cross-chip watermark differences")
    p.add_argument("--images", nargs="+", required=True)
    p.add_argument("--out-dir", default="wm_out")
    _add_common_feature_flags(p)
    p.set_defaults(func=cmd_experiment_source_id)

    p = exp.add_parser("tamper", help="patch edits, diff maps and sensitivity")
    p.add_argument("--chip", required=True)
    p.add_argument("--images", nargs="+", required=True)
    p.add_argument("--patch-size", type=int, default=48)
    p.add_argument("--patch-row", type=int, default=None)
    p.add_argument("--patch-col", type=int, default=None)
    p.add_argument("--delta", type=int, default=32)
    p.add_argument("--out-dir", default="wm_out")
    _add_common_feature_flags(p)
    p.set_defaults(func=cmd_experiment_tamper)

    p = exp.add_parser("robustness", help="noise-vs-overlap flip fractions")
    p.add_argument("--chip", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--sigmas", default="6,18,54", help="comma-separated noise sigmas")
    p.add_argument("--overlaps", default="0,6,12", help="comma-separated overlap widths")
    p.add_argument("--noise-seeds", default="101,102,103", help="comma-separated seeds")
    p.add_argument("--out-dir", default="wm_out")
    p.add_argument("--grid-dim", type=int, default=64)
    p.set_defaults(func=cmd_experiment_robustness)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"wm: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
