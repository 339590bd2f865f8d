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
from .puf import (EnrollmentRecord, enroll, enrollment_path, load_enrollment, load_enrollment_db,
                  save_enrollment)
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


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([header] + rows) + "\n")


def _list(text: str, kind: type) -> list:
    """A comma-separated list of ``kind`` values; empty parts are skipped."""
    return [kind(part) for part in text.split(",") if part]


def _chip_record(args) -> EnrollmentRecord:
    """The enrollment record of ``--chip``. A record file that enrolls
    another chip_id is rejected: its maps are not the named chip's."""
    path = enrollment_path(args.db_dir, args.chip)
    record = load_enrollment(path)
    if record.chip_id != args.chip:
        raise CliError(f"{path} enrolls chip_id {record.chip_id!r}, not --chip {args.chip!r}")
    return record


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
    record = _chip_record(args)
    features = FeatureConfig(overlap=args.overlap)
    img = read_pgm(args.image)
    wm = generate_watermark(img, record, features, args.grid_dim)
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
    features = FeatureConfig(overlap=args.overlap)
    db = load_enrollment_db(args.db_dir)
    img = read_pgm(args.image)
    thresholds = Thresholds(tau_fingerprint=args.tau_fingerprint,
                            tau_challenge=args.tau_challenge,
                            tau_response=args.tau_response)
    report = verify(img, db, features, args.grid_dim, thresholds)

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
    write_pgm(tamper_bitmap(report, args.grid_dim), out_dir / f"{stem}.tamper.pgm")

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
    features = FeatureConfig(overlap=args.overlap)
    db = load_enrollment_db(args.db_dir)
    if len(db) < 3:
        raise CliError(f"source-id experiment needs >= 3 enrolled chips, found {len(db)}")
    if len(sides := sorted(set(db.dims.tolist()))) > 1:
        raise CliError(f"source-id experiment needs one map side, found {sides}")
    if len(args.images) < 3:
        raise CliError("source-id experiment needs >= 3 images")
    out_dir = Path(args.out_dir)

    records = list(db)      # each parsed from its file once, not once per image
    marks = {}
    for image_path in args.images:
        img = read_pgm(image_path)
        stem = Path(image_path).stem
        for record in records:
            wm = generate_watermark(img, record, features, args.grid_dim)
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


def _patch_corner(args, image_path: str, shape: tuple[int, int]) -> tuple[int, int]:
    """The top-left pixel of the ``--patch-size`` patch in an image of
    ``shape``: ``--patch-row`` and ``--patch-col``, by default the centre.
    A patch that does not fit the image is rejected, so tamper.csv states
    the region edited."""
    row = shape[0] // 2 if args.patch_row is None else args.patch_row
    col = shape[1] // 2 if args.patch_col is None else args.patch_col
    if row + args.patch_size > shape[0] or col + args.patch_size > shape[1]:
        raise CliError(f"{image_path}: a {args.patch_size}x{args.patch_size} patch at row {row}, "
                       f"column {col} does not fit the {shape[0]}x{shape[1]} image")
    return row, col


def cmd_experiment_tamper(args) -> int:
    # a larger |delta| clips to the same edit as 255
    if not -255 <= args.delta <= 255:
        raise CliError(f"--delta must be in [-255, 255], got {args.delta}")
    if args.patch_size < 1:
        raise CliError(f"--patch-size must be >= 1, got {args.patch_size}")
    for flag, value in (("--patch-row", args.patch_row), ("--patch-col", args.patch_col)):
        if value is not None and value < 0:
            raise CliError(f"{flag} must be >= 0, got {value}")
    record = _chip_record(args)
    features = FeatureConfig(overlap=args.overlap)
    out_dir = Path(args.out_dir)
    rows = []
    outputs = {}    # written once every image is done: an error leaves no file
    for image_path in args.images:
        img = read_pgm(image_path)
        row, col = _patch_corner(args, image_path, img.shape)
        stem = Path(image_path).stem
        reference = generate_watermark(img, record, features, args.grid_dim)

        size = args.patch_size
        edited = img.copy()
        patch = edited[row:row + size, col:col + size].astype(np.int32)
        edited[row:row + size, col:col + size] = np.clip(
            patch + args.delta, 0, 255).astype(np.uint8)

        probe = generate_watermark(edited, record, features, args.grid_dim)
        img_change = float(np.mean(edited != img))
        wm_change = hamming_frac(reference.bits, probe.bits)
        s = sensitivity(img_change, wm_change)
        rows.append(f"{stem},{row},{col},{size},{args.delta},"
                    f"{img_change:.6f},{wm_change:.6f},{s:.6f}")

        diff = Watermark(bits=np.bitwise_xor(reference.bits, probe.bits), layout=reference.layout)
        outputs[out_dir / f"{stem}.edited.pgm"] = edited
        outputs[out_dir / f"{stem}.wmdiff.pgm"] = watermark_bitmap(diff)
        print(f"{stem}: image change {img_change:.4%}, watermark change {wm_change:.4%}, "
              f"sensitivity {s:.3f}")
    for path, pixels in outputs.items():
        write_pgm(pixels, path)
    _write_csv(out_dir / "tamper.csv",
               "image,patch_row,patch_col,patch_size,delta,"
               "img_change_frac,wm_change_frac,sensitivity", rows)
    print(f"wrote {out_dir / 'tamper.csv'}")
    return EXIT_OK


def cmd_experiment_robustness(args) -> int:
    record = _chip_record(args)
    img = read_pgm(args.image)
    table = robustness_sweep(img, record, _list(args.sigmas, float), _list(args.overlaps, float),
                             _list(args.noise_seeds, int), args.grid_dim)
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
    parser.add_argument("--overlap", type=float, default=FeatureConfig.overlap,
                        help="double-threshold overlap width in intensity units "
                             "(0 = single threshold)")
    parser.add_argument("--grid-dim", type=int, default=WatermarkLayout.grid_dim,
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
    p.add_argument("--array-dim", type=int, default=ChipParams.array_dim)
    p.add_argument("--dcr-median", type=float, default=ChipParams.dcr_median)
    p.add_argument("--dcr-sigma", type=float, default=ChipParams.dcr_sigma)
    p.add_argument("--doubling-temp", type=float, default=ChipParams.doubling_temp_mean)
    p.add_argument("--doubling-temp-jitter", type=float,
                   default=ChipParams.doubling_temp_jitter)
    p.add_argument("--ref-temp", type=float, default=ChipParams.ref_temp)
    p.set_defaults(func=cmd_chip_new)

    p = chip.add_parser("enroll", help="acquire golden maps and store them")
    p.add_argument("chip_id")
    p.add_argument("--temperature", type=float, default=None,
                   help="acquisition temperature in C (default: chip reference)")
    p.add_argument("--exposure", type=float, default=AcquisitionConfig.exposure)
    p.add_argument("--frames", type=int, default=AcquisitionConfig.n_frames)
    p.add_argument("--seed", type=int, default=AcquisitionConfig.rng_seed,
                   help="acquisition noise seed")
    p.set_defaults(func=cmd_chip_enroll)

    p = sub.add_parser("mark", help="watermark a PGM image")
    p.add_argument("image")
    p.add_argument("--chip", required=True)
    p.add_argument("--out-dir", default=None, help="default: alongside the image")
    _add_common_feature_flags(p)
    p.set_defaults(func=cmd_mark)

    p = sub.add_parser("verify", help="verify a marked PGM image")
    p.add_argument("image")
    p.add_argument("--out-dir", default=None, help="default: alongside the image")
    p.add_argument("--tau-fingerprint", type=float, default=Thresholds.tau_fingerprint)
    p.add_argument("--tau-challenge", type=float, default=Thresholds.tau_challenge)
    p.add_argument("--tau-response", type=float, default=Thresholds.tau_response)
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
    p.add_argument("--grid-dim", type=int, default=WatermarkLayout.grid_dim)
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
