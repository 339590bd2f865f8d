"""The benchmark's four workloads.

Each workload makes its inputs (PGM scenes and enrollment records) from the
workload seed in ``setup``, hands out ops (one or more ``wm`` invocations,
run in-process through ``spadmark.cli.main``) with ``op``, and attaches to
every op the exit codes it must return and a check of the files it writes.
The program only ever sees the generated files.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import zlib
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from spadmark import cli
from spadmark.codec import embed_lsb, write_pgm
from spadmark.imager import AcquisitionConfig, new_chip
from spadmark.puf import enroll, golden_acquisition, save_enrollment
from spadmark.verifier import generate_watermark

# Watermark length at the default layout (grid 64, map 64): 64*64*8
# challenge bits + 2 * 64*64 response bits + 64*64 fingerprint bits.
WM_BITS = 45056
# `wm experiment robustness` defaults: --sigmas 6,18,54 --overlaps 0,6,12.
ROBUST_SIGMAS = (6.0, 18.0, 54.0)
ROBUST_OVERLAPS = (0.0, 6.0, 12.0)


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is what the benchmark measures; ``SMOKE`` only
    keeps the benchmark's own tests fast."""

    mark_size: int = 4096
    mark_scenes: int = 4
    verify_size: int = 512
    verify_inputs: int = 12
    golden_chips: int = 4
    db_records: int = 2000
    robust_size: int = 512
    robust_hosts: int = 4
    one_setup: bool = False     # set up once instead of the set-up budget in run.py


FULL = Scale()
SMOKE = Scale(mark_size=256, mark_scenes=2, verify_size=256, verify_inputs=8,
              golden_chips=2, db_records=12, robust_size=256, robust_hosts=2,
              one_setup=True)


@dataclass
class Op:
    """One closed-loop op: ``wm`` argv lists run in order, the exit code each
    must return, the files it must write, and a check of those files (returns
    an error or None). The files are deleted before the op runs, so the check
    never reads what an earlier op left behind."""

    argvs: list[list[str]]
    expected: list[int]
    outputs: list[Path]
    check: Callable[[], str | None]


class _Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


_DISCARD = _Discard()


def wm(argv: list[str]) -> tuple[int, str]:
    """Run one ``wm`` invocation in-process; stdout is discarded, stderr kept.

    ``cli.main`` is looked up on the module at call time, so a traced run's
    rebinding applies.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(_DISCARD), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _wm_ok(argv: list[str]) -> None:
    code, err = wm(argv)
    if code != 0:
        raise RuntimeError(f"wm {' '.join(argv)} exited {code}: {err.strip()}")


def scene(rng: np.random.Generator, size: int) -> np.ndarray:
    """A cheap synthetic host: a bilinear field over random knots (at most
    512 px, then pixel-repeated up to ``size``) plus 4 bits of texture.

    The smooth field puts block means in every intensity band and near band
    edges, so noise flips some cells; generating it costs about 0.1 s at 4096².
    """
    n = min(size, 512)
    knots = rng.uniform(16, 232, (9, 9))
    t = np.linspace(0.0, 8.0, n)
    lo = np.minimum(t.astype(int), 7)
    weights = np.zeros((n, 9))
    weights[np.arange(n), lo] = 1.0 - (t - lo)
    weights[np.arange(n), lo + 1] = t - lo
    field = (weights @ knots @ weights.T).astype(np.uint8)
    if size > n:
        field = np.repeat(np.repeat(field, size // n, axis=0), size // n, axis=1)
    return field + rng.integers(0, 16, (size, size), dtype=np.uint8)


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _new_enrolled_chip(db: Path, rng: np.random.Generator) -> None:
    """``wm chip new cam0`` + ``wm chip enroll cam0`` into ``db``."""
    _wm_ok(["--db-dir", str(db), "chip", "new", "cam0", "--seed", str(_seed_int(rng))])
    _wm_ok(["--db-dir", str(db), "chip", "enroll", "cam0", "--seed", str(_seed_int(rng))])


def lsb_matches_sidecar(marked: Path, sidecar: Path, size: int) -> str | None:
    """Compare the first WM_BITS pixel LSBs of a marked PGM with the sidecar
    hex dump, parsing both independently of the program's codec."""
    data = marked.read_bytes()
    header = f"P5\n{size} {size}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + size * size:
        return f"{marked.name}: not a {size}x{size} P5 PGM"
    lsb = np.frombuffer(data, np.uint8, WM_BITS, len(header)) & 1
    lines = sidecar.read_text().splitlines()
    if len(lines) < 2 or lines[0] != "wm v1 D=64 P=64 L=8":
        return f"{sidecar.name}: bad sidecar header"
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(lines[1]), np.uint8))[:WM_BITS]
    if bits.size != WM_BITS or not np.array_equal(lsb, bits):
        return f"{marked.name}: LSBs differ from {sidecar.name}"
    return None


class Workload:
    name = ""

    def setup(self, work: Path, seed: int, scale: Scale) -> None:
        raise NotImplementedError

    def op(self, index: int, tag: str = "") -> Op:
        """Op number ``index``; ``tag`` tells apart two ops on the same input
        (warm-up, traced twin) where the op must create something new."""
        raise NotImplementedError

    def _rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng([seed, zlib.crc32(self.name.encode())])


class Mark4k(Workload):
    name = "mark_4k"

    def setup(self, work, seed, scale):
        rng = self._rng(seed)
        self.size = scale.mark_size
        self.db, self.out, self.check_dir = work / "db", work / "out", work / "check"
        _new_enrolled_chip(self.db, rng)
        self.scenes = [write_pgm(scene(rng, self.size), work / "in" / f"scene{i}.pgm")
                       for i in range(scale.mark_scenes)]
        self.verified: dict[int, int] = {}

    def op(self, index, tag=""):
        i = index % len(self.scenes)
        argv = ["--db-dir", str(self.db), "mark", str(self.scenes[i]), "--chip", "cam0",
                "--out-dir", str(self.out)]
        outputs = [self.out / f"scene{i}.marked.pgm", self.out / f"scene{i}.wm.txt"]
        return Op([argv], [0], outputs, lambda: self._check(i))

    def _check(self, i: int) -> str | None:
        marked = self.out / f"scene{i}.marked.pgm"
        error = lsb_matches_sidecar(marked, self.out / f"scene{i}.wm.txt", self.size)
        if error:
            return error
        # Marking is deterministic: an output byte-identical to one that
        # already verified as authentic needs no second verify.
        digest = zlib.crc32(marked.read_bytes())
        if self.verified.get(i) != digest:
            code, err = wm(["--db-dir", str(self.db), "verify", str(marked),
                            "--out-dir", str(self.check_dir)])
            if code != cli.EXIT_OK:
                return f"{marked.name}: verify exited {code}, expected 0 {err.strip()}"
            self.verified[i] = digest
        return None


class VerifyDb(Workload):
    name = "verify_db"
    # Fixed mix of input classes: verdict, exit code.
    CLASSES = (("authentic", cli.EXIT_OK), ("authentic", cli.EXIT_OK),
               ("tampered", cli.EXIT_TAMPERED), ("unknown-source", cli.EXIT_UNKNOWN_SOURCE))

    def setup(self, work, seed, scale):
        rng = self._rng(seed)
        self.db, self.out = work / "db", work / "out"
        golden = []
        for g in range(scale.golden_chips):
            chip = new_chip(f"cam{g}", _seed_int(rng))
            golden.append(enroll(chip, golden_acquisition(chip, _seed_int(rng))))
            save_enrollment(golden[-1], self.db)
        # Distractors: a one-frame acquisition keeps set-up short; their
        # fingerprints still sit ~0.5 from every golden chip's.
        for d in range(scale.db_records - scale.golden_chips):
            chip = new_chip(f"dist{d:05d}", _seed_int(rng))
            save_enrollment(enroll(chip, AcquisitionConfig(n_frames=1, rng_seed=d)), self.db)
        rogue_chip = new_chip("rogue", _seed_int(rng))
        rogue = enroll(rogue_chip, golden_acquisition(rogue_chip, _seed_int(rng)))

        size = scale.verify_size
        self.inputs = []
        for i in range(scale.verify_inputs):
            verdict, code = self.CLASSES[i % len(self.CLASSES)]
            record = rogue if code == cli.EXIT_UNKNOWN_SOURCE else golden[
                int(rng.integers(len(golden)))]
            host = scene(rng, size)
            marked = embed_lsb(host, generate_watermark(host, record))
            if code == cli.EXIT_TAMPERED:
                # Invert a patch below the payload rows: every block mean in
                # it moves to another band, so the challenge must change.
                rows = slice(size - size // 4, size - size // 8)
                cols = slice(size // 2 - size // 8, size // 2 + size // 8)
                marked[rows, cols] = 255 - marked[rows, cols]
            path = write_pgm(marked, work / "in" / f"img{i}.pgm")
            chip_id = "" if code == cli.EXIT_UNKNOWN_SOURCE else record.chip_id
            self.inputs.append((path, verdict, code, chip_id))

    def op(self, index, tag=""):
        path, verdict, code, chip_id = self.inputs[index % len(self.inputs)]
        argv = ["--db-dir", str(self.db), "verify", str(path), "--out-dir", str(self.out)]
        outputs = [self.out / f"{path.stem}.verify.csv", self.out / f"{path.stem}.tamper.pgm"]
        return Op([argv], [code], outputs, lambda: self._check(path, verdict, chip_id))

    def _check(self, path: Path, verdict: str, chip_id: str) -> str | None:
        with open(self.out / f"{path.stem}.verify.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != 1:
            return f"{path.stem}.verify.csv: {len(rows)} rows, expected 1"
        row = rows[0]
        if row["verdict"] != verdict or row["chip_id"] != chip_id:
            return (f"{path.name}: verdict {row['verdict']}/{row['chip_id']!r}, "
                    f"expected {verdict}/{chip_id!r}")
        return None


class EnrollFleet(Workload):
    name = "enroll_fleet"

    def setup(self, work, seed, scale):
        self.work = work
        self.base_seed = _seed_int(self._rng(seed))
        (work / "fleet").mkdir(parents=True)

    def op(self, index, tag=""):
        # The warm-up op enrolls elsewhere, so the measured fleet starts empty.
        db = self.work / ("warmup" if tag == "w" else "fleet")
        chip_id = f"fleet{index:06d}{tag}"
        seed = self.base_seed + index
        argvs = [["--db-dir", str(db), "chip", "new", chip_id, "--seed", str(seed)],
                 ["--db-dir", str(db), "chip", "enroll", chip_id, "--seed", str(seed + 1)]]
        outputs = [db / f"{chip_id}.chip.json", db / f"{chip_id}.enroll.json"]
        return Op(argvs, [0, 0], outputs, lambda: self._check(db, chip_id, seed))

    @staticmethod
    def _check(db: Path, chip_id: str, seed: int) -> str | None:
        chip = json.loads((db / f"{chip_id}.chip.json").read_text())
        rec = json.loads((db / f"{chip_id}.enroll.json").read_text())
        if chip["seed"] != seed or rec["chip_id"] != chip_id or rec["array_dim"] != 64:
            return f"{chip_id}: chip or enrollment record does not match the op"
        if rec["acquisition"]["n_frames"] != 100:
            return f"{chip_id}: enrolled with {rec['acquisition']['n_frames']} frames"
        h, v, f = (int(rec[key], 16) for key in ("rdcm_h", "rdcm_v", "fingerprint"))
        if h ^ v != f or len(rec["fingerprint"]) != 64 * 64 // 4:
            return f"{chip_id}: fingerprint is not rdcm_h XOR rdcm_v"
        return None


class Robustness512(Workload):
    name = "robustness_512"

    def setup(self, work, seed, scale):
        rng = self._rng(seed)
        self.db, self.out = work / "db", work / "out"
        _new_enrolled_chip(self.db, rng)
        self.hosts = [write_pgm(scene(rng, scale.robust_size), work / "in" / f"host{i}.pgm")
                      for i in range(scale.robust_hosts)]

    def op(self, index, tag=""):
        host = self.hosts[index % len(self.hosts)]
        argv = ["--db-dir", str(self.db), "experiment", "robustness", "--chip", "cam0",
                "--image", str(host), "--out-dir", str(self.out)]
        return Op([argv], [0], [self.out / "robustness.csv"], self._check)

    def _check(self) -> str | None:
        with open(self.out / "robustness.csv", newline="") as f:
            rows = [(float(r["sigma"]), float(r["overlap"]), float(r["flip_frac"]))
                    for r in csv.DictReader(f)]
        cells = sorted((sigma, overlap) for sigma, overlap, _ in rows)
        if cells != sorted(product(ROBUST_SIGMAS, ROBUST_OVERLAPS)):
            return f"robustness.csv: rows {cells} are not one per (sigma, overlap)"
        for sigma in ROBUST_SIGMAS:
            flips = [flip for s, _, flip in sorted(rows, key=lambda r: r[1]) if s == sigma]
            if any(b > a for a, b in zip(flips, flips[1:])) or not 0 <= min(flips) <= max(flips) <= 1:
                return f"robustness.csv: flip fraction rises with overlap at sigma {sigma:g}: {flips}"
        return None


WORKLOADS = {w.name: w for w in (Mark4k, VerifyDb, EnrollFleet, Robustness512)}
