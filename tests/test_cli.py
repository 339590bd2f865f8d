import hashlib
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import spadmark
from spadmark import (FeatureConfig, embed_lsb, generate_watermark, load_enrollment,
                      load_watermark, psnr, read_pgm, write_pgm)
from spadmark.cli import build_parser, main
from conftest import make_image, traced_peak_bytes


def _setup_db(tmp_path, n_chips=3, enroll_chips=True):
    db = tmp_path / "db"
    for seed in range(1, n_chips + 1):
        assert main(["--db-dir", str(db), "chip", "new", f"chip{seed}",
                     "--seed", str(seed)]) == 0
        if enroll_chips:
            assert main(["--db-dir", str(db), "chip", "enroll", f"chip{seed}",
                         "--seed", str(100 + seed)]) == 0
    return db


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_chip_new_writes_record(tmp_path):
    db = tmp_path / "db"
    assert main(["--db-dir", str(db), "chip", "new", "alpha", "--seed", "7"]) == 0
    payload = json.loads((db / "alpha.chip.json").read_text())
    assert payload["seed"] == 7
    assert payload["params"]["array_dim"] == 64


def test_chip_new_duplicate_fails(tmp_path):
    db = _setup_db(tmp_path, n_chips=1, enroll_chips=False)
    assert main(["--db-dir", str(db), "chip", "new", "chip1", "--seed", "9"]) == 1


def test_chip_new_invalid_params(tmp_path):
    db = tmp_path / "db"
    assert main(["--db-dir", str(db), "chip", "new", "bad", "--seed", "1",
                 "--dcr-median", "-5"]) == 1


def test_enroll_requires_chip(tmp_path):
    db = tmp_path / "db"
    assert main(["--db-dir", str(db), "chip", "enroll", "nope"]) == 1


def test_enroll_writes_hex_blocks(tmp_path):
    db = _setup_db(tmp_path, n_chips=1)
    payload = json.loads((db / "chip1.enroll.json").read_text())
    for key in ("rdcm_h", "rdcm_v", "fingerprint"):
        assert len(payload[key]) == 64 * 64 // 4        # 4096 bits in hex
    assert payload["acquisition"]["n_frames"] == 100


def test_enroll_temperature_drift(tmp_path):
    db = _setup_db(tmp_path, n_chips=1)
    cold = json.loads((db / "chip1.enroll.json").read_text())
    assert main(["--db-dir", str(db), "chip", "enroll", "chip1",
                 "--temperature", "60", "--seed", "202"]) == 0
    warm = json.loads((db / "chip1.enroll.json").read_text())
    a = np.unpackbits(np.frombuffer(bytes.fromhex(cold["rdcm_h"]), dtype=np.uint8))
    b = np.unpackbits(np.frombuffer(bytes.fromhex(warm["rdcm_h"]), dtype=np.uint8))
    assert np.mean(a != b) <= 0.02


def test_mark_and_verify_authentic(tmp_path):
    db = _setup_db(tmp_path)
    img_path = tmp_path / "scene.pgm"
    write_pgm(make_image(0), img_path)
    out = tmp_path / "out"
    assert main(["--db-dir", str(db), "mark", str(img_path), "--chip", "chip1",
                 "--out-dir", str(out)]) == 0
    marked_path = out / "scene.marked.pgm"
    assert marked_path.exists() and (out / "scene.wm.txt").exists()

    host = read_pgm(img_path)
    marked = read_pgm(marked_path)
    mse = np.mean((host.astype(float) - marked.astype(float)) ** 2)
    assert 10 * np.log10(255 ** 2 / mse) >= 55.77

    assert main(["--db-dir", str(db), "verify", str(marked_path),
                 "--out-dir", str(out)]) == 0
    row = (out / "scene.marked.verify.csv").read_text().splitlines()[1].split(",")
    assert row[1] == "authentic"
    assert float(row[2]) == 1.0 and float(row[3]) == 1.0
    assert row[4] == "chip1"


def test_verify_needs_no_chip_ground_truth(tmp_path):
    # verification must work from enrollment records alone
    db = _setup_db(tmp_path)
    img_path = tmp_path / "scene.pgm"
    write_pgm(make_image(1), img_path)
    out = tmp_path / "out"
    assert main(["--db-dir", str(db), "mark", str(img_path), "--chip", "chip2",
                 "--out-dir", str(out)]) == 0
    for chip_file in db.glob("*.chip.json"):
        chip_file.unlink()
    assert main(["--db-dir", str(db), "verify", str(out / "scene.marked.pgm"),
                 "--out-dir", str(out)]) == 0


def test_verify_tampered_exit_code(tmp_path):
    db = _setup_db(tmp_path)
    img_path = tmp_path / "scene.pgm"
    write_pgm(make_image(0), img_path)
    out = tmp_path / "out"
    main(["--db-dir", str(db), "mark", str(img_path), "--chip", "chip1",
          "--out-dir", str(out)])
    marked = read_pgm(out / "scene.marked.pgm")
    patch = marked[300:330, 100:130].astype(np.int32)
    marked[300:330, 100:130] = np.clip(patch + 40, 0, 255).astype(np.uint8)
    tampered_path = tmp_path / "doctored.pgm"
    write_pgm(marked, tampered_path)
    assert main(["--db-dir", str(db), "verify", str(tampered_path),
                 "--out-dir", str(out)]) == 2
    tamper_map = read_pgm(out / "doctored.tamper.pgm")
    assert tamper_map.shape == (64, 64)
    assert tamper_map.any()


def test_verify_unknown_source_exit_code(tmp_path):
    db = _setup_db(tmp_path)
    foreign = tmp_path / "foreign"
    assert main(["--db-dir", str(foreign), "chip", "new", "ghost", "--seed", "99"]) == 0
    assert main(["--db-dir", str(foreign), "chip", "enroll", "ghost"]) == 0
    img_path = tmp_path / "scene.pgm"
    write_pgm(make_image(2), img_path)
    out = tmp_path / "out"
    assert main(["--db-dir", str(foreign), "mark", str(img_path), "--chip", "ghost",
                 "--out-dir", str(out)]) == 0
    assert main(["--db-dir", str(db), "verify", str(out / "scene.marked.pgm"),
                 "--out-dir", str(out)]) == 3


@pytest.mark.parametrize("corrupt, reason", [
    (lambda rec: {k: v for k, v in rec.items() if k != "fingerprint"},
     "missing field 'fingerprint'"),
    (lambda rec: {**rec, "acquisition": {**rec["acquisition"], "gain": 2.0}},
     "field 'acquisition'"),
    (lambda rec: [rec], "expected a JSON object"),
    (lambda rec: b"{not json", "invalid JSON"),
    # map fields are checked in full although the record is never matched
    (lambda rec: {**rec, "rdcm_v": rec["rdcm_v"][:-2]}, "field 'rdcm_v': hex string holds"),
    (lambda rec: {**rec, "rdcm_h": "zz" + rec["rdcm_h"][2:]}, "field 'rdcm_h': non-hexadecimal"),
])
def test_verify_reports_malformed_record(tmp_path, capsys, corrupt, reason):
    db = _setup_db(tmp_path, n_chips=1)
    img_path = tmp_path / "scene.pgm"
    write_pgm(make_image(0), img_path)
    out = tmp_path / "out"
    assert main(["--db-dir", str(db), "mark", str(img_path), "--chip", "chip1",
                 "--out-dir", str(out)]) == 0
    record = json.loads((db / "chip1.enroll.json").read_text())
    bad = db / "bad.enroll.json"
    payload = corrupt(record)
    bad.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    capsys.readouterr()
    assert main(["--db-dir", str(db), "verify", str(out / "scene.marked.pgm"),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert str(bad) in err[0] and reason in err[0]


@pytest.mark.parametrize("make_db_dir", [
    lambda tmp_path: tmp_path / "missing",
    lambda tmp_path: write_pgm(make_image(0, 16), tmp_path / "a-file"),
], ids=["missing", "file"])
def test_verify_reports_unreadable_db_dir(tmp_path, capsys, make_db_dir):
    # a mistyped --db-dir used to read as an empty database: exit 3, CSV written
    db = _setup_db(tmp_path, n_chips=1)
    img_path = tmp_path / "scene.pgm"
    write_pgm(make_image(0), img_path)
    out = tmp_path / "out"
    assert main(["--db-dir", str(db), "mark", str(img_path), "--chip", "chip1",
                 "--out-dir", str(out)]) == 0
    db_dir = make_db_dir(tmp_path)
    capsys.readouterr()
    assert main(["--db-dir", str(db_dir), "verify", str(out / "scene.marked.pgm"),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(db_dir) in err[0]
    assert not (out / "scene.marked.verify.csv").exists()


def test_module_entry_point_reports_one_line(tmp_path):
    # through run() and sys.exit, as the installed ``wm`` script runs
    (tmp_path / "db").mkdir()
    missing = tmp_path / "missing.pgm"
    env = dict(os.environ, PYTHONPATH=str(Path(spadmark.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spadmark.cli", "--db-dir", str(tmp_path / "db"),
                           "verify", str(missing)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and str(missing) in err[0]
    assert "Traceback" not in proc.stderr


def test_verify_empty_db_dir_is_unknown_source(tmp_path):
    db = _setup_db(tmp_path, n_chips=1)
    img_path = tmp_path / "scene.pgm"
    write_pgm(make_image(0), img_path)
    out = tmp_path / "out"
    assert main(["--db-dir", str(db), "mark", str(img_path), "--chip", "chip1",
                 "--out-dir", str(out)]) == 0
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["--db-dir", str(empty), "verify", str(out / "scene.marked.pgm"),
                 "--out-dir", str(out)]) == 3
    row = (out / "scene.marked.verify.csv").read_text().splitlines()[1].split(",")
    assert row[1] == "unknown-source" and row[4] == ""


def test_verify_rejects_duplicate_chip_id(tmp_path, capsys):
    # an edited record claiming another chip's id used to make verify
    # answer the challenge from the wrong chip's maps (exit 2, tampered)
    db = _setup_db(tmp_path, n_chips=2)
    img_path = tmp_path / "scene.pgm"
    write_pgm(make_image(0), img_path)
    out = tmp_path / "out"
    assert main(["--db-dir", str(db), "mark", str(img_path), "--chip", "chip2",
                 "--out-dir", str(out)]) == 0
    second = db / "chip2.enroll.json"
    second.write_text(second.read_text().replace('"chip_id": "chip2"', '"chip_id": "chip1"'))
    capsys.readouterr()
    assert main(["--db-dir", str(db), "verify", str(out / "scene.marked.pgm"),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert str(db / "chip1.enroll.json") in err[0] and str(second) in err[0]


@pytest.mark.parametrize("payload", [
    {},
    {"chip_id": "chip1", "seed": 1, "params": {"gain": 2.0}},
    {"chip_id": "chip1", "seed": 1, "params": None},
    # a seed must be a non-negative JSON integer: "7", 7.9 (once truncated
    # to 7, another chip than the file names) and true were accepted, and
    # -4 failed inside numpy without the file name
    {"chip_id": "chip1", "seed": "7", "params": {}},
    {"chip_id": "chip1", "seed": 7.9, "params": {}},
    {"chip_id": "chip1", "seed": True, "params": {}},
    {"chip_id": "chip1", "seed": -4, "params": {}},
])
def test_chip_enroll_reports_malformed_chip(tmp_path, capsys, payload):
    db = tmp_path / "db"
    db.mkdir()
    chip = db / "chip1.chip.json"
    chip.write_text(json.dumps(payload))
    assert main(["--db-dir", str(db), "chip", "enroll", "chip1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(chip) in err[0]
    if payload.get("params") == {}:   # valid params: the seed is at fault
        assert "'seed'" in err[0]


def test_chip_new_rejects_negative_seed(tmp_path, capsys):
    db = tmp_path / "db"
    assert main(["--db-dir", str(db), "chip", "new", "chip1", "--seed", "-3"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["wm: error: seed must be a non-negative integer, got -3"]
    assert not (db / "chip1.chip.json").exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--dcr-median", "nan", "dcr_median"),
    ("--dcr-sigma", "inf", "dcr_sigma"),
    ("--doubling-temp", "nan", "doubling_temp_mean"),
    ("--doubling-temp-jitter", "inf", "doubling_temp_jitter"),
    ("--ref-temp", "-inf", "ref_temp"),
])
def test_chip_new_rejects_non_finite_params(tmp_path, capsys, flag, value, field):
    # NaN was written to the chip file as a bare NaN token, which is not JSON
    db = tmp_path / "db"
    assert main(["--db-dir", str(db), "chip", "new", "c", "--seed", "3", f"{flag}={value}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"wm: error: {field} must be a finite number, got {float(value)!r}"]
    assert not (db / "c.chip.json").exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--exposure", "nan", "exposure"),
    ("--exposure", "inf", "exposure"),
    ("--temperature", "nan", "temperature"),
    ("--temperature", "-inf", "temperature"),
])
def test_chip_enroll_rejects_non_finite_acquisition(tmp_path, capsys, flag, value, field):
    # these reached numpy's Poisson draw, which said only "lam value too large"
    db = _setup_db(tmp_path, n_chips=1, enroll_chips=False)
    capsys.readouterr()
    assert main(["--db-dir", str(db), "chip", "enroll", "chip1", f"{flag}={value}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"wm: error: {field} must be a finite number, got {float(value)!r}"]
    assert not (db / "chip1.enroll.json").exists()


@pytest.mark.parametrize("flag,value,named", [
    ("--exposure", "1e30", "exposure 1e+30 s"),
    ("--temperature", "1e6", "temperature 1e+06 C"),
])
def test_chip_enroll_rejects_undrawable_mean(tmp_path, capsys, flag, value, named):
    # finite but too many counts: numpy's Poisson draw said only "lam value
    # too large", after an overflow RuntimeWarning for the temperature
    db = _setup_db(tmp_path, n_chips=1, enroll_chips=False)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--db-dir", str(db), "chip", "enroll", "chip1", f"{flag}={value}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("wm: error: ") and named in err[0]
    assert not (db / "chip1.enroll.json").exists()


def test_chip_enroll_zero_exposure_at_extreme_temperature(tmp_path, capsys):
    # an infinite rate times 0 s was NaN, and this exited 1 with "gives up
    # to nan dark counts"; a zero exposure draws nothing at any temperature
    db = tmp_path / "db"
    assert main(["--db-dir", str(db), "chip", "new", "c", "--seed", "3"]) == 0
    maps = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for temperature in ("25", "1e6"):
            assert main(["--db-dir", str(db), "chip", "enroll", "c",
                         "--temperature", temperature, "--exposure", "0"]) == 0
            record = json.loads((db / "c.enroll.json").read_text())
            maps[temperature] = [record[key] for key in ("rdcm_h", "rdcm_v", "fingerprint")]
        assert capsys.readouterr().err == ""
        assert maps["1e6"] == maps["25"] == ["0" * (64 * 64 // 4)] * 3
        assert main(["--db-dir", str(db), "chip", "enroll", "c",
                     "--temperature", "1e6", "--exposure", "0.1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "temperature 1e+06 C" in err[0] and "above the" in err[0]


@pytest.mark.parametrize("flag,value,named", [
    ("--dcr-sigma", "400", "dcr_sigma 400"),
    ("--dcr-median", "1e300", "dcr_median 1e+300"),
])
def test_chip_new_rejects_undrawable_rates(tmp_path, capsys, flag, value, named):
    # sigma 400 overflowed to infinite rates with two RuntimeWarnings and
    # exited 0; a median of 1e300 wrote a chip no enrollment could draw from
    db = tmp_path / "db"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--db-dir", str(db), "chip", "new", "c", "--seed", "3",
                     f"{flag}={value}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("wm: error: ") and named in err[0]
    assert not (db / "c.chip.json").exists()


def test_chip_enroll_rejects_non_finite_chip_file(tmp_path, capsys):
    db = tmp_path / "db"
    db.mkdir()
    chip = db / "chip1.chip.json"
    chip.write_text('{"chip_id": "chip1", "seed": 3, "params": {"dcr_median": NaN}}')
    assert main(["--db-dir", str(db), "chip", "enroll", "chip1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(chip) in err[0] and "dcr_median must be a finite number" in err[0]
    assert not (db / "chip1.enroll.json").exists()


def test_mark_capacity_and_io_errors(tmp_path):
    db = _setup_db(tmp_path, n_chips=1)
    small = tmp_path / "small.pgm"
    write_pgm(make_image(0, size=128), small)
    assert main(["--db-dir", str(db), "mark", str(small), "--chip", "chip1"]) == 1
    missing = tmp_path / "nothing.pgm"
    assert main(["--db-dir", str(db), "mark", str(missing), "--chip", "chip1"]) == 1
    garbage = tmp_path / "garbage.pgm"
    garbage.write_bytes(b"JFIF not a pgm")
    assert main(["--db-dir", str(db), "mark", str(garbage), "--chip", "chip1"]) == 1
    assert main(["--db-dir", str(db), "bogus-command"]) == 1


@pytest.mark.parametrize("out_dir", [None, "input", "other"])
def test_mark_leaves_input_unchanged(tmp_path, out_dir):
    # the host is marked in the buffer read_pgm returned, never in the file
    db = _setup_db(tmp_path, n_chips=1)
    img_path = write_pgm(make_image(0), tmp_path / "scene.pgm")
    raw = img_path.read_bytes()
    out = tmp_path / "out" if out_dir == "other" else tmp_path
    argv = ["--db-dir", str(db), "mark", str(img_path), "--chip", "chip1"]
    assert main(argv + ([] if out_dir is None else ["--out-dir", str(out)])) == 0
    assert img_path.read_bytes() == raw
    host = read_pgm(img_path)
    wm = generate_watermark(host, load_enrollment(db / "chip1.enroll.json"))
    assert np.array_equal(read_pgm(out / "scene.marked.pgm"), embed_lsb(host, wm))


def test_mark_makes_no_full_size_copy(tmp_path):
    db = _setup_db(tmp_path, n_chips=1)
    img_path = write_pgm(make_image(0, size=2048), tmp_path / "scene.pgm")
    argv = ["--db-dir", str(db), "mark", str(img_path), "--chip", "chip1"]
    # the one buffer read_pgm fills; the LSB-cleared copy for the
    # challenge and the marked copy each added a byte per pixel
    assert traced_peak_bytes(lambda: main(argv)) / 2048 ** 2 < 1.5


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_mark_from_pipe_matches_file(tmp_path):
    db = _setup_db(tmp_path, n_chips=1)
    raw = write_pgm(make_image(1), tmp_path / "scene.pgm").read_bytes()
    assert main(["--db-dir", str(db), "mark", str(tmp_path / "scene.pgm"), "--chip", "chip1",
                 "--out-dir", str(tmp_path / "from_file")]) == 0
    fifo = tmp_path / "pipe" / "scene.pgm"
    fifo.parent.mkdir()
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(raw,))
    writer.start()
    try:
        assert main(["--db-dir", str(db), "mark", str(fifo), "--chip", "chip1",
                     "--out-dir", str(tmp_path / "from_pipe")]) == 0
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    for name in ("scene.marked.pgm", "scene.wm.txt"):
        assert (tmp_path / "from_pipe" / name).read_bytes() == \
            (tmp_path / "from_file" / name).read_bytes()


def test_mark_prints_psnr_of_marked_host(tmp_path, capsys):
    # the PSNR is taken from the count of changed LSBs, not from the images
    db = _setup_db(tmp_path, n_chips=1)
    record = load_enrollment(db / "chip1.enroll.json")
    hosts = [make_image(0), make_image(2),
             np.random.default_rng(8).integers(0, 256, (512, 512), dtype=np.uint8),
             np.zeros((512, 512), dtype=np.uint8), np.full((256, 1024), 255, dtype=np.uint8)]
    for i, host in enumerate(hosts):
        path = write_pgm(host, tmp_path / f"host{i}.pgm")
        capsys.readouterr()
        assert main(["--db-dir", str(db), "mark", str(path), "--chip", "chip1"]) == 0
        marked = embed_lsb(host, generate_watermark(host, record))
        assert f"PSNR {psnr(host, marked):.2f} dB" in capsys.readouterr().out
    # a marked image already carries its own watermark
    capsys.readouterr()
    assert main(["--db-dir", str(db), "mark", str(tmp_path / "host0.marked.pgm"),
                 "--chip", "chip1"]) == 0
    assert "PSNR inf dB" in capsys.readouterr().out


def test_mark_rejects_nan_overlap(tmp_path, capsys):
    db = _setup_db(tmp_path, n_chips=1)
    img_path = tmp_path / "scene.pgm"
    write_pgm(make_image(0), img_path)
    capsys.readouterr()
    assert main(["--db-dir", str(db), "mark", str(img_path), "--chip", "chip1",
                 "--overlap", "nan"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["wm: error: overlap must be in [0, 32), got nan"]
    assert not (tmp_path / "scene.marked.pgm").exists()


@pytest.mark.parametrize("flag,value,reason", [
    ("--sigmas", "nan", "sigma must be a finite number >= 0, got nan"),
    ("--sigmas", "6,inf", "sigma must be a finite number >= 0, got inf"),
    ("--sigmas", "-1", "sigma must be a finite number >= 0, got -1.0"),
    ("--sigmas", ",", "need at least one noise sigma"),
    ("--overlaps", ",", "need at least one overlap"),
    ("--overlaps", "0,nan", "overlap must be in [0, 32), got nan"),
    ("--noise-seeds", ",", "need at least one noise seed"),
    ("--noise-seeds", "101,-1", "seed must be a non-negative integer, got -1"),
])
def test_experiment_robustness_rejects_bad_lists(tmp_path, capsys, flag, value, reason):
    db = _setup_db(tmp_path, n_chips=1)
    img_path = tmp_path / "img0.pgm"
    write_pgm(make_image(0), img_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["--db-dir", str(db), "experiment", "robustness", "--chip", "chip1",
                 "--image", str(img_path), f"{flag}={value}", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"wm: error: {reason}"]
    assert not (out / "robustness.csv").exists()


def test_experiment_robustness_huge_sigma_clips_without_warning(tmp_path, capsys):
    # sigma * z overflows to +-inf, which clips to 255 or 0: no RuntimeWarning
    db = _setup_db(tmp_path, n_chips=1)
    img_path = tmp_path / "img0.pgm"
    write_pgm(make_image(0), img_path)
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--db-dir", str(db), "experiment", "robustness", "--chip", "chip1",
                     "--image", str(img_path), "--sigmas", "1e308", "--overlaps", "0",
                     "--noise-seeds", "101", "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len((out / "robustness.csv").read_text().splitlines()) == 2


def test_consecutive_calls_parse_independently(tmp_path):
    # one parser serves every call; no flag of one call leaks into the next
    assert build_parser() is build_parser()
    db = _setup_db(tmp_path, n_chips=1)
    img = make_image(0)
    img_path = tmp_path / "scene.pgm"
    write_pgm(img, img_path)
    mark = ["--db-dir", str(db), "mark", str(img_path), "--chip", "chip1"]
    assert main(mark + ["--overlap", "6", "--out-dir", str(tmp_path / "wide")]) == 0
    assert main(mark + ["--out-dir", str(tmp_path / "plain")]) == 0
    record = load_enrollment(db / "chip1.enroll.json")
    wide = load_watermark(tmp_path / "wide" / "scene.wm.txt").bits
    plain = load_watermark(tmp_path / "plain" / "scene.wm.txt").bits
    assert np.array_equal(wide, generate_watermark(img, record, FeatureConfig(overlap=6)).bits)
    assert np.array_equal(plain, generate_watermark(img, record).bits)
    assert not np.array_equal(wide, plain)


# SHA-256 of every file the workspace below holds after its commands ran.
GOLDEN_SHA256 = {
    "db/chip1.chip.json":
        "00e06369928d5afde85bad9a94680a165b50898e24c8d149932c5fa3c1ef5f2e",
    "db/chip1.enroll.json":
        "1c092b7c52321ce7bf483270b9fbdc8ea0de41e79f8807a7a9d6ffe199506e02",
    "db/chip2.chip.json":
        "2194b8642a24ed620e66e7e1f60650f3246e5330481a20c8359c8f9d8f51506a",
    "db/chip2.enroll.json":
        "f988fd1243d34d680aef18ad40a2654863a81b7caec112f0e6bf6515fd354e35",
    "db/chip3.chip.json":
        "a109ae198f91df47f9d07511d18de4d7a1574bd1089b621c3b09f1e6ca3754d7",
    "db/chip3.enroll.json":
        "5017a1200e48fb21bbcfe53fe7303bf5144c58f7452ccd7607eb1e3b0520af84",
    "exp/robustness.csv":
        "ea7cb479be9d172d6b8a330604e27ea9322ec7e4e60c96b3f27e83f5d6018710",
    "exp/scene0.edited.pgm":
        "fa36bab4cfc55f13281294544903531b02168dd0cec0c6112d0d11c554bb2941",
    "exp/scene0.wmdiff.pgm":
        "217628d149ec816cf6d838f75b0fb0edb9d9f00b18b1a371b5bf9c346e5a7581",
    "exp/source_id.csv":
        "dc021edbdb17160f043c8cd88d1d35f7c119b35faede1d0ea807738af8c03463",
    "exp/tamper.csv":
        "3a002e7adfe64408f5cffc5707fd6a7bdb081105fccb92a505ffb54f389b3c53",
    "exp/wm_chip1_scene0.pgm":
        "8f1f6991252a4bfc9923146010e95921bdc26ed5cb25317638374e947d4685da",
    "exp/wm_chip1_scene1.pgm":
        "a9a7c39922043ee6ec2507de614bf7878f0de2e7e2127e16620d540f9b0b38c5",
    "exp/wm_chip1_scene2.pgm":
        "c1afd4c3010af0cbf1773efcdd89ba72769ecfaa3fa765f27bb04bd48d95209e",
    "exp/wm_chip2_scene0.pgm":
        "bb979d0d0cc2fa2a9db568805ce694b5afdf421620284824dc1d37709de95c78",
    "exp/wm_chip2_scene1.pgm":
        "cde3d9d4558bf79e11332dbebdefa765919951a363837509355b2859abcfbe35",
    "exp/wm_chip2_scene2.pgm":
        "1af7ac0076bdb6ccca2b4129ba7acf67df219d6df98a10eb7d994660d70a3503",
    "exp/wm_chip3_scene0.pgm":
        "9eb7f3f3cd33ca3e4413d7a0a38e30d890a1ead08de36603d03ed917b3a9ee51",
    "exp/wm_chip3_scene1.pgm":
        "a38b7f75d006b9d3a80f15ee56d00577b4c2bb2907b29b5d5097108913f5dcd2",
    "exp/wm_chip3_scene2.pgm":
        "710de88ee574b0d75e081570fc4eb4604e44b114f008406e32e4203ff2e8f383",
    "out/doctored.pgm":
        "592c7d3e4efa141606d43713a5d8c9c2a52e3b5e37907725dbdc72f33507b565",
    "out/doctored.tamper.pgm":
        "3cc0714d4006958b532efb2f39be9e95fb3de8c7bd94d368c2e88be70969bf92",
    "out/doctored.verify.csv":
        "8945705239b15647b26d3d244a572522d9a3385d8325d937412c7b70da185111",
    "out/scene0.marked.pgm":
        "20b59cbe51fdef4737b8b58f91a1d7eec3a48e4c77ff96916af50f26fab65c37",
    "out/scene0.marked.tamper.pgm":
        "3db2fca03e6a810872bd3b10250e830fadbf388db957b79ee41ae59f003392a9",
    "out/scene0.marked.verify.csv":
        "f2e84a0bdcb0c55bef176ae6beea257ac484d25a44bd453c2c438d55d04165dc",
    "out/scene0.wm.txt":
        "0b2ff03e84b53bdc3358b5ffb0c96602eecdd881e4792f483d6a10cd8279adf7",
    "out6/scene0.marked.pgm":
        "ba27b37f785972e40a56c947f085de4f42b92d784ebb8f1173792c5a1c638ea9",
    "out6/scene0.marked.tamper.pgm":
        "3db2fca03e6a810872bd3b10250e830fadbf388db957b79ee41ae59f003392a9",
    "out6/scene0.marked.verify.csv":
        "cacda951587ec4475e4a35a80471e53749ad6f77826cc2b0d30fd3dfe626c8d6",
    "out6/scene0.wm.txt":
        "adc0b7d90ec286fb7e398b292837a517360cd0b39c0f0267db6edc981947e6de",
    "scene0.pgm":
        "5b8cf6b0af62296e0dd12566cc78ef068735025b9fa032183fb3c055549fefc8",
    "scene1.pgm":
        "de11cb8f5beb5bb6b356de3ce1a2a08b5c7a08899cd8d79611b4ea104502dad7",
    "scene2.pgm":
        "e0010f74097a360e579a94d2997c94cd4bbac4decdc312f13628e602bee67b37",
}


def test_commands_are_byte_deterministic(tmp_path):
    db = tmp_path / "db"
    out = tmp_path / "out"
    out6 = tmp_path / "out6"
    exp = tmp_path / "exp"
    images = []
    for i in range(3):
        images.append(tmp_path / f"scene{i}.pgm")
        write_pgm(make_image(i), images[-1])
    scene = str(images[0])
    commands = []
    for seed in (1, 2, 3):
        commands += [
            (["chip", "new", f"chip{seed}", "--seed", str(seed)], 0),
            (["chip", "enroll", f"chip{seed}", "--seed", str(100 + seed)], 0),
        ]
    commands += [
        (["mark", scene, "--chip", "chip1", "--out-dir", str(out)], 0),
        (["verify", str(out / "scene0.marked.pgm"), "--out-dir", str(out)], 0),
        (["mark", scene, "--chip", "chip2", "--overlap", "6", "--out-dir", str(out6)], 0),
        (["verify", str(out6 / "scene0.marked.pgm"), "--overlap", "6",
          "--out-dir", str(out6)], 0),
    ]
    for argv, code in commands:
        assert main(["--db-dir", str(db), *argv]) == code, argv

    marked = read_pgm(out / "scene0.marked.pgm")
    patch = marked[300:330, 100:130].astype(np.int32)
    marked[300:330, 100:130] = np.clip(patch + 40, 0, 255).astype(np.uint8)
    write_pgm(marked, out / "doctored.pgm")
    commands = [
        (["verify", str(out / "doctored.pgm"), "--out-dir", str(out)], 2),
        (["experiment", "robustness", "--chip", "chip1", "--image", scene,
          "--sigmas", "6,18", "--overlaps", "0,6", "--noise-seeds", "101,102",
          "--out-dir", str(exp)], 0),
        (["experiment", "tamper", "--chip", "chip1", "--images", scene,
          "--patch-size", "32", "--out-dir", str(exp)], 0),
        (["experiment", "source-id", "--images", *map(str, images),
          "--out-dir", str(exp)], 0),
    ]
    for argv, code in commands:
        assert main(["--db-dir", str(db), *argv]) == code, argv

    digests = {str(p.relative_to(tmp_path)): _digest(p)
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert sorted(digests) == sorted(GOLDEN_SHA256)
    for name, digest in GOLDEN_SHA256.items():
        assert digests[name] == digest, name


def test_experiment_source_id(tmp_path):
    db = _setup_db(tmp_path)
    out = tmp_path / "out"
    paths = []
    for i in range(3):
        p = tmp_path / f"img{i}.pgm"
        write_pgm(make_image(i), p)
        paths.append(str(p))
    assert main(["--db-dir", str(db), "experiment", "source-id",
                 "--images", *paths, "--out-dir", str(out)]) == 0
    lines = (out / "source_id.csv").read_text().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.startswith("image_a,chip_a")
    assert len(rows) == 9 * 8 // 2
    same_image_pairs = 0
    for row in rows:
        image_a, chip_a, image_b, chip_b, total, c, r, f = row.split(",")
        if image_a == image_b and chip_a != chip_b:
            same_image_pairs += 1
            assert float(c) == 0.0
            assert float(total) > 0
    assert same_image_pairs == 9
    assert len(list(out.glob("wm_chip*_img*.pgm"))) == 9


def test_experiment_source_id_needs_three_chips(tmp_path):
    db = _setup_db(tmp_path, n_chips=2)
    img = tmp_path / "img.pgm"
    write_pgm(make_image(0), img)
    assert main(["--db-dir", str(db), "experiment", "source-id",
                 "--images", str(img), str(img), str(img),
                 "--out-dir", str(tmp_path / "out")]) == 1


def test_experiment_tamper(tmp_path):
    db = _setup_db(tmp_path, n_chips=1)
    out = tmp_path / "out"
    img_path = tmp_path / "img0.pgm"
    write_pgm(make_image(0), img_path)
    assert main(["--db-dir", str(db), "experiment", "tamper", "--chip", "chip1",
                 "--images", str(img_path), "--patch-size", "32",
                 "--patch-row", "256", "--patch-col", "256",
                 "--out-dir", str(out)]) == 0
    lines = (out / "tamper.csv").read_text().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    img_change, wm_change, s = float(row[5]), float(row[6]), float(row[7])
    assert img_change > 0 and wm_change > 0
    # fields are rounded to 6 decimals in the CSV
    assert s == pytest.approx(wm_change / img_change, rel=2e-3)
    assert (out / "img0.edited.pgm").exists()
    assert (out / "img0.wmdiff.pgm").exists()


def test_experiment_robustness_monotone(tmp_path):
    db = _setup_db(tmp_path, n_chips=1)
    out = tmp_path / "out"
    img_path = tmp_path / "img0.pgm"
    write_pgm(make_image(0), img_path)
    assert main(["--db-dir", str(db), "experiment", "robustness", "--chip", "chip1",
                 "--image", str(img_path), "--sigmas", "6,18,54",
                 "--overlaps", "0,6,12", "--noise-seeds", "101,102",
                 "--out-dir", str(out)]) == 0
    rows = (out / "robustness.csv").read_text().splitlines()[1:]
    table = {}
    for row in rows:
        sigma, overlap, flip = row.split(",")
        table[(float(sigma), float(overlap))] = float(flip)
    for sigma in (6.0, 18.0, 54.0):
        assert table[(sigma, 0.0)] >= table[(sigma, 6.0)] >= table[(sigma, 12.0)]
    for overlap in (0.0, 6.0, 12.0):
        assert table[(6.0, overlap)] <= table[(18.0, overlap)] <= table[(54.0, overlap)]
