import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import spadmark
from spadmark import (AUTHENTIC, AcquisitionConfig, ChipParams, FeatureConfig, embed_lsb, enroll,
                      generate_watermark, golden_acquisition, load_enrollment,
                      load_enrollment_db, new_chip, psnr, read_pgm, save_enrollment,
                      save_watermark, write_pgm)
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


@pytest.mark.parametrize("dim, bound", [("2", "MIN_ARRAY_DIM 16"), ("8", "MIN_ARRAY_DIM 16"),
                                        ("1025", "MAX_ARRAY_DIM 1024")])
def test_chip_new_rejects_array_dim_out_of_bounds(tmp_path, capsys, dim, bound):
    # a side under 16 cannot answer every challenge address, so it could mark nothing
    db = tmp_path / "db"
    assert main(["--db-dir", str(db), "chip", "new", "tiny", "--seed", "1",
                 "--array-dim", dim]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("wm: error: array_dim must be an integer")
    assert bound in err[0] and not db.exists()


def _small_side_params(side: int) -> ChipParams:
    """ChipParams of a side under MIN_ARRAY_DIM, which ChipParams rejects:
    older versions made such chips, and their records may still sit in a
    database."""
    params = ChipParams()
    object.__setattr__(params, "array_dim", side)
    return params


def test_verify_never_names_a_small_side_record(tmp_path, capsys):
    # 20 records of side 4 beside one of side 64. A foreign image's payload,
    # read at side 4, can fall near one of them; a side-4 source cannot
    # answer the challenge, and verify exited 1 where 3 is due.
    db = tmp_path / "db"
    big = new_chip("big", 11)
    save_enrollment(enroll(big, golden_acquisition(big, 42)), db)
    for i in range(20):
        chip = new_chip(f"s4_{i}", 5000 + i, _small_side_params(4))
        save_enrollment(enroll(chip, golden_acquisition(chip, 300 + i)), db)
    codes = []
    for k in range(30):
        ghost = new_chip("ghost", 9000 + k)
        img = make_image(700 + k)
        wm = generate_watermark(img, enroll(ghost, golden_acquisition(ghost, 1)))
        path = write_pgm(embed_lsb(img, wm), tmp_path / f"foreign{k}.pgm")
        codes.append(main(["--db-dir", str(db), "verify", str(path),
                           "--out-dir", str(tmp_path / "out")]))
    assert codes == [3] * 30
    assert capsys.readouterr().err == ""


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


def test_verify_reads_each_map_side_from_the_records(tmp_path):
    # one database may mix map sides; each chip's marked image names that
    # chip with no size flag
    db = tmp_path / "db"
    for chip_id, side in (("small", "32"), ("large", "64")):
        assert main(["--db-dir", str(db), "chip", "new", chip_id, "--seed", side,
                     "--array-dim", side]) == 0
        assert main(["--db-dir", str(db), "chip", "enroll", chip_id]) == 0
    img_path = tmp_path / "scene.pgm"
    write_pgm(make_image(0), img_path)
    for chip_id in ("small", "large"):
        out = tmp_path / chip_id
        assert main(["--db-dir", str(db), "mark", str(img_path), "--chip", chip_id,
                     "--out-dir", str(out)]) == 0
        assert main(["--db-dir", str(db), "verify", str(out / "scene.marked.pgm"),
                     "--out-dir", str(out)]) == 0
        row = (out / "scene.marked.verify.csv").read_text().splitlines()[1].split(",")
        assert row[1] == "authentic" and row[4] == chip_id


def test_puf_dim_is_a_usage_error(tmp_path, capsys):
    # the map side is read from the records: the option is gone, and passing
    # it is reported in one line before anything is written
    db, marked, _ = _marked(tmp_path)
    capsys.readouterr()
    out = tmp_path / "verified"
    assert main(["--db-dir", str(db), "verify", str(marked), "--out-dir", str(out),
                 "--puf-dim", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["wm: error: unrecognized arguments: --puf-dim 64"]
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("corrupt, reason", [
    (lambda rec: {k: v for k, v in rec.items() if k != "fingerprint"},
     "missing field 'fingerprint'"),
    (lambda rec: {**rec, "acquisition": {**rec["acquisition"], "gain": 2.0}},
     "field 'acquisition'"),
    (lambda rec: [rec], "expected a JSON object"),
    (lambda rec: b"{not json", "invalid JSON"),
    # these files are compact JSON, not save_enrollment's layout, so the
    # load parses them: map fields are checked although no image matches them
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


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    write_pgm(make_image(0), tmp_path / "scene.pgm")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(blocks[0].split("```")[0], namespace)
    assert namespace["report"].verdict == AUTHENTIC
    assert namespace["report"].fingerprint_best_match[0] == "cam-a"


def test_readme_names_only_wm_options():
    # every --long-flag the README names, outside its pip command lines, is
    # an option of wm or of one of its subcommands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = {flag for line in readme.splitlines() if not line.startswith("pip ")
             for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)}
    options, parsers = set(), [build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert {"--db-dir", "--overlap", "--grid-dim"} <= named
    assert named - options == set()


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


def _marked(tmp_path):
    """A database of three chips and an image marked with chip1."""
    db = _setup_db(tmp_path)
    img_path = tmp_path / "scene.pgm"
    write_pgm(make_image(0), img_path)
    out = tmp_path / "out"
    assert main(["--db-dir", str(db), "mark", str(img_path), "--chip", "chip1",
                 "--out-dir", str(out)]) == 0
    return db, out / "scene.marked.pgm", out


def _verified(db, marked, out):
    """verify's exit code and the bytes of its CSV and tamper bitmap."""
    code = main(["--db-dir", str(db), "verify", str(marked), "--out-dir", str(out)])
    return (code, (out / f"{marked.stem}.verify.csv").read_bytes(),
            (out / f"{marked.stem}.tamper.pgm").read_bytes())


def _npy_bytes(table) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, table)
    return buffer.getvalue()


def _old_index(db) -> bytes:
    """The .enroll-index an older version kept: the sorted SHA-256 digests
    of the record files."""
    return b"".join(sorted(hashlib.sha256(path.read_bytes()).digest()
                           for path in db.glob("*.enroll.json")))


@pytest.mark.parametrize("leftover", [
    lambda db: b"\x93NUMPY\x01\x00" + bytes(range(256)) * 4,
    lambda db: _old_index(db)[:50],
    lambda db: _npy_bytes(np.arange(6)),
    _old_index,
], ids=["garbage", "truncated", "other-layout", "digests"])
def test_verify_gives_the_same_verdict_whatever_the_index(tmp_path, leftover):
    # index files an older version left in --db-dir are never read
    db, marked, out = _marked(tmp_path)
    expected = _verified(db, marked, out)
    assert expected[0] == 0
    data = leftover(db)
    for name in (".enroll-index", ".enroll-index.npy"):
        (db / name).write_bytes(data)
    assert _verified(db, marked, out) == expected
    for name in (".enroll-index", ".enroll-index.npy"):
        assert (db / name).read_bytes() == data


def test_verify_writes_nothing_into_the_db_dir(tmp_path):
    # unlike test_verify_read_only_db_dir, this runs as root too
    db, marked, out = _marked(tmp_path)
    before = {path.name: path.read_bytes() for path in db.iterdir()}
    doctored = read_pgm(marked)
    doctored[300:330, 100:130] ^= 0x40
    write_pgm(doctored, out / "doctored.pgm")
    assert _verified(db, marked, out)[0] == 0
    assert _verified(db, out / "doctored.pgm", out)[0] == 2
    assert {path.name: path.read_bytes() for path in db.iterdir()} == before


def _non_hex_rdcm_v(text: str) -> str:
    at = text.index('"rdcm_v": "') + 11
    return text[:at] + "zz" + text[at + 2:]


def _flipped_fingerprint(text: str) -> str:
    """A record's text with the first hex digit of its fingerprint flipped:
    the fingerprint is then not rdcm_h XOR rdcm_v."""
    at = text.index('"fingerprint": "') + 16
    return text[:at] + "%x" % (int(text[at], 16) ^ 8) + text[at + 1:]


def _acquisition_edit(key: str, value: str):
    """Replace the default ``key`` of a golden record's acquisition with ``value``."""
    default = json.dumps(getattr(AcquisitionConfig, key))
    return lambda text: text.replace(f'"{key}": {default},', f'"{key}": {value},', 1)


@pytest.mark.parametrize("field, edit", [
    ("rdcm_v", _non_hex_rdcm_v),
    ("acquisition", _acquisition_edit("exposure", "-1")),
    ("acquisition", _acquisition_edit("n_frames", "2.5")),
    ("acquisition", _acquisition_edit("n_frames", "true")),
    ("fingerprint", _flipped_fingerprint),
], ids=["non-hex-rdcm_v", "negative-exposure", "fractional-n_frames", "bool-n_frames",
        "fingerprint-not-xor"])
def test_malformed_record_fails_only_its_own_chip(tmp_path, capsys, field, edit):
    # a record in save_enrollment's layout gives its row from its own lines;
    # a bad map or acquisition fails the verify that reads its maps only
    db = _setup_db(tmp_path, n_chips=2)
    write_pgm(make_image(0), tmp_path / "scene.pgm")
    marked = {}
    for chip in ("chip1", "chip2"):
        out = tmp_path / chip
        assert main(["--db-dir", str(db), "mark", str(tmp_path / "scene.pgm"), "--chip", chip,
                     "--out-dir", str(out)]) == 0
        marked[chip] = out / "scene.marked.pgm"
    bad = db / "chip2.enroll.json"
    text = bad.read_text()
    assert edit(text) != text
    bad.write_text(edit(text))
    assert main(["--db-dir", str(db), "verify", str(marked["chip1"])]) == 0
    capsys.readouterr()
    assert main(["--db-dir", str(db), "verify", str(marked["chip2"])]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"wm: error: {bad}: field {field!r}: ")


def test_compact_record_with_a_wrong_fingerprint_fails_at_load(tmp_path, capsys):
    # a record not in save_enrollment's layout is parsed at every load, so
    # its fingerprint is checked there, and any command that reads it fails
    db = _setup_db(tmp_path, n_chips=2)
    bad = db / "chip2.enroll.json"
    bad.write_text(json.dumps(json.loads(_flipped_fingerprint(bad.read_text())),
                              separators=(",", ":")))
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: field 'fingerprint': "):
        load_enrollment_db(db)
    write_pgm(make_image(0), tmp_path / "scene.pgm")
    capsys.readouterr()
    assert main(["--db-dir", str(db), "mark", str(tmp_path / "scene.pgm"), "--chip", "chip2",
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"wm: error: {bad}: field 'fingerprint': ")
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_verify_reports_a_fifo_record(tmp_path):
    # a FIFO with no writer reads as empty, not forever
    db = _setup_db(tmp_path, n_chips=1)
    write_pgm(make_image(0), tmp_path / "scene.pgm")
    assert main(["--db-dir", str(db), "mark", str(tmp_path / "scene.pgm"), "--chip", "chip1",
                 "--out-dir", str(tmp_path)]) == 0
    fifo = db / "x.enroll.json"
    os.mkfifo(fifo)
    env = dict(os.environ, PYTHONPATH=str(Path(spadmark.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spadmark.cli", "--db-dir", str(db),
                           "verify", str(tmp_path / "scene.marked.pgm")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(f"wm: error: {fifo}: invalid JSON: ")


@pytest.mark.parametrize("command", [
    ["mark", "scene.pgm", "--out-dir", "out"],
    ["experiment", "tamper", "--images", "scene.pgm", "--out-dir", "out"],
    ["experiment", "robustness", "--image", "scene.pgm", "--out-dir", "out"],
], ids=["mark", "tamper", "robustness"])
def test_chip_record_must_enroll_that_chip(tmp_path, monkeypatch, capsys, command):
    # a copied record of chip2 named for chip1 would mark with chip2's maps
    db = _setup_db(tmp_path, n_chips=2)
    shutil.copyfile(db / "chip2.enroll.json", db / "chip1.enroll.json")
    monkeypatch.chdir(tmp_path)
    write_pgm(make_image(0), tmp_path / "scene.pgm")
    capsys.readouterr()
    assert main(["--db-dir", str(db), *command, "--chip", "chip1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"wm: error: {db / 'chip1.enroll.json'} enrolls chip_id 'chip2', "
                   f"not --chip 'chip1'"]
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes into read-only directories")
def test_verify_read_only_db_dir(tmp_path):
    db, marked, out = _marked(tmp_path)
    writable = tmp_path / "writable"
    shutil.copytree(db, writable)
    expected = _verified(writable, marked, out)
    names = sorted(os.listdir(db))
    db.chmod(0o555)
    try:
        assert [_verified(db, marked, out) for _ in range(2)] == [expected] * 2
        assert sorted(os.listdir(db)) == names
    finally:
        db.chmod(0o755)


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


def test_chip_enroll_rejects_negative_seed(tmp_path, capsys):
    db = _setup_db(tmp_path, n_chips=1, enroll_chips=False)
    capsys.readouterr()
    assert main(["--db-dir", str(db), "chip", "enroll", "chip1", "--seed", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["wm: error: rng_seed must be a non-negative integer, got -1"]
    assert not (db / "chip1.enroll.json").exists()


@pytest.mark.parametrize("chip_id", ["a/b", "../escape", "", ".", ".."])
@pytest.mark.parametrize("command", ["new", "enroll", "mark"])
def test_chip_id_must_be_a_plain_file_name(tmp_path, capsys, command, chip_id):
    # such an id would name a file that is hidden, outside the db dir, or in
    # a subdirectory that no load lists
    img_path = tmp_path / "scene.pgm"
    write_pgm(make_image(0), img_path)
    argv = {"new": ["chip", "new", chip_id, "--seed", "1"],
            "enroll": ["chip", "enroll", chip_id],
            "mark": ["mark", str(img_path), "--chip", chip_id]}[command]
    before = sorted(tmp_path.rglob("*"))
    assert main(["--db-dir", str(tmp_path / "db"), *argv]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"wm: error: chip id {chip_id!r} is not a plain file name"]
    assert sorted(tmp_path.rglob("*")) == before


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


@pytest.mark.parametrize("command", ["mark", "verify"])
def test_response_map_is_a_usage_error(tmp_path, capsys, command):
    # the option is gone: passing it is an unrecognized argument, reported
    # in one line before any file is read or written
    db = _setup_db(tmp_path, n_chips=1)
    img_path = tmp_path / "scene.pgm"
    write_pgm(make_image(0), img_path)
    if command == "mark":
        argv, value = ["mark", str(img_path), "--chip", "chip1"], "h"
    else:
        assert main(["--db-dir", str(db), "mark", str(img_path), "--chip", "chip1",
                     "--out-dir", str(tmp_path / "marked")]) == 0
        argv, value = ["verify", str(tmp_path / "marked" / "scene.marked.pgm")], "both"
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["--db-dir", str(db), *argv, "--out-dir", str(out),
                 "--response-map", value]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"wm: error: unrecognized arguments: --response-map {value}"]
    assert captured.out == ""
    assert not out.exists()


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
    wide = (tmp_path / "wide" / "scene.wm.txt").read_text()
    plain = (tmp_path / "plain" / "scene.wm.txt").read_text()
    expected = tmp_path / "expected.wm.txt"
    assert wide == save_watermark(generate_watermark(img, record, FeatureConfig(overlap=6)),
                                  expected).read_text()
    assert plain == save_watermark(generate_watermark(img, record), expected).read_text()
    assert wide != plain


# SHA-256 of every file the workspace below holds after its commands ran.
GOLDEN_SHA256 = {
    "db/chip1.chip.json":
        "00e06369928d5afde85bad9a94680a165b50898e24c8d149932c5fa3c1ef5f2e",
    "db/chip1.enroll.json":
        "15a1c8d5e040fcf1b8f7401a26bd9dafb2f920299ae60c62222c1d6d893873ee",
    "db/chip2.chip.json":
        "2194b8642a24ed620e66e7e1f60650f3246e5330481a20c8359c8f9d8f51506a",
    "db/chip2.enroll.json":
        "d14aeba3fdd1fcbbf67dbcbfa9719ed23b0706ef5249fec439bfb5cbe0c6f3df",
    "db/chip3.chip.json":
        "a109ae198f91df47f9d07511d18de4d7a1574bd1089b621c3b09f1e6ca3754d7",
    "db/chip3.enroll.json":
        "c26e779a1e35bdf1a2424361a95ba72635097a67ace54af5479dd7a582d993aa",
    "exp/robustness.csv":
        "ea7cb479be9d172d6b8a330604e27ea9322ec7e4e60c96b3f27e83f5d6018710",
    "exp/scene0.edited.pgm":
        "fa36bab4cfc55f13281294544903531b02168dd0cec0c6112d0d11c554bb2941",
    "exp/scene0.wmdiff.pgm":
        "217628d149ec816cf6d838f75b0fb0edb9d9f00b18b1a371b5bf9c346e5a7581",
    "exp/source_id.csv":
        "cc30e2fc65e508de01a1247e6d27871fab4a23f36a7b3b46a949c7a54b21cbf1",
    "exp/tamper.csv":
        "3a002e7adfe64408f5cffc5707fd6a7bdb081105fccb92a505ffb54f389b3c53",
    "exp/wm_chip1_scene0.pgm":
        "7557e7e372813b8c73652248565317bdf99bd71979c10781dd562ed18c87064e",
    "exp/wm_chip1_scene1.pgm":
        "b88b2ca6eedc33d749928b92b4db71ba1ee74a2c37fb6c735733ad6a87b9078e",
    "exp/wm_chip1_scene2.pgm":
        "e31151eb85ba40e7645dd4af7ab381d6cc662b85873c95970153b50b069a3fc9",
    "exp/wm_chip2_scene0.pgm":
        "531272ab95ff7d64ab82e830ebb50306eba2d1cea1e1e31b36948234157d8d5d",
    "exp/wm_chip2_scene1.pgm":
        "5a011e85e84d17010254d1e90e77628da2c7de3d96e9ed417f0658b83a68437a",
    "exp/wm_chip2_scene2.pgm":
        "2afff8413425d12c54cfb4428f92f694ad68f23e3b03c70ea039a96c6a040128",
    "exp/wm_chip3_scene0.pgm":
        "8d3620747ccf5526e0900a05146465b78f9244f6e21dfb28f2ed494f218af44e",
    "exp/wm_chip3_scene1.pgm":
        "f9347b69a568e22ce62bfc74e81b1d7f2682b3957153d7cac0bac9dc493d5dc0",
    "exp/wm_chip3_scene2.pgm":
        "d8151aa1662529d1adb4688cfab5faa154d6564dec9949f56df93bd3ca2b2590",
    "out/doctored.pgm":
        "addfc858a99e7a0048e046c0b49554fd051bea37e9ab34e2232a8d86b840ba46",
    "out/doctored.tamper.pgm":
        "3cc0714d4006958b532efb2f39be9e95fb3de8c7bd94d368c2e88be70969bf92",
    "out/doctored.verify.csv":
        "8945705239b15647b26d3d244a572522d9a3385d8325d937412c7b70da185111",
    "out/scene0.marked.pgm":
        "40914b547b9bf69e8863e489e867fda8d3f98376f4a5060618627cbd176edbbd",
    "out/scene0.marked.tamper.pgm":
        "3db2fca03e6a810872bd3b10250e830fadbf388db957b79ee41ae59f003392a9",
    "out/scene0.marked.verify.csv":
        "f2e84a0bdcb0c55bef176ae6beea257ac484d25a44bd453c2c438d55d04165dc",
    "out/scene0.wm.txt":
        "8804338a342722d24b5aa37e056d95a761de2f25ed859e6523f596db068b4e50",
    "out6/scene0.marked.pgm":
        "58729a52c0e66648f444cde111863b014b6307b753438b53ea177cf55d62c225",
    "out6/scene0.marked.tamper.pgm":
        "3db2fca03e6a810872bd3b10250e830fadbf388db957b79ee41ae59f003392a9",
    "out6/scene0.marked.verify.csv":
        "cacda951587ec4475e4a35a80471e53749ad6f77826cc2b0d30fd3dfe626c8d6",
    "out6/scene0.wm.txt":
        "0d058e8d582d8838b1f5c98e4d601a07a120a508db3c2da955426022cbf0f80e",
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


def test_experiment_source_id_rejects_mixed_map_sides(tmp_path, capsys):
    # watermarks of two sides differ in length and cannot be compared
    db = _setup_db(tmp_path)
    assert main(["--db-dir", str(db), "chip", "new", "small", "--seed", "9",
                 "--array-dim", "32"]) == 0
    assert main(["--db-dir", str(db), "chip", "enroll", "small"]) == 0
    img = tmp_path / "img.pgm"
    write_pgm(make_image(0), img)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["--db-dir", str(db), "experiment", "source-id",
                 "--images", str(img), str(img), str(img), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "wm: error: source-id experiment needs one map side, found [32, 64]"]
    assert not out.exists()


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


@pytest.mark.parametrize("flags, message", [
    (["--delta", "3000000000"], "--delta must be in [-255, 255], got 3000000000"),
    (["--delta", "-256"], "--delta must be in [-255, 255], got -256"),
    (["--patch-row", "-100"], "--patch-row must be >= 0, got -100"),
    (["--patch-col", "-1"], "--patch-col must be >= 0, got -1"),
    (["--patch-size", "-4"], "--patch-size must be >= 1, got -4"),
    (["--patch-size", "0"], "--patch-size must be >= 1, got 0"),
    (["--patch-row", "240", "--patch-size", "32"],
     "small.pgm: a 32x32 patch at row 240, column 128 does not fit the 256x256 image"),
    (["--patch-size", "129"],
     "small.pgm: a 129x129 patch at row 128, column 128 does not fit the 256x256 image"),
    (["--grid-dim", "512"], "image 256x256 not divisible into a 512x512 grid"),
], ids=["huge-delta", "delta-below-range", "negative-row", "negative-col", "negative-size",
        "zero-size", "row-past-edge", "centred-too-large", "grid-of-later-image"])
def test_experiment_tamper_rejects_numbers_it_cannot_honour(tmp_path, capsys, flags, message):
    # every image is checked before anything is written: here the second
    # image is the one a patch does not fit
    db = _setup_db(tmp_path, n_chips=1)
    write_pgm(make_image(0), tmp_path / "scene.pgm")
    write_pgm(make_image(1, size=256), tmp_path / "small.pgm")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["--db-dir", str(db), "experiment", "tamper", "--chip", "chip1",
                 "--images", str(tmp_path / "scene.pgm"), str(tmp_path / "small.pgm"),
                 *flags, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("wm: error: ") and err[0].endswith(message)
    assert not out.exists()


def test_experiment_tamper_patch_at_the_edge(tmp_path):
    # the largest row and column that fit: the patch ends at the last pixel
    db = _setup_db(tmp_path, n_chips=1)
    write_pgm(make_image(0), tmp_path / "scene.pgm")
    out = tmp_path / "out"
    assert main(["--db-dir", str(db), "experiment", "tamper", "--chip", "chip1",
                 "--images", str(tmp_path / "scene.pgm"), "--patch-size", "32",
                 "--patch-row", "480", "--patch-col", "480", "--delta", "-255",
                 "--out-dir", str(out)]) == 0
    assert (out / "tamper.csv").read_text().splitlines()[1].startswith("scene,480,480,32,-255,")
    edited = read_pgm(out / "scene.edited.pgm")
    changed = np.argwhere(edited != make_image(0))
    assert changed.min(axis=0).tolist() >= [480, 480] and changed.max(axis=0).tolist() == [511, 511]


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


# --- every argv gets an exit code and at most a one-line reason ---------------

_EXTREMES = ("0", "-1", str(2 ** 31), str(2 ** 63), str(10 ** 20), "nan", "inf", "1e308")
_FEATURE_FLAGS = {"--overlap": ("6", "12.5"), "--grid-dim": ("32", "64")}
# Each subcommand's fixed arguments (".pgm" names are fixture files), and
# each numeric flag with ordinary values of it.
_NUMERIC_FLAGS = {
    ("chip", "new", "c9"): {
        "--seed": ("7",), "--array-dim": ("16", "32"), "--dcr-median": ("100",),
        "--dcr-sigma": ("0.5",), "--doubling-temp": ("8",), "--doubling-temp-jitter": ("0.2",),
        "--ref-temp": ("25",)},
    ("chip", "enroll", "chip1"): {
        "--temperature": ("25", "80"), "--exposure": ("0.4",), "--frames": ("1", "100"),
        "--seed": ("42",)},
    ("mark", "scene.pgm", "--chip", "chip1"): _FEATURE_FLAGS,
    ("verify", "marked.pgm"): {
        "--tau-fingerprint": ("0.25",), "--tau-challenge": ("0.01",), "--tau-response": ("0.05",),
        **_FEATURE_FLAGS},
    ("experiment", "source-id", "--images", "scene.pgm", "marked.pgm", "scene.pgm"):
        _FEATURE_FLAGS,
    ("experiment", "tamper", "--chip", "chip1", "--images", "scene.pgm"): {
        "--patch-size": ("8", "48"), "--patch-row": ("0", "200"), "--patch-col": ("0", "200"),
        "--delta": ("32", "-255"), **_FEATURE_FLAGS},
    ("experiment", "robustness", "--chip", "chip1", "--image", "scene.pgm"): {
        "--sigmas": ("6", "0,18"), "--overlaps": ("0,6",), "--noise-seeds": ("101",),
        "--grid-dim": ("32", "64")},
}


@pytest.fixture(scope="module")
def argv_workspace(tmp_path_factory):
    """Three enrolled chips, a 256^2 scene and the scene marked by chip1."""
    base = tmp_path_factory.mktemp("argv")
    db = base / "db"
    for i in (1, 2, 3):
        chip = new_chip(f"chip{i}", i)
        save_enrollment(enroll(chip, golden_acquisition(chip, 100 + i)), db)
    img = make_image(0, size=256)
    write_pgm(img, base / "scene.pgm")
    wm = generate_watermark(img, load_enrollment(db / "chip1.enroll.json"))
    write_pgm(embed_lsb(img, wm), base / "marked.pgm")
    return base


@pytest.mark.parametrize("command", list(_NUMERIC_FLAGS), ids=lambda command: " ".join(
    arg for arg in command[:2] if not arg.endswith(".pgm")))
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_numeric_argv_gets_an_exit_code(argv_workspace, command, data):
    # no exception escapes main, and an error is one line: each numeric flag
    # is left out, ordinary, or one of the extreme values
    flags = data.draw(st.fixed_dictionaries({}, optional={
        flag: st.sampled_from(_EXTREMES) | st.sampled_from(ordinary)
        for flag, ordinary in _NUMERIC_FLAGS[command].items()}))
    with tempfile.TemporaryDirectory(dir=argv_workspace) as work:
        db = shutil.copytree(argv_workspace / "db", Path(work) / "db")
        argv = ["--db-dir", str(db),
                *(str(argv_workspace / arg) if arg.endswith(".pgm") else arg for arg in command),
                *(f"{flag}={value}" for flag, value in flags.items())]
        if command[0] != "chip":
            argv += ["--out-dir", str(Path(work) / "out")]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
    err = stderr.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert len(err) == 1 and err[0].startswith("wm: error: ")
    else:
        assert err == []
