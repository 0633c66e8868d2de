"""The files ``hingesketch gen`` writes, pinned byte for byte.

Each case is one ``gen`` command at a small n and a fixed seed, written as a
CSV and as an HSTR stream; the pins are the sha256 of the CSV, of the HSTR
file and of the ``.meta.json`` sidecar (the same for both formats).  A change
to a generator's draws, to the writers or to the sidecar shows here.
"""

import hashlib
import json

import numpy as np
import pytest

from hingesketch import cli
from hingesketch.stream import ingest, make_records, write_stream

# case: (gen flags, (CSV, HSTR, .meta.json sha256))
PINS = {
    "uniform-d1-positive": (
        ["--kind", "uniform", "--n", "50", "--d", "1", "--seed", "3"],
        ("66cf06a4c09058cc001abb6894fd199f444133b32993ed7fb1e69b8772b6c01d",
         "653f4643e0d4b383ec3d9612733c5b2a03c777493d42513144871d248efd9902",
         "803b124df5eed49aa398bd7cdd698bf8ee46654eb843de8ad3d6e104f1edc287")),
    "uniform-d1-random": (
        ["--kind", "uniform", "--n", "50", "--d", "1", "--seed", "4", "--labels", "random"],
        ("1ebd45377e21e53c879b744ed040b6060f020a9e2ccd02c43569180a032c1346",
         "e6732d9b57379733f6e629f0be59afd1878e14052f0e106ec4fe8589c1045f42",
         "3f3584d905a496e324db142b9ad10490de3d7a145bd147530439d4b7a6df9e54")),
    "uniform-d2-positive": (
        ["--kind", "uniform", "--n", "50", "--d", "2", "--seed", "5"],
        ("4472f57291f469385efa0c59f75a3b8e20d8a2c31243c456b0e6749ee666d923",
         "af686b887420fb1a277ee17df4ff57a1dd97737ac782ac0b5eebf2bef08f6e26",
         "a40c4b53e6d56208f663a7e46a67ae98f55fa1f0b499b6993ed45c73ffc50f73")),
    "uniform-d2-random": (
        ["--kind", "uniform", "--n", "50", "--d", "2", "--seed", "6", "--labels", "random"],
        ("de2d79361405c45556bd88fa89aaa1ec69b28d7027b724926f15c4156051ed2d",
         "0af6b81a747b391d9600bd669c8baa1c7a849a5ae31e376b0bac45e2672ee59a",
         "c0a64e5f0eeab5a8ba13a6228248d68d924e3b02ba94713c4771c2ef39d437cd")),
    "clustered-d1": (
        ["--kind", "clustered", "--n", "50", "--d", "1", "--seed", "7", "--labels", "random"],
        ("7b202a81a7fd47d470ff94d24a9e28716c2e035675edf4b295fbc724dadf2ef7",
         "c433040faeb599f3cd3cc053a3664155a1010f17008308125028b2e3560fabc3",
         "e9d5763affba1e908ab49ef47c6a4e22702723307011cce1b13029b11ddd8dd7")),
    "clustered-d2": (
        ["--kind", "clustered", "--n", "50", "--d", "2", "--seed", "8"],
        ("9cc7b04fe7e828d57f076724012376947fc64cb012a37e517d05373050f95f19",
         "56c3dda320579b1fcbc397a1639a88634a4ac0a986e4b78756e27ebe37ee4992",
         "02b60753d1d3d6735a692b13afe0abf5fdd07b3cbe1f5977e0cca88f5d891f8b")),
    "index1d": (
        ["--kind", "index1d", "--bits", "1011", "--epsilon", "0.01", "--n", "100"],
        ("a858c094e73561561da2f086da7ed50876b5b69b460ddc82be1924e2f2bd9a20",
         "7baca712392a9bbf5abd13c151d1a5b409a0c06a75705417e91c376b05dcf18f",
         "03a9564d9f5bba812307275d22b8eb4ac41b8bb7950ec09400fd7480b6441370")),
    "index2d": (
        ["--kind", "index2d", "--bits", "100000010001", "--s", "6", "--r", "2", "--n", "120"],
        ("c06cd6bc68b63e1924753429dd0146e3798e028b8bac4728656cde9aa0bc1d29",
         "9099798d1ead05891dcee270289165420183cd24b693da515eaaf71e070f1708",
         "b33a1d6e3dd88bdf1364887ef71346ac3339f913c31c262e39f5f3b7242d9863")),
    "opthard-d1-case0": (
        ["--kind", "opthard", "--n", "64", "--d", "1", "--delta", "0.125", "--case", "0",
         "--seed", "9"],
        ("e52ee24a4f1a27fa5f0c1e86a13403ddb21547a7cfd91a05283e72ce40369d3a",
         "82de5450a013733981904516eb79935b0d55d27dd3888920d4053b7c2d4a576b",
         "c73b48052af49e49a707601f205545aaf74074213baba9c7e50694ac21038a0b")),
    "opthard-d1-case1": (
        ["--kind", "opthard", "--n", "64", "--d", "1", "--delta", "0.125", "--case", "1",
         "--seed", "9"],
        ("ce6e35fd2a9184f60c36aca4c6f48d5a136b50cdd7a7cd1a7d137bc6dcf248cb",
         "e63c66ccf5f895dc31a01254e9015ce8f5bc312188ed9add69be1f5283a56250",
         "c9070f35a5c7c7a6c0f12d8965002fbf1a1570f4571399d394ac725c1a31de53")),
    "opthard-d2-case0": (
        ["--kind", "opthard", "--n", "100", "--d", "2", "--delta", "0.1", "--case", "0",
         "--seed", "10"],
        ("c94482b7704fd4a3efa01652582aae9589fc94d3df86f1b7b1dd40f4a1bd0783",
         "2690be22dafccfd600472f18ed3d65b2c016d4992256646f09ea63f42b0cab76",
         "d23ef9f17638480a20ab3340a630f808bdca367a80bc86eb05e014ccdd69fd47")),
    "opthard-d2-case1": (
        ["--kind", "opthard", "--n", "100", "--d", "2", "--delta", "0.1", "--case", "1",
         "--seed", "10"],
        ("a207dbbc76614bb53c16d69e578aeda0d46b98a8a2f3842df8583fedbff43885",
         "79611a07bfc3328ab5943e3871dc4e4cc10815e5f7e88636d20e4b9a7b015c96",
         "f20ded992954339ae85611f1c0b133457ced733ade29fbea7df0ab328daea242")),
    # empty d=2 streams: the HSTR file is its 8-byte header, of dimension 2
    "uniform-d2-empty": (
        ["--kind", "uniform", "--n", "0", "--d", "2"],
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "8ced4669b920e7f1941d365600720c72588bc1bc8e6b73adda3e6f63ab4ee403",
         "22bfe719f76daedbf4e6ae29f06ed5040ea8a1872b9670ecc0b14f891abc4709")),
    "index2d-no-set-bit": (
        ["--kind", "index2d", "--bits", "000"],
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "8ced4669b920e7f1941d365600720c72588bc1bc8e6b73adda3e6f63ab4ee403",
         "87f1a5c1db0d7b306b6806bea89493b989167eab51f7b4cee3c0c54067f91efd")),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gen(capsys, flags, fmt, out):
    code = cli.main(["gen", *flags, "--format", fmt, "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("case", PINS)
def test_gen_files_keep_their_bytes(tmp_path, capsys, case):
    flags, (csv_sha, hstr_sha, meta_sha) = PINS[case]
    csv, hstr = tmp_path / "s.csv", tmp_path / "s.hstr"
    gen(capsys, flags, "csv", csv)
    gen(capsys, flags, "bin", hstr)
    assert (sha256(csv), sha256(hstr)) == (csv_sha, hstr_sha)
    assert sha256(tmp_path / "s.csv.meta.json") == sha256(tmp_path / "s.hstr.meta.json") == meta_sha


@pytest.mark.parametrize("case", ["uniform-d2-empty", "index2d-no-set-bit"])
def test_empty_d2_stream_keeps_its_dimension(tmp_path, capsys, case):
    out = tmp_path / "s.hstr"
    assert gen(capsys, PINS[case][0], "bin", out)["points"] == 0
    assert out.read_bytes() == b"HSTR\x02\x00\x00\x00"
    records, errors = ingest(str(out), "bin")
    assert records["x"].shape == (0, 2) and not errors


@pytest.mark.parametrize("d", [1, 2, 3])
def test_write_stream_takes_the_dimension_from_the_records(tmp_path, d):
    out = tmp_path / "s.hstr"
    write_stream(make_records(np.empty(0), np.empty((0, d))), str(out), "bin")
    assert out.read_bytes() == b"HSTR" + d.to_bytes(4, "little")
