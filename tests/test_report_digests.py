"""Byte-identity of scan-separable reports.

With the manifest timestamp pinned, a scan report is a pure function of
its arguments. These digests pin the full JSON text of four reports, so a
change to the sampling, the row builder, the witness kernels or the JSON
emit that moves any value by one bit, or any byte of the layout, fails
here. They were recorded with numpy 2.4 and OpenBLAS on x86-64; a BLAS
whose SVD rounds differently moves the F_Q worst values and so the digest
of every report.
"""

import hashlib

import pytest

from bosewit.cli import main

TS = "2026-01-01T00:00:00+00:00"

DIGESTS = {
    "fixed-40": (
        ("--samples", "20", "--n", "40", "--seed", "3"),
        "2ff745354f31ec873681fb07a44fd53f8bf4eaf41fa4e06ce5d161a4a7bac090",
    ),
    "poisson-20": (
        ("--samples", "5", "--fluctuating", "poisson:20", "--seed", "3"),
        "4135990dc5443fe0cc8bcf658628c75e710ce6a72b3c5ea2bb87f707d1b3fbfe",
    ),
    "binomial-10": (
        ("--samples", "5", "--fluctuating", "binomial:10,0.5", "--seed", "3"),
        "c00f497dfed0d4ec8b164a87ea75943fc982072e5013e8e7e5b314d7026d224a",
    ),
    # 12 samples of 1000 components at N = 12 take three chunks
    "fixed-12-multichunk": (
        ("--samples", "12", "--n", "12", "--components", "1000", "--seed", "3"),
        "99d3d40eae5f4952dec5b9ec8cf70d77d18ea163d94b95f70484c1ad85082079",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_scan_report_is_byte_identical(name, capsys):
    arguments, digest = DIGESTS[name]
    code = main(["scan-separable", *arguments, "--timestamp", TS])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
