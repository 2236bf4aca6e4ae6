"""Byte-identity of scan-separable and witness reports.

With the manifest timestamp pinned, a report is a pure function of its
arguments. These digests pin the full text of five scan reports, and of
the JSON and CSV witness reports of six pure states (three coherent ones,
held as components, and three basis states, held as rows) asking for
C_2m, eta^2 and xi^2, so a change to the sampling, the row builder, the state build,
the witness kernels or the emit that moves any value by one bit, or any
byte of the layout, fails here. fixed-200-one-component, the fifth scan
(recorded at 1 and 2 BLAS threads), holds 100 C_2m bounds, so it pins the
bound table's worst values, counts and payloads across many columns.

They were recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64, and give
the same bytes at 1, 2, 4 and 8 BLAS threads. Every F_Q of these scans
ends in the one F_Q kernel, witnesses._gram_forms, an eigh of a small Gram
matrix: the 4 x 4 closed-form Gram matrices of the four-component scans'
product components (K <= N + 1, so no amplitude row is built), and for the
1000-component chunks (K > N + 1, from complex amplitude rows) the 13 x 13
Gram matrices of the 13 rows that an eigh of each 13 x 13 density
compresses them to. (A thin SVD of those 1000 x 13 chunks, kept only as
the test reference oracles.qfi_forms_svd, gives a last-digit different F_Q
at one thread than at two or more.) CI runs this module under
OPENBLAS_NUM_THREADS=1 as well as at the default thread count. A
BLAS or LAPACK that rounds differently moves the F_Q worst values and so
the digest of every scan report; the witness reports here hold no F_Q.

eta^2 and xi^2 take Var J_z about its mean: the witness reports from one
centred pass over the rows (fock._spin_mean_covariance), the scans from
the closed form of separable._spin_moments, with the law of total
variance over components and sectors. When the digests were re-pinned
for that change, every moved witness value moved toward the exact one
(4z(1 - z) for eta^2 and 1 for xi^2 of the coherent states, 0 for eta^2
of the number states, where a difference of raw moments gave -4e-15 to
-6e-15), and the two moved scan worst values (poisson-20 and
fixed-12-multichunk, xi^2) kept their samples and moved by under 5e-16
relative.

Every scan takes C_2m from the closed form of its product components'
correlators (witnesses._product_correlators: sums of w z^2m, w (1 - z)^2m
and w z^m (1 - z)^m over the components, weighted by p_j (N_j)_2m / (N)_2m
over the sectors), with no population row. When the digests were re-pinned
for that change, fixed-40, poisson-20 and fixed-12-multichunk moved: 26
C_2m worst values, by at most 1.7e-14 relative, each on the same sample,
and 24 of them toward the exact rational value (the other two stayed
within 8e-16 of it). No violation or skip count moved, nor any F_Q or xi^2
value. binomial-10 kept its bytes, and the witness reports, which take C_2m
from the populations of their states, kept theirs.

The witness reports take C_2m from one loop over the ratio rows
(witnesses._population_integrals), whose one row block per order holds
the rows of c, a and b in that order, memoized or streamed alike. Until
then a lone sector of N <= 256 took its three sums from memoized rows in
the order a, b, c, and BLAS rounds a row's sum differently with its place
in the block, so coherent-50 (json and csv) was re-pinned for that
change: b moved by 1 ulp at both orders, csi:1 from 1.0000000000000002
to 0.9999999999999999 and csi:7 from 0.9999999999999983 to
0.9999999999999987, both toward the exact 1. The states of N > 256 took
the c, a, b order before as well, and kept their bytes.

A state file of a coherent kind is now held as its product components and
evaluated from the scans' closed forms (C_2m from
witnesses._product_correlators, eta^2 and xi^2 from the closed form of
separable._spin_moments, per sector), with no row, so the three coherent reports were
re-pinned once more, every moved value toward the exact one (C_2m = 1,
xi^2 = 1, eta^2 = 4 z (1 - z)): coherent-50 csi:1 from 1 - 1.1e-16 and
csi:7 from 1 - 1.3e-15 to 1, eta^2 from 1 + 2.2e-15 and xi^2 from 1 +
1.6e-15 to 1; coherent-300 csi:1 from 1 - 3.3e-16 to 1, csi:7 from 1 -
1.1e-16 to 1 + 2.2e-16, eta^2 from 0.84 + 3.0e-15 to 0.84 and xi^2 from 1 +
3.1e-15 to 1 + 2.2e-16; coherent-10000 csi:7 from 1 + 1.1e-15 to 1 +
2.2e-16, eta^2 from 0.84 - 8.1e-14 to 0.84 and xi^2 from 1 - 9.5e-14 to 1
(csi:1 stayed 1). The basis-state reports kept their bytes.

Three `--per-sector` reports, JSON and CSV, pin the whole-state entries
beside every sector's: a `distribution:` file (poisson mean 20 at one z
and phi: sectors 0 and 1 fail csi:1, sector 0 eta2 and xi2, so exit 3), a
`sector:` file of 2, 1 and 3 components, and tests/data/masked_mixture.state
(a twin-Fock sector held as rows beside a mixture held as components).
"""

import hashlib
import os

import pytest

from bosewit.cli import main

TS = "2026-01-01T00:00:00+00:00"

DIGESTS = {
    "fixed-40": (
        ("--samples", "20", "--n", "40", "--seed", "3"),
        "787ea4bc88a1fc7f1bf501a4d3faf885704b5e125a2252a2a148507c9a2be8db",
    ),
    "poisson-20": (
        ("--samples", "5", "--fluctuating", "poisson:20", "--seed", "3"),
        "999142cfb15f8316c686a80acd9bf870ebf83d2d37a2d106bf8897b46ba74c08",
    ),
    "binomial-10": (
        ("--samples", "5", "--fluctuating", "binomial:10,0.5", "--seed", "3"),
        "0f5352fbe1546d2635f80583730baa61147371562b99745438dd618176e766eb",
    ),
    # 12 samples of 1000 components at N = 12 take three chunks
    "fixed-12-multichunk": (
        ("--samples", "12", "--n", "12", "--components", "1000", "--seed", "3"),
        "c0babaa93c4f604f8e8e2c2306a1ce1bf563aa027293ee82b8499f6fd921f7cd",
    ),
    # one bound per order: 100 C_2m columns of the scan's bound table
    "fixed-200-one-component": (
        ("--samples", "20", "--n", "200", "--components", "1", "--seed", "3"),
        "371333f17fb6b1dacb9cd911a8eb46ed037ec8edb834deb9dabd412c65ef2007",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_scan_report_is_byte_identical(name, capsys):
    arguments, digest = DIGESTS[name]
    code = main(["scan-separable", *arguments, "--timestamp", TS])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Pure states written to a bare file name in a temporary working directory,
# so the manifest's arguments carry no machine path.
WITNESS_STATES = {
    "coherent-50": "kind = coherent_spin\nn = 50\nz = 0.5\n",
    "coherent-300": "kind = coherent_spin\nn = 300\nz = 0.3\nphi = 0.7\n",
    "coherent-10000": "kind = coherent_spin\nn = 10000\nz = 0.3\n",
    # xi^2 has no mean spin to reference (exit 3)
    "twin-fock-20": "kind = twin_fock\nn = 20\n",
    # G_aa of csi:1 is zero by structure, so the ratio is degenerate (exit 3)
    "dicke-40-1": "kind = dicke\nn = 40\nk = 1\n",
    "dicke-80-30": "kind = dicke\nn = 80\nk = 30\n",
}

WITNESS_DIGESTS = {
    ("coherent-50", "json"): (0, "4afa1ba2663170464fec589a33ece73289e35ec6cd0d3dfc642d2d83a7e2d892"),
    ("coherent-50", "csv"): (0, "ab21a243ab6a8376555e7fca613d9d9b72b1b45b0ba64abec6eb0fad0f569035"),
    ("coherent-300", "json"): (0, "8c29b6d7dd501f4587058df7395a917011c89d0a6416471e76eefd670203b39d"),
    ("coherent-300", "csv"): (0, "c9a42e87eece3e763ec465fa0ce74d3a8eac8767733e26c4209e381fc8aa48b7"),
    ("coherent-10000", "json"): (0, "4653e29fb36c3a0eeff9f848e515f5fc1c338b1d461cce0ac47a88b5f112cc54"),
    ("coherent-10000", "csv"): (0, "59ccc55e00372d19580e228252f0c710f60074e8ca7bcad81b6328784cc44667"),
    ("twin-fock-20", "json"): (3, "03c3a8c19bb4f8dac1fdd6be25225fa03b877b88475fed8e568191a87624219f"),
    ("twin-fock-20", "csv"): (3, "8ee5df152a54a27c694204bdbf09d9bdfe192b6900a01e8d66873489789e239f"),
    ("dicke-40-1", "json"): (3, "26e91e2dd32aec693bbb70f0c2a104da4a1486f0df48ce9ea415e93c8b2ac5a0"),
    ("dicke-40-1", "csv"): (3, "090abd085c782e2ab4b5fd45d4a9633273b5e484b775ad49e6bd8603a314f33e"),
    ("dicke-80-30", "json"): (3, "b6a198ddb193c48b09a13c2e88cef9e12dcb2f3d778c20535d74b7f6d04dfe64"),
    ("dicke-80-30", "csv"): (3, "383b11e2de93ef3aee50d776af25b9931a17522f5bb00d0ec54896a706c9f6fd"),
}


@pytest.mark.parametrize("name,fmt", sorted(WITNESS_DIGESTS))
def test_pure_state_witness_report_is_byte_identical(name, fmt, tmp_path, monkeypatch, capsys):
    expected_code, digest = WITNESS_DIGESTS[name, fmt]
    (tmp_path / f"{name}.state").write_text(WITNESS_STATES[name])
    monkeypatch.chdir(tmp_path)
    requests = [arg for r in ("csi:1", "csi:7", "eta2", "xi2") for arg in ("--witness", r)]
    code = main(
        ["witness", "--state", f"{name}.state", "--format", fmt, "--timestamp", TS, *requests]
    )
    out = capsys.readouterr().out
    assert code == expected_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Fluctuating states, read whole and per sector (--per-sector), each
# written to a bare file name as above.
with open(os.path.join(os.path.dirname(__file__), "data", "masked_mixture.state")) as _handle:
    _MASKED = _handle.read()

PER_SECTOR_STATES = {
    "poisson-20": (
        "kind = fluctuating\nz = 0.3\nphi = 0.4\n"
        "distribution:\n    kind = poisson\n    mean = 20\n"
    ),
    "sectors-2-1-3": (
        "kind = fluctuating\n"
        "sector:\n    weight = 0.3\n    n = 7\n"
        "    component:\n        weight = 0.5\n        z = 0.1\n        phi = 0.3\n"
        "    component:\n        weight = 0.5\n        z = 0.8\n        phi = -1.0\n"
        "sector:\n    weight = 0.3\n    n = 11\n    kind = coherent_spin\n    z = 0.45\n"
        "sector:\n    weight = 0.4\n    n = 16\n"
        "    component:\n        weight = 0.25\n        z = 0.6\n"
        "    component:\n        weight = 0.5\n        z = 0.05\n        phi = 2.5\n"
        "    component:\n        weight = 0.25\n        z = 0.9\n        phi = 1.0\n"
    ),
    "masked-mixture": _MASKED,
}

PER_SECTOR_DIGESTS = {
    ("poisson-20", "json"): (3, "7930b8e7a854a6dee27ae73efaf17ad28c638762f9a5a8a202808f0618ac85b9"),
    ("poisson-20", "csv"): (3, "f029eb06515810943afedd5df59d88d0dca74edfd873700615d81eca0c9d2268"),
    ("sectors-2-1-3", "json"): (0, "d36d2240f48828c19d26d7d420cfae893b1f0720a9db1e7091398f63e4984c2a"),
    ("sectors-2-1-3", "csv"): (0, "9edae09695da3c42519ca35a6d9adb67ec974bbdd7a3166919cfbf58efd4a746"),
    ("masked-mixture", "json"): (3, "334a1b99e769d98a23ff80a6acd75f012c80060ce68dc69bbb53639631edebe8"),
    ("masked-mixture", "csv"): (3, "81081569a5b73e946e6c3f5f6a84b49b01dd4763fdd244198734d86758dd99c8"),
}


@pytest.mark.parametrize("name,fmt", sorted(PER_SECTOR_DIGESTS))
def test_per_sector_witness_report_is_byte_identical(name, fmt, tmp_path, monkeypatch, capsys):
    expected_code, digest = PER_SECTOR_DIGESTS[name, fmt]
    (tmp_path / f"{name}.state").write_text(PER_SECTOR_STATES[name])
    monkeypatch.chdir(tmp_path)
    requests = [arg for r in ("all", "csi:3", "qfi:x") for arg in ("--witness", r)]
    code = main(
        ["witness", "--state", f"{name}.state", "--per-sector", "--format", fmt, "--timestamp", TS,
         *requests]
    )
    out = capsys.readouterr().out
    assert code == expected_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
