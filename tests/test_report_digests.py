"""Byte-identity of scan-separable and witness reports.

With the manifest timestamp pinned, a report is a pure function of its
arguments. These digests pin the full text of four scan reports, and of
the JSON and CSV witness reports of six pure states asking for C_2m, eta^2
and xi^2, so a change to the sampling, the row builder, the state build,
the witness kernels or the emit that moves any value by one bit, or any
byte of the layout, fails here.

They were recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64, and give
the same bytes at 1, 2, 4 and 8 BLAS threads. Every F_Q of these scans
ends in the one F_Q kernel, witnesses._gram_forms, an eigh of a small Gram
matrix: the 4 x 4 closed-form Gram matrices of the four-component scans'
product components (K <= N + 1, so no amplitude row is built for F_Q, and
the C_2m populations come from real modulus rows), and for the
1000-component chunks (K > N + 1, from complex amplitude rows) the 13 x 13
Gram matrices of the 13 rows that an eigh of each 13 x 13 density
compresses them to. (A thin SVD of those 1000 x 13 chunks, kept only as
the test reference oracles.qfi_forms_svd, gives a last-digit different F_Q
at one thread than at two or more.) CI runs this module under
OPENBLAS_NUM_THREADS=1 as well as at the default thread count. A
BLAS or LAPACK that rounds differently moves the F_Q worst values and so
the digest of every scan report; the witness reports here hold no F_Q.
"""

import hashlib

import pytest

from bosewit.cli import main

TS = "2026-01-01T00:00:00+00:00"

DIGESTS = {
    "fixed-40": (
        ("--samples", "20", "--n", "40", "--seed", "3"),
        "438e2ecee9f95ce7b10d8b60efd83f16fea0d7d5e7cfb1c5028a428564ebf514",
    ),
    "poisson-20": (
        ("--samples", "5", "--fluctuating", "poisson:20", "--seed", "3"),
        "23cdd4bf83310df9c163e559843c28ab9a4f8a2367e23d2183523cf02d002305",
    ),
    "binomial-10": (
        ("--samples", "5", "--fluctuating", "binomial:10,0.5", "--seed", "3"),
        "0f5352fbe1546d2635f80583730baa61147371562b99745438dd618176e766eb",
    ),
    # 12 samples of 1000 components at N = 12 take three chunks
    "fixed-12-multichunk": (
        ("--samples", "12", "--n", "12", "--components", "1000", "--seed", "3"),
        "a891828d85a41db7ad3a143b21e910e3eb1c4d700c3a16a4403f5f2b7016662a",
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
    ("coherent-50", "json"): (0, "676de6cf0394d0937d76c220e94519e692a2f67d7910e58f5ddf88842669b343"),
    ("coherent-50", "csv"): (0, "9784ef0744e857a3aa165127dd65c28534fc88d6b193c50b0010ab54613fd966"),
    ("coherent-300", "json"): (0, "4a12d49a79a77e6118d9bd35dbcf41b4854182ab9f301ad2445b895b9a01e34e"),
    ("coherent-300", "csv"): (0, "afc2a407b9aea9f577e0725685404392894a9623e9c48fb151b5a8687934a29d"),
    ("coherent-10000", "json"): (0, "767c661b0b282571e64a79b954e55016eed325860cf513d29a8627823a32d33c"),
    ("coherent-10000", "csv"): (0, "784eb9e459104583f75cb46b0da59a711bb02d1ac4830e07307be43293edb52b"),
    ("twin-fock-20", "json"): (3, "fe1ee45ae2c07a9278465c587031c76c6e638e728f4f8070c386e18ff8f8c44d"),
    ("twin-fock-20", "csv"): (3, "65cae099ea5b1152afa29409a1bbfcd465fd2d49e26f96ee2190f2bd49b368b1"),
    ("dicke-40-1", "json"): (3, "c7424d03d27f3d3de1456cbb3c44cf7c581efbb9a5146d74386b61c1833f8f36"),
    ("dicke-40-1", "csv"): (3, "3d4897feccc95cf6634740ef7cf5adfffbb2a29942cea0d2e00330f9bc91f477"),
    ("dicke-80-30", "json"): (3, "cd7e2c5d5d8a3650e8a31749940cce33047debffdedb28efa12bbb0ca225246b"),
    ("dicke-80-30", "csv"): (3, "296799dd7826fd94e78a1b6f666de3969cd5c143b2dfa08f9cb66ceb439de6a3"),
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
