"""Byte-level golden outputs of ``geodesy check --json`` and ``geodesy classify``.

The ``check`` digests were recorded with the per-entry Fraction kernel,
before matrices stored integer numerators over a common denominator.
Every entry on the wire must stay in lowest terms ("1","2", never
"2","4"), so any change in how entries are built or reduced changes a
digest.  The broken, hand-written and non-ASCII-path cases were
recorded while entries were still parsed through ``Fraction``s and
printed by ``json.dumps``, before the integer wire format.  The
``classify`` digests were recorded while every table was still derived
and eliminated on its own, before tables were classified by sector: the
verdicts, counts, class order and certificates must not depend on how
the work is shared.  The ``oracle`` digests pin the floating-point
trajectory of seeded descents; the ``minimize`` digests were recorded
while every restart still ran its own descent, one after another, so
they pin that running restarts as the lanes of one batched descent
changes no float.  The ``exact`` digests cover the seeded
candidates of the benchmark's ``exact`` workload, p = 2..6 dense, sparse,
non-compact and broken; they were recorded while report matrices were
still written as nested lists and each bracket took two full products.
"""

import contextlib
import functools
import hashlib
import io
from fractions import Fraction
from pathlib import Path

import pytest

from geodesy.candidates import (
    diagonal_candidate,
    embedding_with_rank,
    save_candidate,
    standard_trivial_candidate,
)
from geodesy.checker import EmbeddingCandidate
from geodesy.cli import run
from geodesy.gaussmat import GaussMatrix, GaussRational
from geodesy.ladder import classify_weight_data
from geodesy.numeric import minimize
from geodesy.weights import enumerate_weight_data

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "candidates/diagonal_p2.json": "8bf539e82c139553323124df38a0b17ad6097a39d6cd3ff37dcb88dc2e529139",
    "candidates/standard_trivial_p2.json": "06ff1a3198e3dc86c1cbbef33f8b5497d30b95f99b6b8179b643402f7daa653d",
    "cayley_p3.json": "4329a01ce951f1a3714c1f25fac7155415ad225a8e0d528654422c061ad93dac",
    "boost_p3.json": "e64305c28d46efdc8365910728b0f7b0b16c2533fa478c4afe2ebea50d3a7177",
    "broken_p3.json": "28e9db3819b82b85a05242a2a2dd8c318019e85e8c780e581924a9fb12258f37",
    "unreduced_p1.json": "90c76216c3b1f4205a12871a8b881df9f4fa14c04a3bf27034c769916fb6923d",
    "d\u00e9 \U0001d530\U0001d532 p2.json": "bbdcb7aa67dd89d59df4cbbab7af0451cf5ab1bf0605753a83b2c217734a0c52",
}


def _conjugate(c: EmbeddingCandidate, g: GaussMatrix, g_inv: GaussMatrix) -> EmbeddingCandidate:
    return EmbeddingCandidate(
        shape=c.shape,
        f_u=g @ c.f_u @ g_inv,
        f_v=g @ c.f_v @ g_inv,
        f_w=g @ c.f_w @ g_inv,
    )


def cayley_candidate() -> EmbeddingCandidate:
    """Rank-2 embedding in su(3,3) conjugated by diag(C, C*), with C the
    Cayley transform (I - A)(I + A)^-1 of a skew-Hermitian A: a unitary in
    the compact subgroup with dense entries over unequal denominators."""
    g = GaussRational
    a = GaussMatrix([
        [g(0, 1), g(1, 2), g(-2, 1)],
        [g(-1, 2), g(0, -3), g(0, 1)],
        [g(2, 1), g(0, 1), g(0, 2)],
    ])
    eye = GaussMatrix.identity(3)
    c = (eye - a) @ (eye + a).inverse()
    zero = GaussMatrix.zeros(3, 3)
    u = GaussMatrix.block([[c, zero], [zero, c.conj_transpose()]])
    return _conjugate(embedding_with_rank(3, 2), u, u.conj_transpose())


def boost_candidate() -> EmbeddingCandidate:
    """Rank-2 embedding in su(3,3) conjugated by the boost (a b; b a), with
    a = 5/3 and b = 4/3, mixing plus coordinate 0 with minus coordinate 1:
    still a homomorphism, but the image of w gains a tangent component."""
    a, b = Fraction(5, 3), Fraction(4, 3)
    rows = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    rows[0][0] = rows[4][4] = a
    rows[0][4] = rows[4][0] = b
    boost = GaussMatrix(rows)
    return _conjugate(embedding_with_rank(3, 2), boost, boost.inverse())


def broken_candidate() -> EmbeddingCandidate:
    """Rank-2 embedding in su(3,3) whose F(u) gains i*(E_00 - E_33): it no
    longer commutes with F(v), so [u,v] = -2w fails, the report carries
    failures and its four component matrices are null."""
    c = embedding_with_rank(3, 2)
    bump = GaussMatrix.diagonal([GaussRational(0, 1), 0, 0, GaussRational(0, -1), 0, 0])
    return EmbeddingCandidate(c.shape, c.f_u + bump, c.f_v, c.f_w)


BUILT = {
    "cayley_p3.json": cayley_candidate,
    "boost_p3.json": boost_candidate,
    "broken_p3.json": broken_candidate,
    # the path is echoed in the report, written as \uXXXX escapes
    "d\u00e9 \U0001d530\U0001d532 p2.json": lambda: embedding_with_rank(2, 1),
}

# Written by hand rather than by save_candidate: unreduced pieces, negative
# denominators, "-0" and one entry of JSON integers.  It is the rank-1
# embedding conjugated by diag(a, 1) with a = 3/5 + 4/5 i.
UNREDUCED_P1 = """{"p": 1,
 "f_u": [[["0", "-7", "-0", "1"], ["6", "10", "-8", "-10"]],
         [["-9", "-15", "4", "-5"], ["0", "3", "0", "-3"]]],
 "f_v": [[["0", "1", "0", "1"], ["4", "-5", "-3", "-5"]],
         [["-8", "10", "-6", "10"], ["-0", "-2", "0", "4"]]],
 "f_w": [[["0", "9", "2", "2"], [0, 1, 0, 1]],
         [["0", "1", "0", "1"], ["0", "-1", "2", "-2"]]]}
"""
WRITTEN = {"unreduced_p1.json": UNREDUCED_P1}


CLASSIFY_GOLDEN = {
    ("classify", "1", "--json"): "1435ce4579275da066bb6595fcd7ae1dfdbeb86c581aa81d4e98c946f25dbdf9",
    ("classify", "2", "--json"): "3a2317631612d7643fe842762564dfcd8f191ec20d762fc5ad988ab104b19382",
    ("classify", "3", "--json"): "9f0d03ac1b2474652580d9403dc6aa1cac4569be7fd4eb5dc6d6403e26ab2a4d",
    ("classify", "4", "--json"): "16166d082a91b456041868ff1aae10fd71215d9850d0a507f30c046689faaede",
    ("classify", "5", "--json"): "b9ec72a633ae66f9f5254f07483c1bbb61b45be8db17d07dcae508f33c5ef475",
    ("classify", "6", "--json"): "21893bbc52113cd3716ca4973ab54b0c8eaec2fa97523919481aa136da98b5bb",
    ("classify", "7", "--json"): "25ec30b33a7a22d1ab7d4e00feb4d74e2fa9ba4a4a1c0764fa915765d48e617c",
    ("classify", "8", "--json"): "df32fbf22a21ef608e71209ce9a2d9fe565f0be5c93b0a0349b7479c7c6381eb",
    ("classify", "9", "--json"): "a0a57933cd38dbbacc37e2d256b595fe58f2087e7303abef28ce58ebe82d6397",
    # recorded while every sum was still walked head pick by head pick
    ("classify", "10", "--json"): "62d846bdd03a0840f0ae0a7722c4bdd751857272888886b8501d768d8c75c0a8",
    ("classify", "11", "--json"): "aa6e3679bd780ea4788a2b45a1a541b8eb070313d68b211d19debc6981b6248a",
    ("classify", "12", "--json"): "7eee943b2021873693d9a8f0a5ef5094bf9259714be71fe547b940141ce4f32f",
    ("classify", "13", "--json"): "bbe0cc371fb431020dbe051044723f811a7ad5993e870e66236240fa546f41fe",
    ("classify", "14", "--json"): "25a1904d1e6ba2733be731170daa00e1ec807c409522a865b414b8152598d876",
    ("classify", "15", "--json"): "cd8b70c7bd7e7975dea004a02ad7b22431a2ccbc8aa52bb8b3754ce3efbe8514",
    ("classify", "16", "--json"): "ea73cd0ec7c6d2666dbea87c633424fc324eb47da6fd9801604d87fa92c696eb",
    ("classify", "3"): "cb196f110044a2f957ed8e9be25ee33205d1bdf9c03b4b30d3668e346fcbf91a",
}
# `oracle` stdout under the exact line search: the label order of the
# blocks fixes the flat vector and the step rule fixes the float trajectory.  The mixed patterns hold blocks of every kind, and
# the last one blocks that are not square.
ORACLE_GOLDEN = {
    ("oracle", "--plus", "1:2", "--minus", "-1:2", "--restarts", "20", "--seed", "7"):
        "b953a7ccc04ee946bf893ac0c6752100be86d84f9b7a0faefc3e2ea76fa95c92",
    ("oracle", "2", "--restarts", "20", "--seed", "7"):
        "b953a7ccc04ee946bf893ac0c6752100be86d84f9b7a0faefc3e2ea76fa95c92",
    ("oracle", "--plus", "2:1,1:1,0:1", "--minus", "0:1,-1:1,-2:1", "--restarts", "3", "--seed", "7"):
        "8a138d807ac633a5a80781c81ba3a55beaa749cab8c75d273365c22765e1e9f0",
    ("oracle", "--plus", "2:1,1:2,0:1", "--minus", "0:2,-1:1,-2:1", "--restarts", "3", "--seed", "7"):
        "a666ab05dab4da4ccf4c1d9e12b44fe10d611b8cda70ed74089c1fc01083f793",
}
# `minimize` on all 120 tables with p <= 3, each under criterion 6's
# settings and under restarts=5, seed=11 with max_iter 2 and 100_000 (so
# restarts stop at different steps and for different reasons): one sha256
# over the reports (final residual, iterations, restarts, best restart,
# stop reasons, best point) and one over each restart's final residual,
# accepted steps and stop reason
MINIMIZE_REPORTS_GOLDEN = "ee69582ce7cf83da97c14167c01ba987bd39026ada79bcba2ad420eaa7bbd55b"
MINIMIZE_RESTARTS_GOLDEN = "a68ba493cf9941348d7061780ca61da663572781526226d1ed33263d7cd9e136"
# seed of bench/exact_inputs.py -> one sha256 over the exit code and the
# stdout of `check FILE --json` for its 20 candidates, in manifest order
EXACT_GOLDEN = {
    1: "e6d4b7cf913232a47fde94b6d18b70731fcb6cb49466256ccb9247c28f00b75f",
    77: "c011d7377bec2361321d2f725f043a0e0eca165bc9f0be72a222e9fade6d5be2",
    401: "d625cbb6ff04da44ae8fc51b0266d4dcb21b6b22173ada9a8dd4e235bcf0fa51",
    6007: "2e1c74b8dca18b9ee0390bc1743fd100cdb99fc3d28c490936b5d4be4be40fc9",
}
# one sha256 over the sorted (file name, bytes) pairs of the certificates
# that `classify p --emit-certs` writes for p = 1..4
CERTIFICATES_GOLDEN = "d845ec37691224be0a235206dcdeb0e8f4c4a954b89bf5dbb64c6f0da4a69d73"
# the same digest over the 2,773 certificates of `classify 5 --emit-certs`
CERTIFICATES_P5_GOLDEN = "14fd32fa839e70aa46a9e0d973710b5601db863abf36714111954b59e626d4f3"


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(argv))
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def check_json_digest(path: str) -> str:
    """sha256 of the stdout of ``geodesy check PATH --json``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        run(["check", path, "--json"])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_check_json_matches_golden_digest(name, tmp_path, monkeypatch):
    if name in BUILT:
        monkeypatch.chdir(tmp_path)
        save_candidate(BUILT[name](), tmp_path / name)
    elif name in WRITTEN:
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(WRITTEN[name], encoding="utf-8")
    else:
        monkeypatch.chdir(ROOT)
    assert check_json_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("seed", sorted(EXACT_GOLDEN))
def test_check_json_of_exact_inputs_matches_golden_digest(seed, tmp_path, monkeypatch):
    # bench/ is read, not changed; relative names keep the `path` field stable
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import exact_inputs

    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for entry in exact_inputs.generate(seed, tmp_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(["check", entry["file"], "--json"])
        digest.update(f"{code}\0{out.getvalue()}\0".encode())
    assert digest.hexdigest() == EXACT_GOLDEN[seed]


@pytest.mark.parametrize("argv", sorted(CLASSIFY_GOLDEN), ids=" ".join)
def test_classify_matches_golden_digest(argv):
    assert hashlib.sha256(cli_stdout(argv).encode()).hexdigest() == CLASSIFY_GOLDEN[argv]


@pytest.mark.parametrize("p", range(1, 7))
def test_classify_writes_no_certificate_step(p, monkeypatch):
    # classify keeps no infeasible sector, so it never builds a certificate step
    import geodesy.ladder as ladder_mod

    def no_step(*args):
        raise AssertionError("classify built a certificate step")

    monkeypatch.setattr(ladder_mod, "_step", no_step)
    argv = ("classify", str(p), "--json")
    assert hashlib.sha256(cli_stdout(argv).encode()).hexdigest() == CLASSIFY_GOLDEN[argv]


@pytest.mark.parametrize("argv", sorted(ORACLE_GOLDEN), ids=" ".join)
def test_oracle_matches_golden_digest(argv):
    assert hashlib.sha256(cli_stdout(argv).encode()).hexdigest() == ORACLE_GOLDEN[argv]


@functools.cache
def minimize_digests():
    """(reports digest, restarts digest) of the runs MINIMIZE_*_GOLDEN pin."""
    reports, restarts = hashlib.sha256(), hashlib.sha256()
    for wd in [wd for p in (1, 2, 3) for wd in enumerate_weight_data(p)]:
        if classify_weight_data(wd).status == "feasible":
            settings = [dict(restarts=20, seed=7, target=1e-18)]
        else:
            settings = [dict(restarts=3, seed=7)]
        settings += [dict(restarts=5, seed=11, max_iter=max_iter) for max_iter in (2, 100_000)]
        for kwargs in settings:
            r = minimize(wd, **kwargs)
            reports.update(repr((r.final_residual.hex(), r.iterations, r.restarts, r.best_restart, r.stop_reasons)).encode())
            for label, block in r.best_point.items():
                reports.update(label.encode())
                reports.update(block.tobytes())
            rows = [(value.hex(), steps, reason) for value, steps, reason in zip(r.restart_residuals, r.restart_steps, r.stop_reasons)]
            restarts.update(repr(rows).encode())
    return reports.hexdigest(), restarts.hexdigest()


def test_minimize_reports_match_golden_digest():
    assert minimize_digests()[0] == MINIMIZE_REPORTS_GOLDEN


def test_minimize_restarts_match_golden_digest():
    # each restart's residual, steps and stop reason, as its own descent gave them
    assert minimize_digests()[1] == MINIMIZE_RESTARTS_GOLDEN


@pytest.mark.parametrize("name", ["diagonal_p2.json", "standard_trivial_p2.json"])
def test_save_candidate_reproduces_bundled_file(name, tmp_path):
    """scripts/make_candidates.py writes the bundled files with save_candidate."""
    builders = {"diagonal_p2.json": diagonal_candidate, "standard_trivial_p2.json": standard_trivial_candidate}
    save_candidate(builders[name](2), tmp_path / name)
    assert (tmp_path / name).read_bytes() == (ROOT / "candidates" / name).read_bytes()


def certificates_digest(tmp_path, ranks) -> str:
    """sha256 over the sorted (file name, bytes) pairs that
    ``classify p --emit-certs`` writes for every p in ranks."""
    pairs = []
    for p in ranks:
        directory = tmp_path / f"p{p}"
        cli_stdout(["classify", str(p), "--emit-certs", str(directory)])
        pairs += [(f.name, f.read_bytes()) for f in directory.iterdir()]
    digest = hashlib.sha256()
    for name, data in sorted(pairs):
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


def test_emitted_certificates_match_golden_digest(tmp_path):
    assert certificates_digest(tmp_path, range(1, 5)) == CERTIFICATES_GOLDEN


def test_emitted_p5_certificates_match_golden_digest(tmp_path):
    assert certificates_digest(tmp_path, [5]) == CERTIFICATES_P5_GOLDEN
