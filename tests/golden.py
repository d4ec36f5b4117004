"""Pinned outputs of the polyhex command line: one table, each digest written once.

A row is a command, its exit code, the SHA-256 of its stdout then its --out file
(OUT in the command), and its address-space limit in MB (10**6 bytes) or None.
Each row runs with COLUMNS=80 and prints no traceback. `python tests/golden.py`,
standard library only, runs each row in a fresh interpreter under its limit and
exits 1 naming each failing row; tests/test_cli.py runs those with no limit in process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple
from unittest import mock

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {"COLUMNS": "80"}
OUT = "OUT"
# No -I or -E: the child keeps PYTHONHASHSEED, and finds polyhex in src.
CHILD = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
         "from polyhex.cli import main; sys.exit(main())")
HUGE, PAST = 10**200, 10**160  # an index value past the float range; an AZI sum past it


class Row(NamedTuple):
    command: str  # argv, space-separated
    code: int
    digest: str
    limit_mb: int | None = None

    def argv(self, out: Path) -> list[str]:
        return [str(out) if arg == OUT else arg for arg in self.command.split()]


ROWS = [
    # From the implementation before terms were memoized; two runs of one
    # build cannot show a cached term that moved a digit.
    Row("index --kind armchair --m 5 --n 9", 0,
        "49f7b6fea106f58d0f7a3b22054b38e10afdd4e6a77073250782e65f91fe5154"),
    Row("sweep --m-range 2:12 --n-range 1:12 --out OUT", 0,
        "26216ad45b4b8d2198f2867ea3a7a0575f5b74b3b848f383d61e095e1fd49801"),
    # From the implementation whose parsers spelled out every kind and index
    # name and whose index and sweep commands each formatted index values;
    # the help digests are the same on Python 3.10, 3.11, 3.12 and 3.13.
    Row("index --kind zigzag --m 3 --n 4 --index azi", 0,
        "a972ba480706cbed51152aaabc6a03da7902b9e4306ca88ecd70109ca17ee8a1"),
    Row("index --kind zigzag --m 3 --n 4 --index randic", 0,
        "b72138551c1a5e791c1bef29e7eec84403f8071e39575029d08ba75c6d494081"),
    Row("index --kind zigzag --m 3 --n 4 --index abc", 0,
        "29a1dfb05eb38b875d96332089f20accdd2c551abb209272b9265c4af62488e1"),
    Row("--help", 0, "414fa8c6a66a79f2d944252ce2024e0201931f8cf97be0831e58862e0209d3ee"),
    Row("build --help", 0, "1b89c2fd018b25363ffc77b1773240361e0b572c9717f51725d2bc60f6ff75a4"),
    Row("partition --help", 0, "8bb779adc82e122b403184c01d4c806a5124c8053f116be6016a8d84089445a6"),
    Row("index --help", 0, "7284da3da4fb0783efd0204d350919244b702979a2038b08124a5bc3761256b4"),
    Row("fit --help", 0, "27aad7ac8b0f653fc2272cf8579660f5e7017cce4c0472470d517a91c0d8a901"),
    Row("verify --help", 0, "d3a5c959a02368a0541f5a5b77d629edf8af119c6ed2d779653b1719dfc6aea0"),
    Row("sweep --help", 0, "2cf55d96d031743d9db17561aee2ed893a14a74d73728ff9d434687b2fff4b6b"),
    # From the implementation whose generators looped once per edge and whose
    # JSON encoder was given lists.
    Row("build --kind armchair --m 5 --n 9 --format json", 0,
        "fbae264555ae66c3acfdbdb3d8990e298bef8db2b798e73743acecd26d370f13"),
    Row("build --kind armchair --m 5 --n 9 --format dot", 0,
        "aee843d8f916357403ddfc31166cfa8ec7a654834fda61889273eb364a70949e"),
    Row("build --kind zigzag --m 4 --n 7 --format json", 0,
        "8c35883cae459d961f6e564f81b1eb0e52782dbca666ca2e8dd4448acf0bc34d"),
    Row("build --kind zigzag --m 2 --n 3 --format dot", 0,
        "43bebfb2ea17a3f8039e270587854b78df0874658a1fe33a6bc2cd28563dd747"),
    # From the implementation that encoded the whole JSON document in one
    # json.dumps call; each spans several 1,024-edge chunks.
    Row("build --kind armchair --m 40 --n 30 --format json", 0,
        "275787d8d5e585cdd54bca59df547dfcf3d825dd3001fa7773df7eb9a36af429"),
    Row("build --kind zigzag --m 33 --n 31 --format json", 0,
        "f8898646af1b86fb1f3bf295d3cb113dbffb835f4ef941f07f6379c88c655517"),
    # From the implementation with one edge generator per kind; the smallest
    # tubes, where each ring's runs are shortest.
    Row("build --kind armchair --m 2 --n 1 --format json", 0,
        "4342d538e7d134d2ca1c35a068d2ff5211c85745dd5036ac4019d4256f26de81"),
    Row("build --kind armchair --m 2 --n 1 --format dot", 0,
        "684ceb2934fec67c77844f1e2f9af5438e32f39d9134f1c582f93b48f2ad4bb3"),
    Row("build --kind zigzag --m 2 --n 1 --format json", 0,
        "310b5c9a3c4e1982593a04ec90b5f9adce4d754cfd748f68cff43cc17b9a0bc9"),
    # From the implementation that called json.dumps once per 1,024 edges and
    # made each DOT line with an f-string.
    Row("build --kind armchair --m 300 --n 300 --format json", 0,
        "314e29239709dd80e8ffa128812c138e3e790aaa4c952975b45316c7c0577eca"),
    Row("build --kind zigzag --m 300 --n 300 --format json", 0,
        "9e5e547de9910eac90ca5f523cf4ba89d813eba5da0f148294173d4e8a971c94"),
    Row("build --kind armchair --m 300 --n 300 --format dot", 0,
        "2478589640af04e1359126ce1a85902b21b0afd82bcfdf3b4796f5ab570789cd"),
    Row("build --kind zigzag --m 300 --n 300 --format dot", 0,
        "6a2e4fbd3196cdd289e98d932edc627097e69d700e42c27a04faed443f2e9757"),
    # Near MAX_BUILD_EDGES, `build` streams in 200 MB, where build_nanotube of
    # either tube raises MemoryError; both commands also pass in 150 MB, on
    # Python 3.10, 3.11, 3.12 and 3.13. Taken with no limit: armchair from the
    # first implementation that streamed `build` from one sorted edge
    # generator, zigzag from one that sized tubes by the sums of its
    # degree-class counts.
    Row("build --kind armchair --m 1000 --n 1500", 0,
        "cf23e959050ceed2c8f782ab0093d6d4986fe6274bdc2b858718e835bc4c6aa4", 200),
    Row("build --kind zigzag --m 1000 --n 1500", 0,
        "264b302fa815fe0b8d6cbb4e017a4eeda7db82dc023ec1408f0b4229efd217c3", 200),
    # From the implementation whose count functions each branched on the kind
    # and whose verify cached oracle values per point.
    Row("partition --kind armchair --m 7 --n 5", 0,
        "68f34d0d1c27ede115db6348e9029c5184c5f218484c05185a9bee8a9bbe35d0"),
    Row("partition --kind zigzag --m 7 --n 5", 0,
        "7562f23de02336ccf43171c0ec42a6b31a427fb8832f02d8c72de1b9e607ba98"),
    Row("fit --kind zigzag", 0, "e359c95ba0aff4c5f8b88b59a29a33a56800dcb717a58dc0d6b7f5c9794d59f1"),
    Row("fit --kind armchair --samples 4,2 5,3 6,7", 0,
        "fd190427203c02902cf883295c9f7feaf39ef270f489163b3490cfb611033a42"),
    Row("verify --kind both --m-range 2:9 --n-range 1:8", 1,
        "09f9402415ad00d93b6c5f6d5e5d8cc2102be865ba815e7599e328ad8986797c"),
    # Holds none of the default fit samples; from the implementation whose
    # fits and grid shared their oracle values.
    Row("verify --kind both --m-range 5:9 --n-range 3:7", 1,
        "316e6735639943f83ec58aa8fd2cddd6bf47a89307c94cd4dd8626342965067c"),
    # Two n and one: the oracle builds one tube per m and reads an earlier n
    # off its rows. From the implementation that built one per point.
    Row("verify --kind both --m-range 2:9 --n-range 6:7", 1,
        "fb0ae419414d9a298b2f00b3069f8cf2d280987b5592577d80dd34e5d522c2ba"),
    Row("verify --kind both --m-range 3:8 --n-range 4:4", 1,
        "3add6b90d5b60890be109cbb6e6a1aee85d907e10591eef32b3738d09b5daf9a"),
    # Reads eleven of its twelve n per m off the last tube's rows, at m up to
    # 24; from the implementation that walked the last tube's edges one cut at
    # a time.
    Row("verify --kind both --m-range 20:24 --n-range 1:12", 1,
        "151d642eec5536704d49cf8312776bfcb8d50ca16d7540b5f9c8ae82554be30f"),
    # The 2:40 x 1:40 headline grid reads 39 n per (kind, m) off the rows of
    # its last tube; from the implementation before the oracle partitioned
    # each last tube once.
    Row("verify --kind both --m-range 2:40 --n-range 1:40", 1,
        "50a13916cc172de8d5dcc56e823a6c284e0607159293ae5ce57374e6f6c3a7d2"),
    # These two and the small two-kind sweep below are from the implementation
    # before every exact term, value and coefficient passed one exactness rule.
    Row("verify --kind both --m-range 2:9 --n-range 3:8", 1,
        "ae8e01f63745fb295408ff7c83977c5efe7af3f983b0fc6c1b909d715182734e"),
    Row("verify --kind both --m-range 20:24 --n-range 11:12", 1,
        "f5bc345b379bf1ba51629620b894e1c05411469d55a39c44a0160e225e13789f"),
    # The two-n grid that MAX_VERIFY_EDGES is timed on: 1,574,154 edges, nearly
    # all settled below the first n's rows. From the implementation that
    # sorted each last tube's edges by larger endpoint before walking it.
    Row("verify --kind both --m-range 2:80 --n-range 39:40", 1,
        "fc7f7f5fa8858d7e064b49832c22a1710f82a716185dddeed1b27e2d96eeaa65"),
    # From the implementation that encoded the whole report, every point a
    # dict, with json.dumps(indent=2).
    Row("verify --kind both --m-range 2:26 --n-range 1:25", 1,
        "280a3cc41ca5b5ee37f5cffcd8edd4e8c5708e8cb34bf2f13dd21533b83027ca"),
    Row("verify --kind armchair --m-range 2:26 --n-range 1:25", 1,
        "6e3935aa65c7169387234e2be919de8396f30a61cec5198df18c92d341ed152a"),
    Row("verify --kind zigzag --m-range 2:26 --n-range 1:25", 1,
        "7b5394587d4ddb0cf4c9385ec4a8dab87a300e98f5b29dc7cb6ce91db58ad9af"),
    # Both kinds over the headline 2:200 x 1:200 grid (79,600 rows), from the
    # implementation that wrote each kind's rows through one typed template.
    Row("sweep --kind both --m-range 2:200 --n-range 1:200 --out OUT", 0,
        "fda01edc46603eb90ac41ec1855315f4507cb25bc77031829bf56bb6723bf022"),
    Row("sweep --kind both --m-range 2:9 --n-range 1:8 --out OUT", 0,
        "03968904c93ea89fd6b28c59f0a188710d61d0e21330d9fac7da396b113772c9"),
    # Index subsets; from the implementation that held every row until the
    # end. They pin the blank cells of unselected indices.
    Row("sweep --kind zigzag --indices abc,azi --m-range 2:30 --n-range 1:30 --out OUT", 0,
        "02b975db79d163ff9c077939b4d2429c0af9ffd467826d4ab546cab824fad119"),
    Row("sweep --kind armchair --indices randic --m-range 2:30 --n-range 1:30 --out OUT", 0,
        "7a641107775a8501cbe70a5384c1e5a401dc4c11d0557774b7d1e0aa1b018fc8"),
    # From the implementation that wrote every cell through a %s slot and
    # concatenated a tuple of cells per index.
    Row("sweep --kind both --indices azi --m-range 2:30 --n-range 1:30 --out OUT", 0,
        "4244f02e438d9a68d26788c1d4191195733d460fe2e2b4afa6422d8c2d49a148"),
    Row("sweep --kind both --indices abc --m-range 2:30 --n-range 1:30 --out OUT", 0,
        "07a9c45bf33e7690146cd5f22bd27403223d57ee94268b9929eef9466f74f1fd"),
    Row("sweep --kind both --indices abc,randic --m-range 2:30 --n-range 1:30 --out OUT", 0,
        "321c3483d48530fbd5cb9f8a5f6ec07fc5af278acb669a082c5c828300ab2968"),
    Row("sweep --kind both --indices randic,azi --m-range 2:30 --n-range 1:30 --out OUT", 0,
        "a98c3e881941db5dc64230ecf1e784b9ce219bbcbe827fc44939732da4d686bb"),
    # An index value past the float range is refused, in 1 GB, before anything
    # large is allocated; a sweep's exact sum before it is reduced. By then
    # `sweep` has written its CSV header alone to OUT, pinned with the
    # implementation whose index set was closed to AZI, RANDIC and ABC.
    Row(f"index --kind armchair --m {HUGE} --n {HUGE}", 2, hashlib.sha256(b"").hexdigest(), 1000),
    Row(f"sweep --kind zigzag --indices azi --m-range {PAST}:{PAST} --n-range {PAST}:{PAST}"
        " --out OUT", 2,
        "c34cce34fa8057ce2450dbc89487d51bbb2e107b8a95e18262d2f03c9ceab05c", 1000),
]


def _sha256(stdout: bytes, *files: Path) -> str:
    digest = hashlib.sha256(stdout)
    for path in filter(Path.exists, files):
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def _problems(row: Row, code: object, digest: str, stderr: str) -> list[str]:
    """How a run of row differs from it; empty if it matches."""
    return [problem for problem, differs in [
        (f"exit code {code}, expected {row.code}", code != row.code),
        (f"SHA-256 {digest}, expected {row.digest}", digest != row.digest),
        ("a traceback on stderr", "Traceback" in stderr),
    ] if differs]


def run_in_process(row: Row, tmp: Path) -> list[str]:
    """Run row through polyhex.cli.main in this process, without its limit."""
    from polyhex.cli import main

    out, stdout, stderr = tmp / "out", io.StringIO(), io.StringIO()
    out.unlink(missing_ok=True)
    with mock.patch.dict(os.environ, ENV), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main(row.argv(out))
        except SystemExit as exc:  # --help, and argparse's refusals
            code = exc.code
    return _problems(row, code, _sha256(stdout.getvalue().encode(), out), stderr.getvalue())


def run_fresh(row: Row, tmp: Path) -> list[str]:
    """Run row in a fresh interpreter under its address-space limit."""
    import resource

    def limit() -> None:
        if row.limit_mb is not None:
            resource.setrlimit(resource.RLIMIT_AS, (row.limit_mb * 10**6,) * 2)

    out, stdout = tmp / "out", tmp / "stdout"
    out.unlink(missing_ok=True)
    with open(stdout, "wb") as sink:
        child = subprocess.run([sys.executable, "-c", CHILD, *row.argv(out)], stdout=sink,
                               stderr=subprocess.PIPE, errors="replace",
                               env={**os.environ, **ENV}, preexec_fn=limit)
    return _problems(row, child.returncode, _sha256(b"", stdout, out), child.stderr)


def main(rows: list[Row] = ROWS) -> int:
    """Run each row in a fresh interpreter; print each failing row, and return 1 if any fails."""
    print("Python", sys.version.split()[0], "PYTHONHASHSEED", os.getenv("PYTHONHASHSEED", "random"))
    with tempfile.TemporaryDirectory() as tmp:
        failed = [f"FAIL {row.command}: {'; '.join(problems)}"
                  for row in rows if (problems := run_fresh(row, Path(tmp)))]
    print(*failed, f"{len(rows) - len(failed)} of {len(rows)} rows match", sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
