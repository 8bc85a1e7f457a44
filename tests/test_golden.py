"""Golden digest of the CLI's JSON output over a fixed seeded corpus.

Each of about sixty seeded random expressions (n = 2 and 3) goes through
classify, compare, member and explain, in-process.  The exit codes and the
stdout bytes of every call are hashed together, so any change to a verdict,
a trace, a witness or the JSON layout moves the digest.  Points are passed
as ``--point=<coords>`` because a coordinate may start with '-'.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

from niemytzki import cli
from niemytzki.setdsl import random_expr, to_text

GOLDEN_SHA256 = "fca2871ef7942f47d090037759cf859320915f88bff8773c6e50c4eed6d4c4f9"

PROPERTIES = ("lindelof", "perfect", "normal", "metrizable", "sigma_compact",
              "locally_compact", "boundary.perfect", "boundary.lindelof")


def golden_argvs() -> list[list[str]]:
    rng = random.Random(2405)
    argvs = []
    for n in (2, 3):
        texts = [to_text(random_expr(rng, n)) for _ in range(30)]
        common = ["--dimension", str(n), "--json"]
        for i, text in enumerate(texts):
            point = ",".join(str(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
                             for _ in range(n - 1))
            argvs += [
                ["classify", "--set", text, *common],
                ["compare", "--set-a", text, "--set-b", texts[i - 1], *common],
                ["member", "--set", text, f"--point={point}", *common],
                ["explain", "--set", text, "--property", rng.choice(PROPERTIES), *common],
            ]
    return argvs


def golden_digest() -> str:
    h = hashlib.sha256()
    for argv in golden_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        h.update(f"{code}\n{out.getvalue()}".encode())
    return h.hexdigest()


def test_golden_cli_digest():
    assert golden_digest() == GOLDEN_SHA256
