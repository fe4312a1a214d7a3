"""The golden files in tests/data and what renders them, free of pytest.

`verify-paper --n 3 --seed S --format json`, byte for byte, for the default
seed 42 and the held-out seed 977, a corpus of single-operation CLI
outputs, and the derived-chain certificates for n = 3..8.  A change that
alters any printed value must regenerate them and say why:

    PYTHONPATH=src python tests/golden.py

`tests/test_cli.py` compares the rendered outputs with the files, and
`tests/test_canonical.py` re-checks the stored certificates.
"""

import contextlib
import io
import json
from pathlib import Path

from polylie.canonical import derived_chain_witness
from polylie.cli import main

GOLDEN_REPORTS = {seed: Path(__file__).parent / "data" / f"verify_paper_n3_seed{seed}.json"
                  for seed in (42, 977)}

# The single-operation commands below, in text and JSON, with their exit codes
# and stdout, byte for byte.
GOLDEN_CORPUS = Path(__file__).parent / "data" / "cli_corpus.json"
RATIONAL_FIELD = "(1/2 + 1/3 x1) d1 + (2/3 x1 + 5/4 x2^2 - 1/6 x2) d2"
CORPUS_COMMANDS = [
    ["member", "(x1^2 + x2) d1 + (x2^2 + x1 x2 + x3) d2", "--n", "3"],
    ["strip", RATIONAL_FIELD, "--which", "un", "--n", "2"],
    ["strip", RATIONAL_FIELD, "--which", "sn", "--n", "2"],
    # stops at the degree cap, so the offending pair is printed
    ["closure", "(1/2 x1^2) d1", "(2/3 x1^3) d1 + (1/5 x2) d2", "--degree-cap", "4",
     "--n", "2"],
    ["derived-series", "d1", "(1/2 x1) d2", "(2/3 x1^2) d2", "--lower", "--n", "2"],
    # closes at dim 13 from 5 generators: derived dims [13, 10, 4, 0], class 7
    ["derived-series", "d1", "(1/2 x1) d2 + d3", "(2/3 x1^2) d2", "(x1 x2) d3",
     "(3/4 x2^2) d3", "--n", "3"],
    ["derived-series", "d1", "(1/2 x1) d2 + d3", "(2/3 x1^2) d2", "(x1 x2) d3",
     "(3/4 x2^2) d3", "--lower", "--n", "3"],
    # sl2: [L, L] = L, dims [3, 3] in both series
    ["derived-series", "d1", "(x1) d1", "(x1^2) d1", "--n", "1"],
    ["derived-series", "d1", "(x1) d1", "(x1^2) d1", "--lower", "--n", "1"],
    # the third generator is d1 + 2 (x1) d2, inside the span of the first two
    ["derived-series", "d1", "(x1) d2", "(2 x1) d2 + d1", "(x1^2) d2", "--n", "2"],
    ["derived-series", "d1", "(x1) d2", "(2 x1) d2 + d1", "(x1^2) d2", "--lower",
     "--n", "2"],
    # the closure stops at the degree cap, so no series runs
    ["derived-series", "(x1^2) d2", "(x2^2) d1", "--degree-cap", "3", "--n", "2"],
    ["derived-series", "(x1^2) d2", "(x2^2) d1", "--degree-cap", "3", "--lower",
     "--n", "2"],
    ["lnd", "(x1^2 + 1/2 x1 x2) d3 + (2/3 x1) d2 + d1", "--bound", "8", "--n", "3"],
    ["lnd", "(x1) d1 - (x2) d2", "--n", "2"],
    ["lnd", "(x2) d1 + (1/2 x1) d2", "--n", "2"],
    ["bracket", "(1/2 x1^2) d1 + (2/3 x2) d2", "(3/4 x2) d1 - (1/5 x1 x2) d2", "--n", "2"],
    ["apply", "(1/2 x2) d1 + (2/3) d2", "3/4 x1 x2 + 1/6 x2^2", "--n", "2"],
    ["witness", "--n", "2"],
    ["eigencert", "(x1) d1", "(2/3 x1^2) d1", "--n", "1"],
    ["eigencert", "(x2) d1 + (x1) d2", "(x1) d1 - (x2) d2", "--n", "2"],
    # the shape at slot 2 holds modulo the slot-1 terms
    ["sl2", "d2 + (x1) d1", "(-x2^2) d2 + (1/2 x1^2) d1", "(-2 x2) d2 - d1", "--k", "2",
     "--n", "2"],
    # t2 not normalized: its slot-1 coefficient is -3 x1^2
    ["sl2", "d1", "(-3 x1^2) d1", "(-2 x1) d1", "--k", "1", "--n", "1"],
    ["sl2", "d1", "(-x1^2) d1 + (x1) d2", "(-2 x1) d1", "--k", "1", "--n", "2"],
    ["flatten", "(x1^3 x2) d2 + (1/2 x1^2) d1", "1", "1", "--n", "2"],
    ["extract-const", "1/2 x1^2 x2 + 2/3 x2^3 - x1", "--n", "2"],
    ["extract-linear", "1/2 x1^3 x2 + 2/3 x1^2 x2^2 + x2", "1", "--n", "2"],
    ["index", "(x1) d1 + (1/2 x2^2) d2", "--n", "3"],
    ["index", "x1 + 2/3 x2^2", "--poly", "--n", "3"],
]


# derived_chain_witness(n).to_dict() for each n, one node per line
GOLDEN_CERTIFICATES = Path(__file__).parent / "data" / "derived_chain_certificates.json"
CERTIFICATE_NS = range(3, 9)


def render_certificates() -> str:
    docs = []
    for n in CERTIFICATE_NS:
        doc = derived_chain_witness(n).to_dict()
        head = json.dumps({key: value for key, value in doc.items() if key != "nodes"})
        nodes = ",\n".join(f"    {json.dumps(node)}" for node in doc["nodes"])
        docs.append(f'  {head[:-1]}, "nodes": [\n{nodes}\n  ]}}')
    return "[\n" + ",\n".join(docs) + "\n]\n"


def render_corpus() -> str:
    entries = []
    for argv in CORPUS_COMMANDS:
        for fmt in ("text", "json"):
            full = argv + ["--format", fmt]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(full)
            entries.append({"argv": full, "exit": code, "stdout": out.getvalue()})
    return json.dumps(entries, indent=2) + "\n"


def render_report(seed: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-paper", "--n", "3", "--seed", str(seed), "--format", "json"])
    assert code == 0
    return out.getvalue()


if __name__ == "__main__":
    GOLDEN_CORPUS.write_text(render_corpus())
    GOLDEN_CERTIFICATES.write_text(render_certificates())
    for seed, path in GOLDEN_REPORTS.items():
        path.write_text(render_report(seed))
