"""The committed outputs against fresh runs of the commands: the golden
files of `golden.py` and the catalog sweep in `docs/catalog_sweep.md`."""

import pathlib

import golden

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_golden_outputs_equal_a_fresh_run():
    # `python tests/golden.py --write` rewrites the files.
    assert golden.differences() == []


def test_catalog_sweep_doc_is_the_table_output():
    # The SO8/Sp2xSp1 erratum makes `table` exit 1.
    code, out = golden.run(["table", "--format", "md"])
    assert code == 1 and out.endswith("mismatched 1\n")
    assert (ROOT / "docs" / "catalog_sweep.md").read_text(encoding="utf-8") == out
