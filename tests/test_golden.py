"""Golden canonical reports: the CLI must keep every recorded answer.

A fixed job list (``analyze`` over the corpus and its quadratic duals at two
windows, plus every ``verify`` check that applies) was run once and its exit
codes and ``canonical`` blocks stored in ``data/golden_canonical.json``.  The
test replays each job in-process and compares the text the CLI prints, byte
for byte, with the stdlib's ``json.dumps`` of the recorded block and the
printed timing.  Jobs that failed because a product left the degree window were
left out when recording: those are defects, not answers to keep.

Record again only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from quiverkoszul.cli import main
from quiverkoszul.corpus import corpus_instances
from quiverkoszul.duality import dual_presentation, quadratic_check
from quiverkoszul.serialization import canonical_json, presentation_to_document

DATA = Path(__file__).parent / "data" / "golden_canonical.json"

UNGRADED_CHECKS = ("koszul", "generation", "hilbert-euler", "duality-dims")
GRADED_CHECKS = ("covering-theorem", "smash-iso", "radical-smash")
# the largest top degree in the corpus is 3, so window 6 runs past each one
ANALYZE_WINDOWS = (("3", "3"), ("6", "4"))
VERIFY_WINDOWS = {"smash-iso": ("6", "4"), "radical-smash": ("6", "4")}


def _doc_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", label).strip("-")


def documents() -> dict:
    """Document name -> text; corpus instances carry a Z2 all-ones grading."""
    docs = {}
    for label, p in corpus_instances():
        ones = {a.label: "1" for a in p.quiver.arrows}
        docs[_doc_name(label)] = canonical_json(
            presentation_to_document(p, ("cyclic", 2), ones))
        if quadratic_check(p):
            docs["dual-" + _doc_name(label)] = canonical_json(
                presentation_to_document(dual_presentation(p)))
    return docs


def job_list(docs: dict) -> list:
    """(document name, argv after the file) pairs, in a fixed order."""
    jobs = []
    for name in docs:
        for d, i in ANALYZE_WINDOWS:
            jobs.append((name, ["analyze", "--max-degree", d,
                                "--max-homological", i]))
        graded = not name.startswith("dual-")
        checks = UNGRADED_CHECKS + (GRADED_CHECKS if graded else ())
        for check in checks:
            d, i = VERIFY_WINDOWS.get(check, ("4", "3"))
            jobs.append((name, ["verify", "--check", check, "--max-degree", d,
                                "--max-homological", i]))
    return jobs


def job_id(name: str, args: list) -> str:
    return " ".join([name] + args)


def run_job(docs_dir: Path, name: str, args: list):
    """Exit code, the text the CLI printed ("" without a report), stderr."""
    argv = [args[0], str(docs_dir / f"{name}.json")] + args[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _write_documents(directory: Path) -> None:
    for name, text in documents().items():
        (directory / f"{name}.json").write_text(text, encoding="utf-8")


def record(directory: Path) -> list:
    _write_documents(directory)
    recorded = []
    for name, args in job_list(documents()):
        rc, text, err = run_job(directory, name, args)
        if rc == 2 and "exceeds the window" in err:
            continue
        canonical = json.loads(text)["canonical"] if text else None
        recorded.append({"doc": name, "args": args, "exit": rc,
                         "canonical": canonical})
    return recorded


def _recorded() -> list:
    # missing data fails test_recorded_jobs_come_from_the_job_list
    if not DATA.exists():
        return []
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def docs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_documents(directory)
    return directory


@pytest.mark.parametrize(
    "job", _recorded(), ids=lambda job: job_id(job["doc"], job["args"]))
def test_canonical_report_matches_recording(docs_dir, job):
    # the whole printed text against the stdlib's rendering of the recorded
    # canonical block beside the printed timing, so a change in the
    # report writer shows here too
    rc, text, err = run_job(docs_dir, job["doc"], job["args"])
    assert rc == job["exit"], err
    want = job["canonical"]
    if want is None:
        assert text == ""
        return
    report = {"format": 1, "canonical": want, "timing": json.loads(text)["timing"]}
    assert text == json.dumps(report, indent=2, ensure_ascii=False) + "\n"


def test_recorded_jobs_come_from_the_job_list():
    expected = [job_id(n, a) for n, a in job_list(documents())]
    recorded = [job_id(j["doc"], j["args"]) for j in _recorded()]
    assert recorded
    positions = [expected.index(r) for r in recorded]
    assert positions == sorted(positions)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        jobs = record(Path(tmp))
    DATA.parent.mkdir(exist_ok=True)
    lines = [json.dumps(job, ensure_ascii=False, separators=(",", ":"))
             for job in jobs]
    DATA.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"recorded {len(jobs)} jobs to {DATA}", file=sys.stderr)
