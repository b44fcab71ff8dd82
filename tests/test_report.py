"""The experiment-report stitcher and the bench session that runs it."""

import importlib.util
import types
from pathlib import Path

import pytest

from repro.evalx.report import (
    SECTIONS,
    collect_sections,
    render_report,
    write_report,
)


@pytest.fixture()
def results_dir(tmp_path):
    (tmp_path / "table_5_1.txt").write_text("Table 5.1 body\nrow\n")
    (tmp_path / "fig_1_1.txt").write_text("Fig 1.1 body\n")
    return tmp_path


class TestCollect:
    def test_found_and_missing(self, results_dir):
        sections = collect_sections(results_dir)
        assert len(sections) == len(SECTIONS)
        by_key = {s.key: s for s in sections}
        assert by_key["table_5_1"].body == "Table 5.1 body\nrow"
        assert by_key["table_5_2"].body is None


class TestRender:
    def test_render_contains_bodies_and_flags(self, results_dir):
        text = render_report(results_dir=results_dir)
        assert text.startswith("# Reproduction report")
        assert "Table 5.1 body" in text
        assert "*not generated in this run*" in text
        assert f"2/{len(SECTIONS)} experiment artifacts present" in text

    def test_every_known_section_titled(self, results_dir):
        text = render_report(results_dir=results_dir)
        for __, title in SECTIONS:
            assert title in text


class TestWrite:
    def test_write_report(self, results_dir, tmp_path):
        out = write_report(path=tmp_path / "out.md", results_dir=results_dir)
        assert out.exists()
        assert "Fig 1.1 body" in out.read_text()

    def test_default_target_inside_results(self, results_dir):
        out = write_report(results_dir=results_dir)
        assert out.parent == Path(results_dir)
        assert out.name == "REPORT.md"


BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def bench_conftest():
    """``benchmarks/conftest.py``, loaded as a plain module."""
    path = BENCH_DIR / "conftest.py"
    spec = importlib.util.spec_from_file_location("bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_session(names):
    """A finished session whose items come from the named bench modules."""
    items = [types.SimpleNamespace(path=BENCH_DIR / name) for name in names]
    return types.SimpleNamespace(items=items)


class TestBenchSessionReport:
    """Bench sessions stitch ``REPORT.md`` only when they ran every table."""

    @pytest.fixture()
    def conftest(self, monkeypatch, results_dir):
        module = bench_conftest()
        (results_dir / "REPORT.md").write_text("# committed report\n")
        monkeypatch.setattr(module, "RESULTS_DIR", results_dir)
        return module

    def test_one_module_session_leaves_report(self, conftest, results_dir):
        before = (results_dir / "REPORT.md").read_bytes()
        session = bench_session(["bench_table_5_3.py"] * 2)
        conftest.pytest_sessionfinish(session, 0)
        assert (results_dir / "REPORT.md").read_bytes() == before

    def test_full_session_stitches_report(self, conftest, results_dir):
        names = sorted(p.name for p in BENCH_DIR.glob("bench_*.py"))
        assert "bench_table_5_3.py" in names
        conftest.pytest_sessionfinish(bench_session(names), 0)
        report = (results_dir / "REPORT.md").read_text()
        assert report == render_report(results_dir=results_dir)
        assert "Table 5.1 body" in report
