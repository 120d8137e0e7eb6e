"""tools/diff_scenarios.py: what it exports of a revision, and its report of how far the
differing files of two outputs lie apart."""

import importlib.util
import json
import os
import pathlib
import struct

import numpy as np

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "diff_scenarios.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("diff_scenarios", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def write_mafl(path, data, t=0.0):
    # maflow.io's layout: magic, n, res, period and t, then the float64 data
    path.write_bytes(struct.pack("<4sIIdd", b"MAFL", 1, 2, 1.0, t)
                     + np.asarray(data, dtype="<f8").tobytes())


def test_report_gives_the_largest_differences_of_series_and_fields(tmp_path):
    tool = load_tool()
    before, after = tmp_path / "before" / "run", tmp_path / "after" / "run"
    for d, sup, phi, meta in ((before, 0.5, 0.25, "1"), (after, 0.501, 0.25002, "2")):
        d.mkdir(parents=True)
        (d / "series.csv").write_text(f"t,sup\n0,0.5\n0.1,{sup!r}\n")
        write_mafl(d / "phi.mafl", [0.0, phi, 1.0, -1.0])
        (d / "meta.json").write_text(meta)
        (d / "same.txt").write_text("x")
    lines = tool.report(str(tmp_path / "before"), str(tmp_path / "after"))
    assert len(lines) == 3
    meta, phi, series = sorted(lines)
    assert meta.endswith("meta.json differ")
    assert phi.endswith("phi.mafl differ: max |diff| 2e-05")
    assert series.endswith("series.csv differ: max |diff| t 0, sup 0.001")
    assert tool.report(str(before), str(before)) == []


def write_verdicts(path, verdicts):
    path.write_text(json.dumps([{"name": name, "status": status, "slack": slack, "tolerance": 0.0}
                                for name, status, slack in verdicts], indent=1))


def test_report_names_the_verdicts_whose_status_changed(tmp_path):
    tool = load_tool()
    before, after = tmp_path / "before" / "run", tmp_path / "after" / "run"
    for d, verdicts in (
            (before, [("sup_bound", "pass", 0.5), ("minoinf", "pass", 1e-9),
                      ("volume_identity", "skip", None), ("minodot", "fail", -0.25)]),
            (after, [("sup_bound", "pass", 0.5003), ("minoinf", "fail", -2e-9),
                     ("volume_identity", "pass", 0.1), ("minodot", "fail", -0.25)])):
        d.mkdir(parents=True)
        write_verdicts(d / "verdicts.json", verdicts)
        (d / "limit.json").write_text(json.dumps({"converged": d is before}))
    limit, verdicts = sorted(tool.report(str(tmp_path / "before"), str(tmp_path / "after")))
    assert limit.endswith("limit.json differ")
    # the skip's slack is None: its status is named, its slack not measured
    assert verdicts.endswith("verdicts.json differ: status changed: minoinf pass -> fail, "
                             "volume_identity skip -> pass; max |slack change| 0.0003")
    write_verdicts(after / "verdicts.json", [("sup_bound", "pass", 0.5)])
    assert tool.how_far(str(before / "verdicts.json"), str(after / "verdicts.json")) \
        == "verdict names differ"


def test_export_holds_the_revisions_src_and_its_scenario_script(tmp_path):
    # the "before" outputs come from the revision's own script, run on its own src
    src = load_tool().export_src("HEAD", str(tmp_path))
    assert os.path.isfile(os.path.join(src, "maflow", "io.py"))
    assert os.path.isfile(os.path.join(os.path.dirname(src), "tools", "save_scenarios.py"))
