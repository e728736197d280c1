"""Tests for the bench perf-regression gate (``repro bench --gate``).

The timing-sensitive half of the gate runs in CI against the committed
baseline artifact; these tests pin the *logic* with synthetic artifacts so
they are deterministic on any host.
"""

from __future__ import annotations

import json

from _helpers import run_cli

from repro.exp.cli import evaluate_bench_gate


def _artifact(figures):
    return {"artifact": "repro-bench", "figures": figures}


def _figure(serial, parallel):
    return {
        "serial_seconds": serial,
        "parallel_seconds": parallel,
        "speedup": serial / parallel if parallel else 0.0,
        "simulations": 24,
    }


def test_gate_passes_on_clear_improvement():
    baseline = _artifact({"fig7": _figure(13.5, 16.3)})
    current = _artifact({"fig7": _figure(4.5, 2.6)})
    ok, lines = evaluate_bench_gate(current, baseline)
    assert ok
    assert any("fig7" in line and "ok" in line for line in lines)


def test_gate_fails_when_improvement_is_below_threshold():
    baseline = _artifact({"fig7": _figure(13.5, 16.3)})
    current = _artifact({"fig7": _figure(8.0, 4.0)})  # only 1.69x
    ok, lines = evaluate_bench_gate(current, baseline, min_improvement=2.0)
    assert not ok
    assert any("FAIL" in line for line in lines)


def test_gate_fails_when_parallel_is_not_faster_than_serial():
    baseline = _artifact({"fig7": _figure(13.5, 16.3)})
    current = _artifact({"fig7": _figure(4.0, 4.5)})  # speedup 0.89
    ok, _ = evaluate_bench_gate(current, baseline)
    assert not ok


def test_gate_requires_strictly_greater_speedup():
    baseline = _artifact({"fig7": _figure(10.0, 10.0)})
    current = _artifact({"fig7": _figure(4.0, 4.0)})  # speedup exactly 1.0
    ok, _ = evaluate_bench_gate(current, baseline)
    assert not ok


def test_gate_checks_every_shared_figure():
    baseline = _artifact({"fig7": _figure(13.5, 16.3), "sec52": _figure(6.6, 7.5)})
    current = _artifact(
        {"fig7": _figure(4.5, 2.6), "sec52": _figure(6.0, 3.0)}  # sec52 only 1.1x
    )
    ok, lines = evaluate_bench_gate(current, baseline)
    assert not ok
    assert len(lines) == 2


def test_gate_rejects_non_bench_baselines_without_crashing():
    """A readable JSON that is not a bench artifact fails cleanly (no KeyError)."""
    not_a_bench = {"figures": {"fig7": {"results": [1, 2, 3]}}}
    ok, lines = evaluate_bench_gate(_artifact({"fig7": _figure(1.0, 0.5)}), not_a_bench)
    assert not ok
    assert "serial_seconds" in lines[0]


def test_gate_with_no_shared_figures_fails_loudly():
    ok, lines = evaluate_bench_gate(
        _artifact({"fig7": _figure(1.0, 0.5)}), _artifact({"sec52": _figure(1.0, 0.5)})
    )
    assert not ok
    assert "share no figures" in lines[0]


def test_gate_thresholds_are_tunable():
    baseline = _artifact({"fig7": _figure(10.0, 12.0)})
    current = _artifact({"fig7": _figure(9.0, 6.0)})  # 1.11x improvement, 1.5x speedup
    ok, _ = evaluate_bench_gate(current, baseline, min_improvement=1.05, min_speedup=1.2)
    assert ok
    ok, _ = evaluate_bench_gate(current, baseline, min_improvement=1.2, min_speedup=1.2)
    assert not ok


def test_cli_gate_exit_codes(tmp_path):
    """End-to-end: ``repro bench --gate`` exits 0 / 1 / 2 appropriately.

    Uses a tiny trace length so the timed runs are fast; the gate thresholds
    are relaxed to near-zero because this test asserts plumbing (artifact
    written, baseline read, exit code), not performance.
    """
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps(_artifact({"fig7": _figure(1_000.0, 1_000_000.0)}))
    )
    output = tmp_path / "bench.json"
    done = run_cli(
        [
            "bench",
            "--figures",
            "fig7",
            "--instructions",
            "300",
            "--jobs",
            "2",
            "--output",
            str(output),
            "--gate",
            str(baseline_path),
            "--gate-min-improvement",
            "0.0001",
            "--gate-min-speedup",
            "0.0001",
        ],
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert "bench gate passed" in done.stdout
    artifact = json.loads(output.read_text())
    assert artifact["engine"] == "fast"
    assert "cpu_count" in artifact
    assert "fig7" in artifact["figures"]

    # An impossible improvement threshold must fail with exit code 1.
    done = run_cli(
        [
            "bench",
            "--figures",
            "fig7",
            "--instructions",
            "300",
            "--output",
            str(output),
            "--gate",
            str(baseline_path),
            "--gate-min-improvement",
            "1e12",
        ],
        cwd=tmp_path,
    )
    assert done.returncode == 1
    assert "bench gate FAILED" in done.stderr

    # A missing baseline is a usage error (exit code 2).
    done = run_cli(
        [
            "bench",
            "--figures",
            "fig7",
            "--instructions",
            "300",
            "--output",
            str(output),
            "--gate",
            str(tmp_path / "missing.json"),
        ],
        cwd=tmp_path,
    )
    assert done.returncode == 2


def test_gate_never_overwrites_its_baseline(tmp_path):
    """Regression: ``--output`` used to default to the tracked baseline and be
    written before ``--gate`` was read, so ``repro bench --gate BASELINE``
    overwrote the baseline and then compared the run with itself."""
    baseline_path = tmp_path / "baseline.json"
    baseline_text = json.dumps(_artifact({"fig7": _figure(1_000.0, 1_000_000.0)}))
    baseline_path.write_text(baseline_text)
    # The same file under two spellings is refused before anything runs.
    done = run_cli(
        [
            "bench",
            "--figures", "fig7",
            "--instructions", "300",
            "--output", str(tmp_path / "sub" / ".." / "baseline.json"),
            "--gate", "baseline.json",
        ],
        cwd=tmp_path,
    )
    assert done.returncode == 2
    assert "same file" in done.stderr
    assert baseline_path.read_text() == baseline_text

    # The default --output is an untracked BENCH.json next to the baseline.
    done = run_cli(
        [
            "bench",
            "--figures", "fig7",
            "--instructions", "300",
            "--jobs", "2",
            "--gate", "baseline.json",
            "--gate-min-improvement", "0.0001",
            "--gate-min-speedup", "0.0001",
        ],
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert baseline_path.read_text() == baseline_text
    assert json.loads((tmp_path / "BENCH.json").read_text())["artifact"] == "repro-bench"


def test_bench_artifact_is_self_describing(tmp_path):
    """The artifact records engine, git revision and a per-phase breakdown
    whose serial phases account for (almost all of) the serial wall time."""
    output = tmp_path / "bench.json"
    done = run_cli(
        [
            "bench",
            "--figures", "fig7",
            "--instructions", "300",
            "--jobs", "2",
            "--output", str(output),
        ],
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    artifact = json.loads(output.read_text())
    assert artifact["engine"] == "fast"
    assert "git_revision" in artifact  # None outside a checkout, hash inside
    figure = artifact["figures"]["fig7"]
    serial_phases = figure["phases"]["serial"]
    assert set(serial_phases) >= {"generation", "build", "warmup", "drive"}
    phase_sum = sum(serial_phases.values())
    assert phase_sum <= figure["serial_seconds"] * 1.05
    assert phase_sum >= figure["serial_seconds"] * 0.5, (
        f"phases {serial_phases} explain too little of "
        f"{figure['serial_seconds']}s serial wall time"
    )
    assert "parallel" in figure["phases"]


def test_git_revision_is_the_package_checkout_not_the_cwd(tmp_path):
    """The artifact must record the revision of the repro code itself, even
    when bench runs from an unrelated directory (or an unrelated repo)."""
    import os
    import subprocess

    from _helpers import REPO_ROOT

    from repro.exp.cli import _git_revision

    expected = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    # From an unrelated plain directory -- and from an unrelated *git repo*
    # -- the resolved revision must still be this package's checkout.
    foreign = tmp_path / "foreign"
    foreign.mkdir()
    subprocess.run(["git", "init", "-q", str(foreign)], check=True)
    cwd = os.getcwd()
    try:
        for where in (tmp_path, foreign):
            os.chdir(where)
            assert _git_revision() == expected
    finally:
        os.chdir(cwd)
