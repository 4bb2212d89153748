"""Flow rules DPL006/DPL007/DPL008: true positives, negatives,
suppression and baseline interplay, engine/CLI integration."""

from __future__ import annotations

import textwrap

from repro.lint.baseline import Baseline
from repro.lint.engine import LintConfig, LintEngine
from repro.lint.findings import Severity
from repro.lint.flow.rules import FLOW_RULES, flow_rule_ids


def run_tree(tmp_path, files, rules=None, flow=True, baseline=None):
    for rel, src in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(src))
    config = LintConfig(
        rule_ids=rules,
        flow=flow,
        root=str(tmp_path),
        baseline_path=baseline,
    )
    return LintEngine(config).run([str(tmp_path)])


SENSOR_PKG = {
    "sensors/__init__.py": "",
    "sensors/probe.py": """
        def load_reading():
            return 42.0
        """,
}

DIRECT_FLOW = {
    **SENSOR_PKG,
    "aggregation/__init__.py": "",
    "aggregation/relay.py": """
        from sensors.probe import load_reading

        def forward(server):
            value = load_reading()
            server.submit(value)
        """,
}


# ----------------------------------------------------------------------
# Registry surface
# ----------------------------------------------------------------------
def test_flow_rule_catalog():
    assert flow_rule_ids() == ["DPL006", "DPL007", "DPL008"]
    assert FLOW_RULES["DPL006"].severity is Severity.ERROR
    assert FLOW_RULES["DPL007"].severity is Severity.ERROR
    assert FLOW_RULES["DPL008"].severity is Severity.WARNING


# ----------------------------------------------------------------------
# DPL006 — unprivatized flow to sink
# ----------------------------------------------------------------------
class TestDpl006:
    def test_cross_module_flow_flagged(self, tmp_path):
        result = run_tree(tmp_path, DIRECT_FLOW, rules=["DPL006"])
        assert [f.rule_id for f in result.findings] == ["DPL006"]
        f = result.findings[0]
        assert f.path == "aggregation/relay.py"
        assert f.severity is Severity.ERROR
        assert "submit" in f.message

    def test_finding_carries_flow_witness(self, tmp_path):
        files = {
            **SENSOR_PKG,
            "aggregation/__init__.py": "",
            "runtime/__init__.py": "",
            "runtime/emit.py": """
                def publish(server, payload):
                    server.submit_all(payload)
                """,
            "aggregation/relay.py": """
                from sensors.probe import load_reading
                from runtime.emit import publish

                def forward(server):
                    publish(server, load_reading())
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL006"])
        assert [f.rule_id for f in result.findings] == ["DPL006"]
        f = result.findings[0]
        assert f.path == "runtime/emit.py"  # the sink site
        # Witness: source in relay.py → call hop → sink in emit.py.
        assert len(f.flow) >= 3
        assert f.flow[0].path == "aggregation/relay.py"
        assert any("publish" in step.note for step in f.flow)
        assert f.flow[-1].path == "runtime/emit.py"
        # And the witness survives JSON serialization.
        doc = f.to_dict()
        assert doc["flow"][0]["path"] == "aggregation/relay.py"

    def test_privatize_seam_sanitizes(self, tmp_path):
        files = dict(DIRECT_FLOW)
        files["aggregation/relay.py"] = """
            from sensors.probe import load_reading

            def forward(server, mech):
                value = mech.privatize(load_reading())
                server.submit(value)
            """
        result = run_tree(tmp_path, files, rules=["DPL006"])
        assert result.findings == []

    def test_accounted_release_sanitizes(self, tmp_path):
        files = dict(DIRECT_FLOW)
        files["aggregation/relay.py"] = """
            from sensors.probe import load_reading

            def forward(server, mech, acc):
                out = mech.release(load_reading(), accounting=acc)
                server.submit(out)
            """
        result = run_tree(tmp_path, files, rules=["DPL006"])
        assert result.findings == []

    def test_release_without_accounting_not_a_seam(self, tmp_path):
        files = dict(DIRECT_FLOW)
        files["aggregation/relay.py"] = """
            from sensors.probe import load_reading

            def forward(server, mech):
                out = mech.release(load_reading())
                server.submit(out)
            """
        result = run_tree(tmp_path, files, rules=["DPL006"])
        assert [f.rule_id for f in result.findings] == ["DPL006"]

    def test_simulation_sink_not_flagged(self, tmp_path):
        files = {
            **SENSOR_PKG,
            "sim/__init__.py": "",
            "sim/relay.py": """
                from sensors.probe import load_reading

                def forward(server):
                    server.submit(load_reading())
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL006"])
        assert result.findings == []

    def test_raw_param_name_is_a_source(self, tmp_path):
        files = {
            "aggregation/__init__.py": "",
            "aggregation/direct.py": """
                def push(server, raw_value):
                    server.submit(raw_value)
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL006"])
        assert [f.rule_id for f in result.findings] == ["DPL006"]

    def test_shape_metadata_is_not_data(self, tmp_path):
        files = {
            "aggregation/__init__.py": "",
            "aggregation/meta.py": """
                def push(server, true_values):
                    n_epochs, n_devices = true_values.shape
                    server.submit(n_devices)
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL006"])
        assert result.findings == []

    #: A store in the shape of ``ShmArena``: ``hold`` keeps arrays and
    #: returns refs, ``view`` reads an output block back.  Nothing in its
    #: method summaries links a view to what was held.
    ARENA = {
        "parallel/__init__.py": "",
        "parallel/store.py": """
            class Arena:
                def __init__(self):
                    self.held = []
                    self.blocks = []

                def hold(self, arrays):
                    self.held.extend(arrays)
                    return list(range(len(arrays)))

                def view(self, ref):
                    return self.blocks[ref]
            """,
        "aggregation/__init__.py": "",
    }

    def test_taint_follows_hold_then_view_into_print(self, tmp_path):
        files = {
            **self.ARENA,
            "aggregation/report.py": """
                from parallel.store import Arena

                def summarize(kernel, out):
                    return kernel.finish(out)

                def report(kernel, true_values, masks):
                    arena = Arena()
                    arena.hold([true_values, masks])
                    out = {"counts": arena.view(0)}
                    print(summarize(kernel, out))
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL006"])
        assert [f.rule_id for f in result.findings] == ["DPL006"]
        assert "print" in result.findings[0].message

    def test_taint_follows_a_held_ref_into_print(self, tmp_path):
        # A shard reads its columns through the ref ``hold`` returned.
        files = {
            **self.ARENA,
            "aggregation/report.py": """
                from parallel.store import Arena

                def report(true_values, masks):
                    arena = Arena()
                    truth_ref, mask_ref = arena.hold([true_values, masks])
                    print(truth_ref.columns(0, 4).attach())
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL006"])
        assert [f.rule_id for f in result.findings] == ["DPL006"]
        assert "print" in result.findings[0].message

    def test_clean_store_view_not_flagged(self, tmp_path):
        files = {
            **self.ARENA,
            "aggregation/report.py": """
                from parallel.store import Arena

                def report(true_values, masks):
                    arena = Arena()
                    arena.hold([true_values])
                    other = Arena()
                    refs = other.hold([masks])
                    print(other.view(refs[0]))
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL006"])
        assert result.findings == []


# ----------------------------------------------------------------------
# DPL007 — nondeterministic seed material
# ----------------------------------------------------------------------
class TestDpl007:
    def test_cpu_count_into_shard_plan_flagged(self, tmp_path):
        files = {
            "parallel/__init__.py": "",
            "parallel/plan.py": """
                import os

                def plan_shards(n, shards):
                    return [(i, shards) for i in range(shards)]

                def plan(n):
                    shards = os.cpu_count()
                    return plan_shards(n, shards)
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL007"])
        assert [f.rule_id for f in result.findings] == ["DPL007"]
        f = result.findings[0]
        assert f.severity is Severity.ERROR
        assert "cpu_count" in f.message

    def test_wall_clock_into_seed_kwarg_flagged(self, tmp_path):
        files = {
            "parallel/__init__.py": "",
            "parallel/seeds.py": """
                import time

                def go(make_source):
                    return make_source(seed=time.time())
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL007"])
        assert [f.rule_id for f in result.findings] == ["DPL007"]
        assert "seed" in result.findings[0].message

    def test_config_derived_seed_is_clean(self, tmp_path):
        files = {
            "parallel/__init__.py": "",
            "parallel/plan.py": """
                DEFAULT_SHARDS = 8

                def plan_shards(n, shards):
                    return [(i, shards) for i in range(shards)]

                def plan(n, shards=DEFAULT_SHARDS):
                    return plan_shards(n, shards)
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL007"])
        assert result.findings == []

    def test_wall_clock_benchmarking_without_seed_sink_is_clean(self, tmp_path):
        files = {
            "parallel/__init__.py": "",
            "parallel/bench.py": """
                import time

                def bench(fn):
                    start = time.perf_counter()
                    fn()
                    return time.perf_counter() - start
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL007"])
        assert result.findings == []


# ----------------------------------------------------------------------
# DPL008 — ε-arithmetic drift
# ----------------------------------------------------------------------
class TestDpl008:
    def test_epsilon_literal_arithmetic_flagged(self, tmp_path):
        files = {
            "aggregation/__init__.py": "",
            "aggregation/budget.py": """
                def half_budget(epsilon):
                    return epsilon * 0.5
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL008"])
        assert [f.rule_id for f in result.findings] == ["DPL008"]
        assert result.findings[0].severity is Severity.WARNING

    def test_epsilon_attribute_source(self, tmp_path):
        files = {
            "runtime/__init__.py": "",
            "runtime/scale.py": """
                def scale(accountant):
                    return accountant.epsilon + 1.0
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL008"])
        assert [f.rule_id for f in result.findings] == ["DPL008"]

    def test_seam_directories_exempt(self, tmp_path):
        files = {
            "privacy/__init__.py": "",
            "privacy/accounting.py": """
                def half_budget(epsilon):
                    return epsilon * 0.5
                """,
            "mechanisms/__init__.py": "",
            "mechanisms/calib.py": """
                def lam(epsilon, d):
                    return d / (epsilon / 2.0)
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL008"])
        assert result.findings == []

    def test_validation_comparison_not_flagged(self, tmp_path):
        files = {
            "aggregation/__init__.py": "",
            "aggregation/check.py": """
                def validate(epsilon):
                    if epsilon <= 0:
                        raise ValueError("epsilon must be positive")
                    return epsilon
                """,
        }
        result = run_tree(tmp_path, files, rules=["DPL008"])
        assert result.findings == []


# ----------------------------------------------------------------------
# Engine integration: suppression, baseline, selection
# ----------------------------------------------------------------------
class TestFlowIntegration:
    def test_flow_findings_respect_suppressions(self, tmp_path):
        files = dict(DIRECT_FLOW)
        files["aggregation/relay.py"] = """
            from sensors.probe import load_reading

            def forward(server):
                value = load_reading()
                server.submit(value)  # dplint: allow[DPL006] -- demo path
            """
        result = run_tree(tmp_path, files, rules=["DPL006"])
        assert result.findings == []
        assert result.n_suppressed == 1

    def test_flow_findings_baseline_round_trip(self, tmp_path):
        result = run_tree(tmp_path, DIRECT_FLOW, rules=["DPL006"])
        assert len(result.all_findings) == 1
        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(result.all_findings).write(str(baseline_path))
        again = run_tree(
            tmp_path,
            {},  # tree already written
            rules=["DPL006"],
            baseline=str(baseline_path),
        )
        assert again.ok and again.n_baselined == 1

    def test_flow_disabled_by_default(self, tmp_path):
        result = run_tree(tmp_path, DIRECT_FLOW, flow=False)
        assert all(f.rule_id not in FLOW_RULES for f in result.findings)

    def test_selecting_flow_rule_implies_flow(self, tmp_path):
        # flow=False, but an explicit --rules DPL006 still runs the pass.
        result = run_tree(tmp_path, DIRECT_FLOW, rules=["DPL006"], flow=False)
        assert [f.rule_id for f in result.findings] == ["DPL006"]

    def test_per_file_selection_skips_flow(self, tmp_path):
        result = run_tree(tmp_path, DIRECT_FLOW, rules=["DPL001"], flow=True)
        assert result.findings == []
