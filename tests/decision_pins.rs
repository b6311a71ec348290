//! Decision pins: every decision value the retired micro-benchmark tiers
//! recorded for their quick-mode rows (resynthesis, campaign, edit journal,
//! daemon, scale campaigns and arena layout), asserted as literals.
//!
//! Decisions are what a run *decides* — gate and path counts after
//! resynthesis, replacements, fault counts, detections, coverage, outcome
//! counts, arena shape — and must not depend on timing, caching, thread
//! count or which engine internals produced them. Timings are measured end
//! to end by `perfbench/`; these pins make any decision drift a test
//! failure. Thread-parallel paths run at one and at two workers and must
//! reproduce the same literals.

use sft::budget::Budget;
use sft::circuits::gen::{deep_dag, stitched, wide_multiplier};
use sft::circuits::random::RandomCircuitConfig;
use sft::circuits::suite_small;
use sft::core::{procedure2, resynthesize_with_budget, ResynthOptions};
use sft::netlist::{Circuit, GateKind, NodeId};
use sft::par::Jobs;
use sft::serve::{serve, ServeConfig, ServeSummary};
use sft::sim::{campaign, collapse, fault_list, CampaignConfig, Fault, FaultSimTables, FaultSite};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

const JOBS: [usize; 2] = [1, 2];

fn jobs(n: usize) -> Jobs {
    if n == 1 {
        Jobs::serial()
    } else {
        Jobs::new(n)
    }
}

/// The core every stitched composition repeats.
fn stitch_core() -> RandomCircuitConfig {
    RandomCircuitConfig { inputs: 32, outputs: 16, gates: 260, window: 56, seed: 0xB1 }
}

/// The wide, shallow 12K-gate random DAG of the scale and arena rows.
fn dag12k() -> Circuit {
    deep_dag(&RandomCircuitConfig {
        inputs: 256,
        outputs: 32,
        gates: 12_000,
        window: 2000,
        seed: 3,
    })
}

/// Procedure 2 on the small irs suite at 60 candidates per gate:
/// `(name, gates_after, paths_after, replacements)`.
#[test]
fn resynth_tier_decisions() {
    let expected = [("irs_a", 64, "318", 2), ("irs_d", 91, "336", 0), ("irs_f", 189, "190", 0)];
    let entries = suite_small();
    assert_eq!(entries.len(), expected.len());
    for (entry, &(name, gates_after, paths_after, replacements)) in entries.iter().zip(&expected) {
        assert_eq!(entry.name, name);
        for n in JOBS {
            let opts =
                ResynthOptions { max_candidates_per_gate: 60, jobs: jobs(n), ..Default::default() };
            let mut c = entry.circuit.clone();
            let report = procedure2(&mut c, &opts).expect("resynthesis verifies");
            assert_eq!(
                (report.gates_after, report.paths_after.to_string().as_str(), report.replacements),
                (gates_after, paths_after, replacements),
                "{name} jobs={n}"
            );
        }
    }
}

/// The Table-6-shaped campaign on the small irs suite, 4,096 patterns:
/// `(name, gates, faults, detected, coverage)`.
#[test]
fn sim_tier_decisions() {
    let expected = [
        ("irs_a", 64, 346, 345, "0.9971"),
        ("irs_d", 91, 448, 433, "0.9665"),
        ("irs_f", 189, 792, 792, "1.0000"),
    ];
    let entries = suite_small();
    for (entry, &(name, gates, faults, detected, coverage)) in entries.iter().zip(&expected) {
        assert_eq!(entry.name, name);
        assert_eq!(entry.circuit.two_input_gate_count(), gates, "{name}");
        let fault_list = fault_list(&entry.circuit);
        for n in JOBS {
            let cfg = CampaignConfig {
                max_patterns: 1 << 12,
                plateau: 0,
                seed: 0x5f7,
                jobs: jobs(n),
                ..CampaignConfig::default()
            };
            let r = campaign(&entry.circuit, &fault_list, &cfg);
            assert_eq!(
                (r.total_faults, r.detected, format!("{:.4}", r.coverage()).as_str()),
                (faults, detected, coverage),
                "{name} jobs={n}"
            );
        }
    }
}

/// A deterministic edit burst sized like one resynthesis candidate: up to
/// 32 gates narrowed to a `Not` of their first fanin (always acyclic), one
/// `Buf` appended per eight rewires. Returns the number of journaled edits.
fn edit_burst(c: &mut Circuit) -> usize {
    let mut rewires = 0;
    let mut edits = 0;
    for i in 0..c.len() {
        if rewires == 32 {
            break;
        }
        let id = NodeId::from_index(i);
        let node = c.node(id);
        if !node.kind().is_gate() || node.fanins().is_empty() {
            continue;
        }
        let first = node.fanins()[0];
        c.rewire(id, GateKind::Not, vec![first]).expect("existing fanin cannot cycle");
        rewires += 1;
        edits += 1;
        if rewires % 8 == 0 {
            c.add_gate(GateKind::Buf, vec![first]).expect("fanin exists");
            edits += 1;
        }
    }
    edits
}

/// Journaled edit bursts on the small irs suite, with maintained views
/// attached, rolled back: `(name, nodes, edits, restored)`.
#[test]
fn edit_tier_decisions() {
    let expected = [("irs_a", 97, 36, true), ("irs_d", 119, 36, true), ("irs_f", 265, 36, true)];
    for (entry, &(name, nodes, edits, restored)) in suite_small().iter().zip(&expected) {
        assert_eq!(entry.name, name);
        let mut c = entry.circuit.clone();
        c.enable_views();
        c.refresh_views();
        let pristine = c.clone();
        let cp = c.begin_edit();
        let burst = edit_burst(&mut c);
        c.rollback_to(cp);
        assert_eq!((entry.circuit.len(), burst, c == pristine), (nodes, edits, restored), "{name}");
    }
}

/// One drained daemon run over `n` jobs cycled from `entries`; returns the
/// summary and the result netlists by file name.
fn drain(
    root: &Path,
    cache: &Path,
    entries: &[sft::circuits::SuiteEntry],
    n: usize,
) -> (ServeSummary, BTreeMap<String, String>) {
    let incoming = root.join("jobs/incoming");
    std::fs::create_dir_all(&incoming).expect("create incoming");
    for i in 0..n {
        let text = sft::netlist::bench_format::write(&entries[i % entries.len()].circuit);
        std::fs::write(incoming.join(format!("job{i:02}.bench")), text).expect("write bench");
        std::fs::write(incoming.join(format!("job{i:02}.job")), "objective = gates\n")
            .expect("write job");
    }
    let config = ServeConfig {
        jobs: Jobs::new(2),
        queue: n,
        once: true,
        cache: Some(cache.to_path_buf()),
        handle_signals: false,
        poll: Duration::from_millis(1),
        ..ServeConfig::new(root)
    };
    let summary = serve(&config).expect("serve drains");
    let mut results = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("jobs/done")).expect("read done/") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|s| s.to_str()).unwrap_or_default().to_string();
        if name.ends_with(".bench") {
            results.insert(name, std::fs::read_to_string(&path).expect("read result"));
        }
    }
    (summary, results)
}

/// Six irs jobs drained by the daemon with a cold identification-cache
/// image, then again warm from the image the cold run persisted:
/// `(done, failed, shed)` both times, warm results identical to cold.
#[test]
fn serve_tier_decisions() {
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("sft-decision-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let image = scratch.join("identify.sigcache");
    let entries = suite_small();
    let (cold, cold_out) = drain(&scratch.join("cold"), &image, &entries, 6);
    let (warm, warm_out) = drain(&scratch.join("warm"), &image, &entries, 6);
    let _ = std::fs::remove_dir_all(&scratch);
    assert_eq!((cold.done, cold.failed, cold.shed), (6, 0, 0), "serve_cold");
    assert_eq!((warm.done, warm.failed, warm.shed), (6, 0, 0), "serve_warm");
    assert!(warm.cache_loads >= 1, "the warm run must load the persisted image");
    assert_eq!(cold_out, warm_out, "warm-cache results must be bit-identical to cold");
}

/// Scale-tier campaigns (seed 0x5ca1e, no plateau): `(gates, faults,
/// fault_classes, faults_ctrace, faults_dom, detected, coverage)`, where
/// `faults_ctrace` counts faults sited inside a fanout-free region and
/// `faults_dom` those whose region root has a proper dominator.
#[test]
fn scale_tier_decisions() {
    let rows = [
        ("mul32", wide_multiplier(32), 128, (5888, 31616, 29696, 11520, 0, 31152, "0.9853")),
        ("dag12k", dag12k(), 256, (8165, 42480, 40825, 9176, 12398, 7501, "0.1766")),
        (
            "stitch48",
            stitched(48, &stitch_core()),
            128,
            (11937, 57558, 53320, 25608, 286, 24884, "0.4323"),
        ),
    ];
    for (name, c, patterns, expected) in rows {
        let faults = fault_list(&c);
        let tables = FaultSimTables::snapshot(&c);
        let soa = tables.soa();
        let site = |f: &Fault| match f.site {
            FaultSite::Stem(n) => n.index(),
            FaultSite::Branch { gate, .. } => gate.index(),
        };
        let faults_ctrace = faults.iter().filter(|f| soa.ffr_interior(site(f))).count();
        let faults_dom =
            faults.iter().filter(|f| soa.idom(soa.ffr_root(site(f))).is_some()).count();
        let fault_classes = collapse(&c, &faults).len();
        for n in JOBS {
            let cfg = CampaignConfig {
                max_patterns: patterns,
                plateau: 0,
                seed: 0x5ca1e,
                jobs: jobs(n),
                ..CampaignConfig::default()
            };
            let r = campaign(&c, &faults, &cfg);
            let coverage = format!("{:.4}", r.coverage());
            assert_eq!(
                (
                    c.two_input_gate_count(),
                    r.total_faults,
                    fault_classes,
                    faults_ctrace,
                    faults_dom,
                    r.detected,
                    coverage.as_str()
                ),
                expected,
                "{name} jobs={n}"
            );
        }
    }
}

/// Arena layout of the generated 12K tier plus one step-budgeted
/// (2,000 steps) resynthesis pass at 20 candidates per gate:
/// `(nodes, fanin_refs, interned_names, replacements, gates_after)`.
#[test]
fn arena_tier_decisions() {
    let rows = [
        ("dag12k", dag12k(), (12256, 25676, 256, 0, 8165)),
        ("stitch48", stitched(48, &stitch_core()), (12090, 22491, 1536, 0, 11937)),
    ];
    for (name, c, expected) in rows {
        assert!(c.fanin_spans_flat(), "{name}: generators end swept, the pool must be flat");
        let mem = c.memory_stats();
        for n in JOBS {
            let opts =
                ResynthOptions { max_candidates_per_gate: 20, jobs: jobs(n), ..Default::default() };
            let budget = Budget::unlimited().with_step_limit(2_000);
            let mut work = c.clone();
            let report =
                resynthesize_with_budget(&mut work, &opts, &budget).expect("resynthesis verifies");
            assert_eq!(
                (
                    mem.nodes,
                    mem.pool_live,
                    mem.interned_names,
                    report.replacements,
                    report.gates_after
                ),
                expected,
                "{name} jobs={n}"
            );
        }
    }
}
