//! End-to-end flow benchmark for the sft workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_irs|stitch48_p2|stitch48_p3|dft_12k> --seed N --seconds S --trace 0|1
//! ```
//!
//! Sets the workload up once, untimed. Then, until `--seconds` have
//! elapsed and at least `MIN_PASSES` have run, sets it up again (timed as
//! `setup_s`) and runs a timed pass: one flow at a time in one process, at
//! `Jobs::all_cores()`. Prints every metric by name with its unit, the
//! named failed operations, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans to `perfbench/out/`.

mod check;
mod flow;
mod heap;
mod rng;
mod trace;
mod workloads;

use flow::Outcome;
use sft_par::Jobs;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Flow, Meter};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Set-ups run in rounds, one before every timed pass, so their samples
/// span the same stretch of time as the passes. A round repeats set-up
/// until it has spent `SETUP_ROUND_SECONDS` (at least once, at most
/// `MAX_ROUND_SETUPS` times); `setup_s` is the median of all.
const SETUP_ROUND_SECONDS: f64 = 0.5;
const MAX_ROUND_SETUPS: usize = 20;
/// Timed passes per run at the least, so every timing is a median of
/// several. Three, not two: the host slows single passes by a quarter
/// at times, and a median of three leaves such a pass out where a median
/// of two averages it in.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", workloads::NAMES.join(", ")));
    }
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

const MB: f64 = 1024.0 * 1024.0;

/// Peak resident set size (VmHWM) of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` when there is one.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok().or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed.lines().find(|l| l.ends_with(r)).map(|l| l[..40.min(l.len())].to_string())
        }),
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    }
    .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// A metric as printed: name, value, unit.
struct Metric(String, f64, &'static str);

fn geomean(logs: &[f64]) -> f64 {
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// A typical pass's wall time: the sum, over the flow segments every pass
/// runs in the same order, of each segment's median across passes. The
/// segments cover the whole pass; a median per segment keeps a slow
/// stretch of the host that hits one segment of one pass out of the sum.
fn typical_pass(segments: &[Vec<f64>]) -> f64 {
    let n = segments.iter().map(Vec::len).max().unwrap_or(0);
    (0..n)
        .map(|i| median(&segments.iter().filter_map(|p| p.get(i).copied()).collect::<Vec<_>>()))
        .sum()
}

fn end_to_end(
    setup: &[f64],
    segments: &[Vec<f64>],
    heaps: &[f64],
    first: &Outcome,
    ok: f64,
) -> Vec<Metric> {
    let q = &first.quality;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    vec![
        Metric("setup_s".into(), median(setup), "s"),
        Metric("wall_s".into(), typical_pass(segments), "s"),
        Metric("peak_heap_mb".into(), median(heaps), "MB"),
        Metric("ok_ratio".into(), ok, "ratio"),
        Metric("sa_coverage".into(), ratio(q.sa_detected, q.sa_faults), "ratio"),
        Metric("test_vectors".into(), q.test_vectors as f64, "count"),
        Metric("test_coverage".into(), ratio(q.test_detected, q.test_testable), "ratio"),
    ]
}

/// Per-layer metrics from the traced passes.
struct Traced {
    self_s: Vec<BTreeMap<String, f64>>,
    flows: Vec<[f64; 5]>,
    walls: Vec<f64>,
    spans: usize,
}

fn per_layer(
    t: &Traced,
    untraced_walls: &[f64],
    first: &Outcome,
    ablation: &BTreeMap<String, f64>,
    jobs1_wall: f64,
    jobs: Jobs,
) -> Vec<Metric> {
    let k = &first.counters;
    let layer = |name: &str| {
        median(&t.self_s.iter().map(|m| m.get(name).copied().unwrap_or(0.0)).collect::<Vec<_>>())
    };
    let mut out: Vec<Metric> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric(name.to_string(), value, unit))
    };
    for name in [
        "io.parse",
        "io.write",
        "netlist.stats",
        "core.resynth",
        "bdd.equiv",
        "sim.entry",
        "sim.campaign",
        "delay.path_enum",
        "delay.pdf",
        "atpg.testgen",
    ] {
        push(&format!("{name}_s"), layer(name), "s");
    }
    for name in ["core.resynth_warm", "core.resynth_noverify", "atpg.testgen_nocompact"] {
        push(&format!("{name}_s"), ablation.get(name).copied().unwrap_or(0.0), "s");
    }
    for f in Flow::ALL {
        push(
            &format!("flow.{}_s", f.name()),
            median(&t.flows.iter().map(|x| x[f as usize]).collect::<Vec<_>>()),
            "s",
        );
    }
    push("io.bytes", k.io_bytes as f64, "bytes");
    push("io.reread_fail", k.io_reread_fail as f64, "count");
    push(
        "netlist.bytes_per_node",
        k.netlist_bytes as f64 / k.netlist_nodes.max(1) as f64,
        "B/node",
    );
    push("core.passes", k.core_passes as f64, "count");
    push("core.replacements", k.core_replacements as f64, "count");
    push("core.score_steps", k.core_score_steps as f64, "count");
    push("core.identify_misses", k.core_identify_misses as f64, "count");
    let lookups = k.core_identify_hits + k.core_identify_misses;
    push("core.identify_hit_rate", k.core_identify_hits as f64 / lookups.max(1) as f64, "ratio");
    push("core.verify_bdd_peak", k.core_verify_bdd_peak as f64, "nodes");
    let q = &first.quality;
    push("core.gates_ratio", geomean(&q.log_gates_ratio), "ratio");
    push("core.paths_ratio", geomean(&q.log_paths_ratio), "ratio");
    push("bdd.equiv_undecided", k.bdd_equiv_undecided as f64, "count");
    push("sim.patterns", k.sim_patterns as f64, "count");
    push("sim.faults", k.sim_faults as f64, "count");
    push("sim.detected", k.sim_detected as f64, "count");
    push("delay.paths", k.delay_paths as f64, "count");
    push("delay.pairs", k.delay_pairs as f64, "count");
    push("delay.blocks", k.delay_blocks as f64, "count");
    push("delay.robust_detected", k.delay_robust_detected as f64, "count");
    push("atpg.podem_targets", k.atpg_podem_targets as f64, "count");
    push("atpg.redundant", k.atpg_redundant as f64, "count");
    push("atpg.aborted", k.atpg_aborted as f64, "count");
    push("atpg.untargeted", k.atpg_untargeted as f64, "count");
    push("par.jobs", jobs.get() as f64, "count");
    push("par.jobs1_wall_s", jobs1_wall, "s");
    push("trace.wall_s", median(&t.walls), "s");
    push("trace.overhead_s", median(&t.walls) - median(untraced_walls), "s");
    push("trace.spans", t.spans as f64, "count");
    out
}

/// The first decision in which `b` differs from the reference pass `a`.
fn drift(what: &str, a: &Outcome, b: &Outcome) -> Option<String> {
    if a.decisions == b.decisions {
        return None;
    }
    let diff = a.decisions.iter().zip(&b.decisions).find(|(x, y)| x != y);
    Some(match diff {
        Some((x, y)) => format!("{what} drifted: {y} (reference: {x})"),
        None => format!("{what} drifted: decision count"),
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|Metric(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One round of set-ups (see `SETUP_ROUND_SECONDS`). Every set-up must
/// give the same bytes as the workload the run measures.
fn setup_round(
    args: &Args,
    setup_s: &mut Vec<f64>,
    reference: &workloads::Workload,
) -> Result<(), String> {
    let mut spent = 0.0;
    for _ in 0..MAX_ROUND_SETUPS {
        let start = Instant::now();
        let w = workloads::setup(&args.workload, args.seed).ok_or("unknown workload")?;
        let t = start.elapsed().as_secs_f64();
        setup_s.push(t);
        spent += t;
        if !reference.jobs.iter().map(|j| &j.bytes).eq(w.jobs.iter().map(|j| &j.bytes)) {
            return Err("set-up is not deterministic".into());
        }
        if spent >= SETUP_ROUND_SECONDS {
            break;
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let jobs = Jobs::all_cores();
    let mut setup_s = Vec::new();
    // The first set-up, in a cold process, builds the workload the run
    // measures; it is not timed.
    let w = workloads::setup(&args.workload, args.seed).ok_or("unknown workload")?;

    // Timed passes until --seconds have elapsed. The first pass's outcome
    // is the reference every later pass must reproduce, and the one the
    // checks and ablations use. It runs in a cold process (the allocator
    // maps its heap), a few percent slower on paper_irs: one sample of the
    // medians, not a separate untimed pass, which would cost each run a
    // pass. A traced run alternates untraced and traced passes so the
    // overhead is measured in-process.
    let start = Instant::now();
    let mut reference: Option<Outcome> = None;
    let mut walls = Vec::new();
    let mut heaps = Vec::new();
    let mut segments = Vec::new();
    let mut flows = Vec::new();
    let mut traced = Traced { self_s: Vec::new(), flows: Vec::new(), walls: Vec::new(), spans: 0 };
    let mut trace_passes = Vec::new();
    let mut wrong = BTreeSet::new();
    // Every pass makes the same operations, so a run counts the operations
    // of one pass and the failures by name: the counts are the same in
    // every run, however many passes fit in it.
    let mut failures = BTreeSet::new();
    let mut pass = 0usize;
    while pass < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        setup_round(args, &mut setup_s, &w)?;
        let is_traced = args.trace && !pass.is_multiple_of(2);
        let mut meter = Meter::new(is_traced);
        let held = heap::reset();
        let t0 = Instant::now();
        let outcome = flow::run_pass(&w, jobs, &mut meter);
        let wall = t0.elapsed().as_secs_f64();
        let heap_mb = (heap::peak() - held) as f64 / MB;
        let split: Vec<String> = Flow::ALL
            .iter()
            .map(|&f| format!("{} {:.4}", f.name(), meter.flow_s[f as usize]))
            .collect();
        println!(
            "pass {pass} wall {wall} s heap {heap_mb:.1} MB{} [{}]",
            if is_traced { " (traced)" } else { "" },
            split.join(", ")
        );
        if let Some(first) = &reference {
            if outcome.attempted != first.attempted || outcome.failures != first.failures {
                wrong.insert(format!("pass {pass} made or failed other operations than pass 0"));
            }
            wrong.extend(drift(&format!("pass {pass}"), first, &outcome));
        }
        failures.extend(outcome.failures.iter().cloned());
        wrong.extend(outcome.wrong.iter().cloned());
        if is_traced {
            traced.walls.push(wall);
            traced.flows.push(meter.flow_s);
            let spans = meter.into_spans();
            traced.spans = spans.len();
            traced.self_s.push(
                trace::self_times(&spans).into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            );
            trace_passes.push(spans);
        } else {
            walls.push(wall);
            segments.push(std::mem::take(&mut meter.segments));
            heaps.push(heap_mb);
            flows.push(meter.flow_s);
        }
        reference.get_or_insert(outcome);
        pass += 1;
    }
    let first = reference.ok_or("no pass ran")?;
    let rss = peak_rss_mb();

    let (checks, mismatches) = flow::independent_checks(&w, &first);
    failures.extend(mismatches.iter().cloned());
    wrong.extend(mismatches.iter().cloned());
    let attempted = first.attempted + checks;
    let failed = failures.len() as u64;

    let mut ablation_s = BTreeMap::new();
    let mut jobs1_wall = 0.0;
    if args.trace {
        let mut meter = Meter::new(true);
        wrong.extend(flow::ablations(&w, jobs, &mut meter, &first));
        let spans = meter.into_spans();
        ablation_s =
            trace::self_times(&spans).into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        trace_passes.push(spans);
        let t0 = Instant::now();
        let serial = flow::run_pass(&w, Jobs::serial(), &mut Meter::new(false));
        jobs1_wall = t0.elapsed().as_secs_f64();
        wrong.extend(drift("jobs=1 pass", &first, &serial));
    }

    let revision = git_revision();
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"git_revision\": \"{revision}\", \"available_parallelism\": {}, \"jobs\": {}, \"passes\": {}, \"traced_passes\": {}, \"setups\": {}, \"seconds\": {}, \"client\": \"closed loop, 1 client\"}}",
        w.name,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        jobs.get(),
        walls.len(),
        traced.walls.len(),
        setup_s.len(),
        args.seconds,
    );
    println!("meta {meta}");
    for f in &failures {
        println!("FAILED {f}");
    }
    for x in &wrong {
        println!("WRONG {x}");
    }
    let fail_ratio = failed as f64 / attempted as f64;
    println!("fail_ratio {fail_ratio} ratio ({failed} of {attempted} operations per pass)");
    for f in Flow::ALL {
        let t: Vec<f64> = flows.iter().map(|x: &[f64; 5]| x[f as usize]).collect();
        println!("{}_s {} s (median of {} passes)", f.name(), median(&t), t.len());
    }
    println!("peak_rss_mb {rss} MB (VmHWM of the process)");
    println!("pass_wall_s {} s (median of {} whole passes)", median(&walls), walls.len());
    let e2e = end_to_end(&setup_s, &segments, &heaps, &first, 1.0 - fail_ratio);
    let metrics = if args.trace {
        for Metric(n, v, u) in &e2e {
            println!("{n} {v} {u}");
        }
        // Pass 0 runs in a cold process; the overhead compares warm passes.
        let warm = if walls.len() > 1 { &walls[1..] } else { &walls[..] };
        let layers = per_layer(&traced, warm, &first, &ablation_s, jobs1_wall, jobs);
        std::fs::create_dir_all("perfbench/out").map_err(|e| e.to_string())?;
        let path = format!("perfbench/out/trace-{}-{}.json", w.name, args.seed);
        std::fs::write(&path, trace::to_json(&meta, &trace_passes)).map_err(|e| e.to_string())?;
        println!("trace {path}");
        layers
    } else {
        e2e
    };
    for Metric(n, v, u) in &metrics {
        println!("{n} {v} {u}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        wrong.is_empty(),
        json_metrics(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
