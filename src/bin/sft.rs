//! `sft` — command-line driver for the synthesis-for-testability flow.
//!
//! ```text
//! sft stats      <in>                            circuit statistics
//! sft resynth    <in> <out> [opts]               Procedures 2/3
//! sft redundancy <in> <out>                      redundancy removal
//! sft testgen    <in>                            compact stuck-at test set
//! sft equiv      <a> <b>                         BDD equivalence check
//! sft techmap    <in>                            map & report literals/depth
//! sft pdf        <in> [--pairs N]                robust PDF campaign
//! sft convert    <in> <out>                      circuit format conversion
//! sft export     <in> (--verilog|--dot)          one-shot stdout export
//! sft serve      <root> [opts]                   job-directory daemon
//! sft gen        <kind> <out> [opts]             scale-tier circuit generation
//! ```
//!
//! Every command that reads or writes a circuit file speaks all the
//! formats of `docs/formats.md`: ISCAS-89 `.bench`, structural Verilog
//! (`.v`), ASCII/binary AIGER (`.aag`/`.aig`) and LUT-k coverings
//! (`.lut`). The format is chosen by file extension (unknown extensions
//! default to `.bench`) and can be forced with `--from <fmt>` for inputs
//! and `--to <fmt>` for outputs; `--lut-k N` sets the cut width of `.lut`
//! output. `sft convert a.bench b.aig` is the dedicated converter.
//!
//! `sft gen` kinds: `mul`/`adder`/`alu` (arithmetic, `--width N`), `dag`
//! (sliding-window random DAG, `--inputs/--outputs/--gates/--window/--seed`)
//! and `stitch` (`--copies N` XOR-checksummed random cores, same shape
//! options per core). Generation is deterministic in the parameters.
//!
//! Resynthesis options: `--objective gates|paths|combined`, `--k N`,
//! `--negation`, `--covers N`, `--dont-cares`.
//!
//! Effort options (resynth, testgen, pdf): `--time-limit <dur>` (e.g.
//! `500ms`, `10s`, `2m`, `1h`, or bare seconds) and `--step-limit <N>`
//! bound the run. An exhausted budget is not an error: the command prints
//! the stop reason, writes the best verified partial result, and exits 0.
//!
//! Parallelism (testgen, pdf): `--jobs N` runs the fault-simulation loops
//! on `N` worker threads (`0` or `all` = every core; default: all cores).
//! Results are bit-identical at any value; `--jobs 1` additionally
//! restores the exact single-threaded execution order. `resynth` accepts
//! `--jobs` and scores its candidates on the calling thread.
//!
//! Fault simulation (testgen's random phase, fault dropping and
//! compaction) runs one engine: critical-path tracing inside fanout-free
//! regions with dominator-gated stem observability. It has no options.
//!
//! `sft serve <root>` watches `<root>/jobs/incoming/` for `.bench`+`.job`
//! pairs and writes results to `<root>/jobs/done|failed/`. Options:
//! `--jobs N` concurrent jobs, `--queue N` waiting slots before shedding,
//! `--once` (drain and exit), `--cache <path>|off` (identification-cache
//! image; default `<root>/jobs/cache/identify.sigcache`), `--time-limit` /
//! `--step-limit` default per-job budgets, `--max-attempts N` and
//! `--stats-every <dur>`. Stop with SIGINT/SIGTERM (once = drain, twice =
//! cancel in-flight) or by creating `<root>/jobs/control/stop`.

use sft::atpg::{generate_test_set_with_budget, remove_redundancies, TestSetOptions};
use sft::budget::{Budget, StopReason};
use sft::circuits::{gen, random::RandomCircuitConfig};
use sft::core::{resynthesize_with_budget, Objective, ResynthOptions};
use sft::delay::{pdf_campaign_with_budget, PdfCampaignConfig};
use sft::io::{Format, WriteOptions};
use sft::netlist::{export, Circuit};
use sft::par::Jobs;
use sft::techmap::{map_circuit, Library};
use std::process::ExitCode;
use std::time::Duration;

/// Resolves the circuit format for `path`: an explicit `--from`/`--to`
/// name wins, otherwise the file extension decides, defaulting to
/// `.bench` for unknown extensions.
fn format_for(path: &str, forced: Option<&str>) -> Result<Format, String> {
    match forced {
        Some(name) => Format::from_name(name).ok_or_else(|| {
            format!("unknown format {name:?} (use bench, verilog, aag, aig or lut)")
        }),
        None => Ok(Format::from_path(std::path::Path::new(path)).unwrap_or(Format::Bench)),
    }
}

/// Reads a circuit in the format named by `--from` or the extension.
fn load(path: &str, args: &[String]) -> Result<Circuit, String> {
    let format = format_for(path, opt(args, "--from").as_deref())?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit")
        .to_string();
    sft::io::parse_bytes(&bytes, format, &name).map_err(|e| format!("{path}: {e}"))
}

/// Writes a circuit in the format named by `--to` or the extension.
fn save(path: &str, circuit: &Circuit, args: &[String]) -> Result<(), String> {
    let format = format_for(path, opt(args, "--to").as_deref())?;
    let mut options = WriteOptions::default();
    if let Some(k) = opt(args, "--lut-k") {
        options.lut_k = k.parse().map_err(|_| format!("bad --lut-k value {k:?}"))?;
    }
    let bytes =
        sft::io::write_bytes(circuit, format, &options).map_err(|e| format!("{path}: {e}"))?;
    std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}"))
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// Options that take a value; their value token is not a positional arg.
const VALUE_OPTIONS: &[&str] = &[
    "--objective",
    "--k",
    "--covers",
    "--pairs",
    "--time-limit",
    "--step-limit",
    "--jobs",
    "--queue",
    "--cache",
    "--max-attempts",
    "--stats-every",
    "--width",
    "--inputs",
    "--outputs",
    "--gates",
    "--window",
    "--seed",
    "--copies",
    "--from",
    "--to",
    "--lut-k",
];

/// Parses `--jobs` (default: all cores; `--jobs 1` = exact serial order).
fn jobs_from(args: &[String]) -> Result<Jobs, String> {
    match (flag(args, "--jobs"), opt(args, "--jobs")) {
        (true, None) => Err("--jobs needs a value (a number, 0 or \"all\")".into()),
        (_, Some(v)) => v.parse().map_err(|e| format!("--jobs: {e}")),
        _ => Ok(Jobs::all_cores()),
    }
}

/// The non-flag arguments, in order, so flags may appear anywhere
/// (`sft resynth --time-limit 0s in.bench out.bench` works).
fn positionals(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if VALUE_OPTIONS.contains(&a.as_str()) {
            skip = true;
        } else if !a.starts_with("--") {
            out.push(a);
        }
    }
    out
}

/// Parses `10s`, `500ms`, `2m`, `1h` or bare seconds (`15`).
fn parse_duration(text: &str) -> Result<Duration, String> {
    let text = text.trim();
    let (number, unit) = match text.find(|c: char| !c.is_ascii_digit() && c != '.') {
        Some(i) => text.split_at(i),
        None => (text, "s"),
    };
    let value: f64 =
        number.parse().map_err(|_| format!("bad duration {text:?} (try 10s, 500ms, 2m)"))?;
    let seconds = match unit {
        "ms" => value / 1000.0,
        "s" => value,
        "m" => value * 60.0,
        "h" => value * 3600.0,
        other => return Err(format!("bad duration unit {other:?} (use ms, s, m or h)")),
    };
    if !seconds.is_finite() || seconds < 0.0 {
        return Err(format!("bad duration {text:?}"));
    }
    Ok(Duration::from_secs_f64(seconds))
}

/// Builds the effort budget from `--time-limit` / `--step-limit`.
fn budget_from(args: &[String]) -> Result<Budget, String> {
    let mut budget = Budget::unlimited();
    match (flag(args, "--time-limit"), opt(args, "--time-limit")) {
        (true, None) => return Err("--time-limit needs a value (e.g. 10s)".into()),
        (_, Some(limit)) => budget = budget.with_time_limit(parse_duration(&limit)?),
        _ => {}
    }
    match (flag(args, "--step-limit"), opt(args, "--step-limit")) {
        (true, None) => return Err("--step-limit needs a value".into()),
        (_, Some(limit)) => {
            let steps: u64 = limit.parse().map_err(|_| format!("bad step limit {limit:?}"))?;
            budget = budget.with_step_limit(steps);
        }
        _ => {}
    }
    Ok(budget)
}

/// One-line stop-reason note for budget-aware commands.
fn print_stop(reason: StopReason) {
    if reason.is_early() {
        println!("stopped early: {reason} (partial result kept)");
    } else {
        println!("stop reason: {reason}");
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return Err(
            "usage: sft <stats|resynth|redundancy|testgen|equiv|techmap|pdf|convert|export|serve|gen> \
                    ...\nsee `sft help`"
                .into(),
        );
    };
    let rest = &args[1..];
    match command.as_str() {
        "help" => {
            println!("see the crate README for full usage; commands:");
            println!(
                "  stats resynth redundancy testgen equiv techmap pdf convert export serve gen"
            );
            Ok(())
        }
        "stats" => {
            let files = positionals(rest);
            let c = load(files.first().ok_or("stats needs an input file")?, rest)?;
            println!("{}: {}", c.name(), c.stats());
            println!("{}: {}", c.name(), c.memory_stats());
            Ok(())
        }
        "resynth" => {
            let files = positionals(rest);
            let input = files.first().ok_or("resynth needs input and output files")?;
            let output = files.get(1).ok_or("resynth needs an output file")?;
            let mut c = load(input, rest)?;
            let objective = match opt(rest, "--objective").as_deref() {
                None | Some("gates") => Objective::Gates,
                Some("paths") => Objective::Paths,
                Some("combined") => Objective::Combined { gate_weight: 1, path_weight: 1 },
                Some(other) => return Err(format!("unknown objective {other:?}")),
            };
            let opts = ResynthOptions {
                objective,
                max_inputs: opt(rest, "--k").and_then(|v| v.parse().ok()).unwrap_or(5),
                allow_input_negation: flag(rest, "--negation"),
                max_cover_units: opt(rest, "--covers").and_then(|v| v.parse().ok()).unwrap_or(1),
                use_satisfiability_dont_cares: flag(rest, "--dont-cares"),
                jobs: jobs_from(rest)?,
                ..ResynthOptions::default()
            };
            let budget = budget_from(rest)?;
            let report =
                resynthesize_with_budget(&mut c, &opts, &budget).map_err(|e| e.to_string())?;
            println!("{report}");
            let stats = sft::core::identify_cache_stats();
            println!(
                "identify cache: {} hits, {} misses, {} entries ({:.1}% hit rate)",
                stats.hits,
                stats.misses,
                stats.entries,
                stats.hit_rate() * 100.0
            );
            print_stop(report.stop_reason);
            save(output, &c, rest)
        }
        "redundancy" => {
            let files = positionals(rest);
            let input = files.first().ok_or("redundancy needs input and output files")?;
            let output = files.get(1).ok_or("redundancy needs an output file")?;
            let mut c = load(input, rest)?;
            let report = remove_redundancies(&mut c, 50_000);
            println!(
                "{} removed, {} aborted, gates {} -> {}",
                report.removed, report.aborted, report.gates_before, report.gates_after
            );
            save(output, &c, rest)
        }
        "testgen" => {
            let files = positionals(rest);
            let c = load(files.first().ok_or("testgen needs an input file")?, rest)?;
            let budget = budget_from(rest)?;
            let opts = TestSetOptions { jobs: jobs_from(rest)?, ..TestSetOptions::default() };
            let set = generate_test_set_with_budget(&c, &opts, &budget);
            println!(
                "# {} faults, {} redundant, {} aborted, {} untargeted, coverage {:.2}%",
                set.total_faults,
                set.redundant,
                set.aborted,
                set.untargeted,
                set.coverage() * 100.0
            );
            if set.stop_reason.is_early() {
                println!("# stopped early: {} (partial test set kept)", set.stop_reason);
            }
            for v in &set.vectors {
                let s: String = v.iter().map(|&b| if b { '1' } else { '0' }).collect();
                println!("{s}");
            }
            Ok(())
        }
        "equiv" => {
            let files = positionals(rest);
            let a = load(files.first().ok_or("equiv needs two files")?, rest)?;
            let b = load(files.get(1).ok_or("equiv needs two files")?, rest)?;
            match sft::bdd::equivalent(&a, &b).map_err(|e| e.to_string())? {
                sft::bdd::CheckResult::Equivalent => {
                    println!("equivalent");
                    Ok(())
                }
                sft::bdd::CheckResult::Different { output, witness } => {
                    let w: String = witness.iter().map(|&x| if x { '1' } else { '0' }).collect();
                    Err(format!("NOT equivalent: output {output} differs on input {w}"))
                }
            }
        }
        "techmap" => {
            let files = positionals(rest);
            let c = load(files.first().ok_or("techmap needs an input file")?, rest)?;
            println!("{}", map_circuit(&c, &Library::standard()));
            Ok(())
        }
        "pdf" => {
            let files = positionals(rest);
            let c = load(files.first().ok_or("pdf needs an input file")?, rest)?;
            let cfg = PdfCampaignConfig {
                max_pairs: opt(rest, "--pairs").and_then(|v| v.parse().ok()).unwrap_or(1 << 14),
                jobs: jobs_from(rest)?,
                ..PdfCampaignConfig::default()
            };
            let budget = budget_from(rest)?;
            let r = pdf_campaign_with_budget(&c, &cfg, &budget).map_err(|e| e.to_string())?;
            println!(
                "{}/{} robust path delay faults detected ({:.2}%) in {} pairs",
                r.detected,
                r.total_faults,
                r.coverage() * 100.0,
                r.pairs_applied
            );
            print_stop(r.stop_reason);
            Ok(())
        }
        "convert" => {
            let files = positionals(rest);
            let input = files.first().ok_or("convert needs input and output files")?;
            let output = files.get(1).ok_or("convert needs an output file")?;
            let c = load(input, rest)?;
            save(output, &c, rest)?;
            println!(
                "{}: {} -> {} ({})",
                c.name(),
                format_for(input, opt(rest, "--from").as_deref())?,
                format_for(output, opt(rest, "--to").as_deref())?,
                c.stats()
            );
            Ok(())
        }
        "export" => {
            let files = positionals(rest);
            let c = load(files.first().ok_or("export needs an input file")?, rest)?;
            if flag(rest, "--verilog") {
                print!("{}", sft::io::verilog::write(&c).map_err(|e| e.to_string())?);
            } else if flag(rest, "--dot") {
                print!("{}", export::write_dot(&c));
            } else {
                return Err("export needs --verilog or --dot".into());
            }
            Ok(())
        }
        "gen" => {
            let files = positionals(rest);
            let kind =
                files.first().ok_or("gen needs a kind: mul, adder, alu, dag or stitch")?.as_str();
            let output = files.get(1).ok_or("gen needs an output file")?;
            let num = |name: &str, default: usize| -> Result<usize, String> {
                match opt(rest, name) {
                    Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {name}")),
                    None => Ok(default),
                }
            };
            let seed: u64 = match opt(rest, "--seed") {
                Some(v) => v.parse().map_err(|_| format!("bad seed {v:?}"))?,
                None => 1,
            };
            let c = match kind {
                "mul" => gen::wide_multiplier(num("--width", 32)?),
                "adder" => gen::wide_adder(num("--width", 64)?),
                "alu" => gen::alu(num("--width", 64)?),
                "dag" => gen::deep_dag(&RandomCircuitConfig {
                    inputs: num("--inputs", 64)?,
                    outputs: num("--outputs", 32)?,
                    gates: num("--gates", 100_000)?,
                    window: num("--window", 48)?,
                    seed,
                }),
                "stitch" => gen::stitched(
                    num("--copies", 100)?,
                    &RandomCircuitConfig {
                        inputs: num("--inputs", 32)?,
                        outputs: num("--outputs", 16)?,
                        gates: num("--gates", 260)?,
                        window: num("--window", 56)?,
                        seed,
                    },
                ),
                other => {
                    return Err(format!("unknown gen kind {other:?} (mul|adder|alu|dag|stitch)"))
                }
            };
            println!("{}: {}", c.name(), c.stats());
            save(output, &c, rest)
        }
        "serve" => {
            let files = positionals(rest);
            let root = files.first().ok_or("serve needs a root directory")?;
            let mut config = sft::serve::ServeConfig::new(root.as_str());
            config.jobs = jobs_from(rest)?;
            config.once = flag(rest, "--once");
            if let Some(queue) = opt(rest, "--queue") {
                config.queue = queue.parse().map_err(|_| format!("bad queue size {queue:?}"))?;
            }
            match opt(rest, "--cache").as_deref() {
                Some("off") => config.cache = None,
                Some(path) => config.cache = Some(path.into()),
                None => {}
            }
            if let Some(limit) = opt(rest, "--time-limit") {
                config.default_time_limit = Some(parse_duration(&limit)?);
            }
            if let Some(limit) = opt(rest, "--step-limit") {
                let steps: u64 = limit.parse().map_err(|_| format!("bad step limit {limit:?}"))?;
                config.default_step_limit = Some(steps);
            }
            if let Some(n) = opt(rest, "--max-attempts") {
                config.max_attempts = n.parse().map_err(|_| format!("bad attempt count {n:?}"))?;
                if config.max_attempts == 0 {
                    return Err("--max-attempts must be at least 1".into());
                }
            }
            if let Some(period) = opt(rest, "--stats-every") {
                config.stats_every = parse_duration(&period)?;
            }
            sft::serve::serve(&config).map_err(|e| e.to_string())?;
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; see `sft help`")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
