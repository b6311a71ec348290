//! Cross-format round-trip properties: every circuit must survive
//! `.bench` → Verilog → `.bench` and `.bench` → AIGER → `.bench` (and the
//! LUT-covering detour) with **bit-identical fault-simulation decisions**
//! on the fault sites both sides share.
//!
//! Two signature tiers, matching the preservation contract of
//! `docs/formats.md`:
//!
//! - **Boundary signature** (all formats): output words plus the exact
//!   detection masks of every primary-input stem fault over deterministic
//!   pattern blocks. An input-stem fault replaces the function by its
//!   cofactor, so its detections depend only on the circuit *function* —
//!   comparable across arbitrary re-structurings (AIG decomposition, LUT
//!   covering).
//! - **Named-stem signature** (Verilog only, gate-for-gate mapping):
//!   detection masks of stuck-at faults on every named internal stem that
//!   exists on both sides under the writer's name sanitization.
//!
//! Exercised over the `irs*` suite, seeded random DAGs, and every
//! committed corpus circuit (the regression pin behind `sft convert`).

use proptest::prelude::*;
use sft_circuits::random::{random_circuit, RandomCircuitConfig};
use sft_circuits::suite;
use sft_io::{parse_bytes, verilog, write_bytes, Format, WriteOptions};
use sft_netlist::{Circuit, NodeId};
use sft_sim::{pattern_block, Fault, FaultSim, FaultSimTables};
use std::collections::HashMap;

const SIG_SEED: u64 = 0x10F0_0815;
const SIG_BLOCKS: u64 = 4; // 4 × 64 = 256 deterministic patterns

/// Detection masks for `faults` over the deterministic pattern blocks.
fn detect_signature(c: &Circuit, faults: &[Fault]) -> Vec<Vec<u64>> {
    let mut fsim = FaultSim::new(c);
    (0..SIG_BLOCKS)
        .map(|b| fsim.detect_masks(faults, &pattern_block(SIG_SEED, b, c.inputs().len())))
        .collect()
}

/// Output words over the deterministic pattern blocks (the fault-free half
/// of the signature).
fn function_signature(c: &Circuit) -> Vec<Vec<u64>> {
    let tables = FaultSimTables::snapshot(c);
    let mut values = Vec::new();
    (0..SIG_BLOCKS)
        .map(|b| {
            tables.soa().eval_into(&pattern_block(SIG_SEED, b, c.inputs().len()), &mut values);
            c.outputs().iter().map(|o| values[o.index()]).collect()
        })
        .collect()
}

/// Both polarities of every primary-input stem fault, in input order.
fn input_faults(c: &Circuit) -> Vec<Fault> {
    c.inputs().iter().flat_map(|&i| [Fault::stem(i, false), Fault::stem(i, true)]).collect()
}

/// The boundary signature shared by *all* formats: function words and
/// PI-stem fault detections must be bit-identical.
fn assert_boundary_signature(a: &Circuit, b: &Circuit, tag: &str) {
    assert_eq!(a.inputs().len(), b.inputs().len(), "{tag}: input count changed");
    assert_eq!(a.outputs().len(), b.outputs().len(), "{tag}: output count changed");
    assert_eq!(function_signature(a), function_signature(b), "{tag}: function diverged");
    assert_eq!(
        detect_signature(a, &input_faults(a)),
        detect_signature(b, &input_faults(b)),
        "{tag}: input-stem fault decisions diverged"
    );
}

/// Named gate stems present on both sides (Verilog preserves the netlist
/// gate-for-gate, so sanitization-stable names must keep their exact
/// stuck-at behaviour).
fn assert_named_stem_signature(a: &Circuit, b: &Circuit, tag: &str) {
    let named = |c: &Circuit| -> HashMap<String, NodeId> {
        c.iter()
            .filter(|(_, n)| n.kind().is_gate())
            .filter_map(|(id, n)| n.name().map(|s| (s.to_string(), id)))
            .collect()
    };
    let a_named = named(a);
    let b_named = named(b);
    let mut shared: Vec<&String> = a_named.keys().filter(|k| b_named.contains_key(*k)).collect();
    shared.sort();
    assert!(
        shared.len() * 2 >= a_named.len(),
        "{tag}: lost most named stems ({} of {} survive)",
        shared.len(),
        a_named.len()
    );
    let a_faults: Vec<Fault> = shared
        .iter()
        .flat_map(|k| [Fault::stem(a_named[*k], false), Fault::stem(a_named[*k], true)])
        .collect();
    let b_faults: Vec<Fault> = shared
        .iter()
        .flat_map(|k| [Fault::stem(b_named[*k], false), Fault::stem(b_named[*k], true)])
        .collect();
    assert_eq!(
        detect_signature(a, &a_faults),
        detect_signature(b, &b_faults),
        "{tag}: named-stem fault decisions diverged"
    );
}

fn roundtrip(c: &Circuit, format: Format) -> Circuit {
    let opts = WriteOptions::default();
    let bytes = write_bytes(c, format, &opts)
        .unwrap_or_else(|e| panic!("{}: {format} write failed: {e}", c.name()));
    parse_bytes(&bytes, format, c.name())
        .unwrap_or_else(|e| panic!("{}: {format} output rejected by own parser: {e}", c.name()))
}

/// Write → parse → write must be byte-stable from the second write for the
/// canonical text/binary formats.
fn assert_second_write_fixpoint(c: &Circuit, format: Format) {
    let opts = WriteOptions::default();
    let c1 = roundtrip(c, format);
    let w2 = write_bytes(&c1, format, &opts).unwrap();
    let c2 = parse_bytes(&w2, format, c.name()).unwrap();
    let w3 = write_bytes(&c2, format, &opts).unwrap();
    assert_eq!(w2, w3, "{}: {format} write is not a fixpoint from the second write", c.name());
}

#[test]
fn irs_suite_through_verilog() {
    for entry in suite() {
        let back = roundtrip(&entry.circuit, Format::Verilog);
        assert_boundary_signature(&entry.circuit, &back, entry.name);
        assert_named_stem_signature(&entry.circuit, &back, entry.name);
        assert_second_write_fixpoint(&entry.circuit, Format::Verilog);
    }
}

#[test]
fn irs_suite_through_aiger() {
    for entry in suite() {
        for format in [Format::AigerAscii, Format::AigerBinary] {
            let back = roundtrip(&entry.circuit, format);
            assert_boundary_signature(&entry.circuit, &back, entry.name);
            assert_second_write_fixpoint(&entry.circuit, format);
        }
    }
}

#[test]
fn irs_suite_through_lut_covering() {
    for entry in suite() {
        let back = roundtrip(&entry.circuit, Format::Lut);
        assert_boundary_signature(&entry.circuit, &back, entry.name);
        // `.lut` emission is deterministic (same circuit -> same bytes)
        // even though re-covering is not a textual fixpoint.
        let opts = WriteOptions::default();
        assert_eq!(
            write_bytes(&entry.circuit, Format::Lut, &opts).unwrap(),
            write_bytes(&entry.circuit, Format::Lut, &opts).unwrap(),
            "{}: .lut write is not deterministic",
            entry.name
        );
    }
}

/// The corpus regression pin: every committed circuit converts through
/// every format with bit-identical boundary fault decisions, exactly what
/// `sft convert` promises.
#[test]
fn corpus_conversions_pin_fault_decisions() {
    for stem in ["mul16", "add64", "alu32", "dag4k", "stitch16"] {
        let path = format!("corpus/{stem}.bench");
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let c = parse_bytes(&bytes, Format::Bench, stem).unwrap();
        for format in [Format::Verilog, Format::AigerAscii, Format::AigerBinary, Format::Lut] {
            let back = roundtrip(&c, format);
            assert_boundary_signature(&c, &back, &format!("{stem} via {format}"));
        }
        assert_named_stem_signature(&c, &roundtrip(&c, Format::Verilog), stem);
    }
}

/// The committed `.v` / `.aig` corpus variants are pinned byte-identical
/// to fresh conversions of their `.bench` sources (same guarantee the
/// generator corpus gives the `.bench` writer).
#[test]
fn corpus_converted_variants_are_byte_pinned() {
    let opts = WriteOptions::default();
    for (stem, bench, converted, format) in [
        ("add64", "corpus/add64.bench", "corpus/add64.v", Format::Verilog),
        ("alu32", "corpus/alu32.bench", "corpus/alu32.aig", Format::AigerBinary),
    ] {
        let c = parse_bytes(&std::fs::read(bench).unwrap(), Format::Bench, stem).unwrap();
        let fresh = write_bytes(&c, format, &opts).unwrap();
        let committed = std::fs::read(converted).unwrap_or_else(|e| panic!("{converted}: {e}"));
        assert_eq!(
            fresh, committed,
            "{converted} drifted from a fresh conversion of {bench}; \
             regenerate with `sft convert` (see corpus/README.md)"
        );
    }
}

/// Imported foreign Verilog keeps its module name; exported Verilog keeps
/// circuit names end to end (spot check with one irs entry).
#[test]
fn verilog_round_trip_keeps_names() {
    let entry = &suite()[0];
    let text = verilog::write(&entry.circuit).unwrap();
    let back = verilog::parse(&text).unwrap();
    assert_eq!(back.name(), entry.circuit.name());
    for (slot, _) in entry.circuit.outputs().iter().enumerate() {
        assert_eq!(
            back.output_name(slot).map(sft_io::sanitize),
            entry.circuit.output_name(slot).map(sft_io::sanitize),
            "{}: output label {slot} changed",
            entry.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seeded random DAGs hold the boundary signature through every
    /// format, and the named-stem signature through Verilog.
    #[test]
    fn random_dags_round_trip_all_formats(
        inputs in 2usize..10,
        outputs in 1usize..5,
        gates in 5usize..60,
        window in 3usize..24,
        seed in any::<u64>(),
    ) {
        let c = random_circuit(&RandomCircuitConfig { inputs, outputs, gates, window, seed });
        for format in [Format::Verilog, Format::AigerAscii, Format::AigerBinary, Format::Lut] {
            let back = roundtrip(&c, format);
            assert_boundary_signature(&c, &back, &format!("dag seed {seed} via {format}"));
        }
        assert_named_stem_signature(&c, &roundtrip(&c, Format::Verilog), "dag via verilog");
    }
}
