//! The process-wide comparison-identification memo tables.
//!
//! Exact identification ([`crate::identify`] with
//! [`IdentifyMethod::Exact`]) answers a question about the *function*, not
//! about any particular cone: whether some input permutation maps the
//! on-set onto one decimal interval. *Whether* such a permutation exists is
//! therefore a P-class invariant and is decided once per class, keyed by
//! the canonical signature from [`sft_canon`], in a shared
//! [`SigCache`].
//!
//! *Which* certificate the search returns is **not** class-invariant: two
//! P-equivalent tables can be witnessed by intervals with different bounds
//! (a single minterm is `[m, m]` for whatever value `m` the permutation
//! gives it), and the bounds feed [`crate::unit::unit_cost`] and the unit's
//! input ordering — so handing a remapped class certificate to a caller
//! could change replacement decisions. To keep memoized runs bit-identical
//! to cold runs, positive answers are served from a second table keyed by
//! the **exact** truth table, whose entries are always the certificate
//! [`identify`] itself produced for that very table. A positive class
//! verdict whose exact table has not been seen yet re-runs [`identify`]
//! directly — cheap, since constructing a witness is the fast path; the
//! expensive exhaustive refutations are exactly the negative verdicts the
//! class table shares.
//!
//! Queries probe the exact table **first**: canonicalizing a table costs
//! more than a typical 5-input exact search (the signature search explores
//! the same permutation space), so the class table only earns its keep on
//! *fresh* exact tables whose class has already been refuted or confirmed.
//! Repeat queries — the common case inside one circuit, where the same cut
//! function recurs along a regular structure — are answered by one hash
//! probe with no canonicalization at all.
//!
//! Both tables are shared across cones, passes, and circuits for the
//! lifetime of the process. [`identify_cache_stats`] exposes combined
//! hit/miss counters (surfaced by the CLI and the benchmark reports);
//! [`identify_cache_clear`] resets both tables for cold-start timing.
//!
//! Capped permutation search ([`IdentifyMethod::Permutations`]) is *not*
//! memoized: its verdict depends on where the cap cuts the enumeration, so
//! two P-equivalent tables can legitimately answer differently and a
//! class-keyed cache would change results. Those queries pass straight
//! through to [`identify`].
//!
//! A third table holds the **costs** of the certificates identification
//! hands out. [`unit_cost`] and [`cover_cost`] build the unit in a scratch
//! circuit and count its paths; both are pure functions of the
//! certificate(s), and a resynthesis run asks for the same few thousand
//! certificates hundreds of thousands of times. The resynthesis search
//! serves them from one process-wide table keyed by the certificate itself
//! (never by class — the bounds and permutation decide the cost).
//! [`identify_cache_clear`] empties it with the other two; it is neither
//! persisted nor counted in [`identify_cache_stats`].

use crate::cover::cover_cost;
use crate::identify::{identify, IdentifyMethod, IdentifyOptions};
use crate::unit::{unit_cost, UnitCost};
use crate::ComparisonSpec;
use sft_canon::persist::{self, ByteReader, PersistError};
use sft_canon::{signature_of, CacheStats, SigCache, Signature};
use sft_truth::TruthTable;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

static CLASS: OnceLock<SigCache<Option<ComparisonSpec>>> = OnceLock::new();
static EXACT: OnceLock<SigCache<Option<ComparisonSpec>>> = OnceLock::new();
static COSTS: OnceLock<Mutex<CostTable>> = OnceLock::new();

/// Memoized unit and cover costs; `None` records a certificate the builder
/// rejected.
#[derive(Default)]
struct CostTable {
    units: HashMap<ComparisonSpec, Option<Arc<UnitCost>>>,
    covers: HashMap<Vec<ComparisonSpec>, Option<Arc<UnitCost>>>,
}

fn class_cache() -> &'static SigCache<Option<ComparisonSpec>> {
    CLASS.get_or_init(SigCache::new)
}

fn exact_cache() -> &'static SigCache<Option<ComparisonSpec>> {
    EXACT.get_or_init(SigCache::new)
}

/// The cost table. Every update is a single insert of a finished value, so
/// a lock poisoned by a panicking holder still guards a consistent map.
fn cost_table() -> MutexGuard<'static, CostTable> {
    COSTS.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner)
}

/// Distinguishes option sets that could cache different answers. Only the
/// fields that influence an **exact** identification matter; the
/// permutation cap does not (it is ignored by the exact method).
fn options_salt(options: &IdentifyOptions) -> u64 {
    u64::from(options.try_complement)
}

/// The exact-table key: the raw (uncanonicalized) bits under the same salt.
fn exact_signature(f: &TruthTable, salt: u64) -> Signature {
    Signature { bits: f.bits(), inputs: f.inputs() as u8, salt }
}

/// Memoized [`identify`], bit-identical to the direct call: negative
/// verdicts are shared across the whole P-class, positive certificates are
/// replayed per exact truth table and are always the ones [`identify`]
/// produced for that table.
///
/// Falls back to a direct (uncached) call when `options.method` is not
/// [`IdentifyMethod::Exact`] — see the module docs for why capped searches
/// must not share a class-keyed cache.
pub fn identify_memo(f: &TruthTable, options: &IdentifyOptions) -> Option<ComparisonSpec> {
    if options.method != IdentifyMethod::Exact {
        return identify(f, options);
    }
    let salt = options_salt(options);
    let exact_sig = exact_signature(f, salt);
    if let Some(answer) = exact_cache().lookup(&exact_sig) {
        return answer;
    }
    let (sig, canon_perm) = signature_of(f, salt);
    let verdict = class_cache().get_or_insert_with(sig, || {
        identify(&TruthTable::from_bits(f.inputs(), sig.bits), options)
    });
    let answer = match verdict {
        None => None,
        Some(class_spec) => {
            // The class is a comparison class, so `f` has a certificate;
            // serve the one `identify` computes for `f` itself (the class
            // table's canonical certificate may be witnessed by a different
            // interval).
            let spec = identify(f, options).unwrap_or_else(|| {
                unreachable!("comparison-function existence is a P-class invariant")
            });
            debug_assert_eq!(
                {
                    // Cross-check the class certificate: remapped through
                    // the canonicalizing permutation it must certify `f`.
                    let remapped = ComparisonSpec {
                        perm: class_spec.perm.iter().map(|&j| canon_perm[j]).collect(),
                        ..class_spec
                    };
                    remapped.to_table()
                },
                *f,
                "remapped class certificate must certify f"
            );
            Some(spec)
        }
    };
    exact_cache().insert(exact_sig, answer.clone());
    answer
}

/// Combined counters of the process-wide identification tables: a *hit* is
/// a query answered from the exact table or from an already-decided class
/// verdict (either way the exponential existence search was skipped); a
/// *miss* is a query that had to decide a fresh class. `entries` counts
/// both tables.
pub fn identify_cache_stats() -> CacheStats {
    let class = class_cache().stats();
    let exact = exact_cache().stats();
    CacheStats {
        hits: exact.hits + class.hits,
        misses: class.misses,
        entries: class.entries + exact.entries,
    }
}

/// Clears both process-wide identification tables and their counters, and
/// the cost table. Benchmark harnesses call this before each timed run so
/// earlier runs (or other circuits) do not pre-warm the tables.
pub fn identify_cache_clear() {
    class_cache().clear();
    exact_cache().clear();
    let mut costs = cost_table();
    costs.units.clear();
    costs.covers.clear();
}

/// Memoized [`unit_cost`]: the same value, computed once per certificate
/// for the lifetime of the process (or until [`identify_cache_clear`]).
/// `None` when the builder rejects the certificate.
pub(crate) fn unit_cost_memo(spec: &ComparisonSpec) -> Option<Arc<UnitCost>> {
    let cached = cost_table().units.get(spec).cloned();
    cached.unwrap_or_else(|| {
        // Built outside the lock: a racing thread computes the same value.
        let cost = unit_cost(spec).ok().map(Arc::new);
        cost_table().units.insert(spec.clone(), cost.clone());
        cost
    })
}

/// Memoized [`cover_cost`], keyed by the whole ordered list of units.
/// `None` when the builder rejects the cover.
pub(crate) fn cover_cost_memo(specs: &[ComparisonSpec]) -> Option<Arc<UnitCost>> {
    let cached = cost_table().covers.get(specs).cloned();
    cached.unwrap_or_else(|| {
        let cost = cover_cost(specs).ok().map(Arc::new);
        cost_table().covers.insert(specs.to_vec(), cost.clone());
        cost
    })
}

/// Number of certificates (units plus covers) in the cost table.
pub fn cost_cache_entries() -> usize {
    let costs = cost_table();
    costs.units.len() + costs.covers.len()
}

/// Shards of the process-wide tables rebuilt after a panic poisoned their
/// lock (see [`SigCache::poison_recoveries`]). Surfaced by the daemon's
/// degradation counters.
pub fn identify_cache_poison_recoveries() -> u64 {
    class_cache().poison_recoveries() + exact_cache().poison_recoveries()
}

/// Encodes one identification table as a byte section: an entry count,
/// then the entries in the deterministic export order. Two tables with the
/// same entries encode byte-identically regardless of insertion order.
fn encode_table(cache: &SigCache<Option<ComparisonSpec>>) -> Vec<u8> {
    let entries = cache.export_entries();
    let mut out = Vec::with_capacity(16 + entries.len() * 32);
    persist::put_u64(&mut out, entries.len() as u64);
    for (sig, value) in entries {
        persist::put_u128(&mut out, sig.bits);
        out.push(sig.inputs);
        persist::put_u64(&mut out, sig.salt);
        match value {
            None => out.push(0),
            Some(spec) => {
                out.push(1);
                out.push(spec.perm.len() as u8);
                out.extend(spec.perm.iter().map(|&p| p as u8));
                persist::put_u64(&mut out, spec.lower);
                persist::put_u64(&mut out, spec.upper);
                out.push(u8::from(spec.complemented));
            }
        }
    }
    out
}

/// Decodes a table section, validating every certificate before anything
/// is returned — a corrupt or hand-edited image yields a typed error,
/// never a panic or an invalid in-memory certificate.
fn decode_table(bytes: &[u8]) -> Result<Vec<(Signature, Option<ComparisonSpec>)>, PersistError> {
    let mut reader = ByteReader::new(bytes);
    let count = reader.u64()?;
    let mut entries = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        let bits = reader.u128()?;
        let inputs = reader.u8()?;
        let salt = reader.u64()?;
        let value = match reader.u8()? {
            0 => None,
            1 => {
                let n = reader.u8()? as usize;
                let perm: Vec<usize> = reader.bytes(n)?.iter().map(|&b| usize::from(b)).collect();
                let lower = reader.u64()?;
                let upper = reader.u64()?;
                let complemented = match reader.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(PersistError::Malformed(format!("bad complement flag {other}")))
                    }
                };
                let spec = if complemented {
                    ComparisonSpec::new_complemented(perm, lower, upper)
                } else {
                    ComparisonSpec::new(perm, lower, upper)
                }
                .map_err(|e| PersistError::Malformed(format!("invalid certificate: {e}")))?;
                Some(spec)
            }
            other => return Err(PersistError::Malformed(format!("bad value tag {other}"))),
        };
        entries.push((Signature { bits, inputs, salt }, value));
    }
    if reader.remaining() != 0 {
        return Err(PersistError::Malformed(format!(
            "{} trailing bytes after the last entry",
            reader.remaining()
        )));
    }
    Ok(entries)
}

/// Serializes both process-wide identification tables to `path` through
/// the crash-safe container of [`sft_canon::persist`] (versioned header,
/// trailing checksum, atomic write-then-rename). The image depends only on
/// the tables' *contents*: equal tables save byte-identical files.
///
/// # Errors
///
/// [`PersistError::Io`] on filesystem failures.
pub fn identify_cache_save(path: &Path) -> Result<(), PersistError> {
    persist::save(path, &[encode_table(class_cache()), encode_table(exact_cache())])
}

/// Loads a persisted image into the process-wide tables, merging over
/// whatever they already hold (entries are deterministic per key, so a
/// collision overwrites with an equal value). The whole image is decoded
/// and validated **before** the live tables are touched — a file that
/// fails integrity or structural checks imports nothing. Returns the
/// number of entries imported.
///
/// # Errors
///
/// [`PersistError::NotFound`] for a missing file (normal cold start); any
/// other [`PersistError`] means the file is untrustworthy and should be
/// quarantined ([`sft_canon::persist::quarantine`]) while the process
/// rebuilds the tables from cold.
pub fn identify_cache_load(path: &Path) -> Result<usize, PersistError> {
    let sections = persist::load(path)?;
    let [class_bytes, exact_bytes] = sections.as_slice() else {
        return Err(PersistError::Malformed(format!(
            "expected 2 table sections, found {}",
            sections.len()
        )));
    };
    let class = decode_table(class_bytes)?;
    let exact = decode_table(exact_bytes)?;
    let count = class.len() + exact.len();
    class_cache().import_entries(class);
    exact_cache().import_entries(exact);
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact() -> IdentifyOptions {
        IdentifyOptions { method: IdentifyMethod::Exact, ..IdentifyOptions::default() }
    }

    // NOTE: the caches are process-global and the test harness runs tests
    // concurrently in one process, so these tests never call
    // `identify_cache_clear` (it would race sibling tests) and only make
    // monotonic or key-local assertions about the counters.

    /// The memoized path returns exactly what direct identification
    /// returns — certificate and all — whether the tables are cold or warm.
    #[test]
    fn memo_is_bit_identical_to_direct() {
        let opts = exact();
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..200 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let f = TruthTable::from_bits(4, u128::from(rng >> 32 & 0xffff));
            let direct = identify(&f, &opts);
            assert_eq!(identify_memo(&f, &opts), direct, "cold: {f:?}");
            assert_eq!(identify_memo(&f, &opts), direct, "warm: {f:?}");
        }
    }

    /// P-equivalent queries share one class verdict: the second lookup is
    /// a hit, and each query still gets its own table's certificate.
    #[test]
    fn permuted_queries_hit_the_same_class_entry() {
        let opts = exact();
        // The paper's f2 (a comparison function) in two input orders.
        let f = TruthTable::from_minterms(4, &[1, 5, 6, 9, 10, 14]).unwrap();
        let g = f.permute(&[2, 0, 3, 1]).unwrap();
        let before = identify_cache_stats();
        let sf = identify_memo(&f, &opts).expect("comparison function");
        let sg = identify_memo(&g, &opts).expect("P-equivalent, still one");
        let after = identify_cache_stats();
        assert!(after.hits > before.hits, "second query must hit");
        assert_eq!(sf, identify(&f, &opts).unwrap());
        assert_eq!(sg, identify(&g, &opts).unwrap());
        assert_eq!(sf.to_table(), f);
        assert_eq!(sg.to_table(), g);
    }

    /// Filling a fresh local table with real identification answers,
    /// encoding it, importing the bytes into another fresh table and
    /// re-encoding must reproduce the bytes exactly — the persisted image
    /// is a pure function of table contents (save→load→save is
    /// byte-identical).
    #[test]
    fn encode_import_encode_is_byte_identical() {
        let opts = exact();
        let original: SigCache<Option<ComparisonSpec>> = SigCache::new();
        let mut rng = 0x9E37_79B9u64;
        for _ in 0..150 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let f = TruthTable::from_bits(4, u128::from(rng >> 32 & 0xffff));
            let (sig, _) = signature_of(&f, options_salt(&opts));
            original.insert(sig, identify(&f, &opts));
        }
        let image = encode_table(&original);
        let decoded = decode_table(&image).expect("decode own encoding");
        let restored: SigCache<Option<ComparisonSpec>> = SigCache::new();
        restored.import_entries(decoded);
        assert_eq!(encode_table(&restored), image, "round trip must be byte-identical");
    }

    /// Corrupt table payloads are typed errors, never panics, and a bad
    /// image imports nothing.
    #[test]
    fn corrupt_payloads_are_rejected_with_typed_errors() {
        // Truncation at every 1/8 of a real section.
        let cache: SigCache<Option<ComparisonSpec>> = SigCache::new();
        let f = TruthTable::from_minterms(4, &[1, 5, 6, 9, 10, 14]).unwrap();
        let (sig, _) = signature_of(&f, 0);
        cache.insert(sig, identify(&f, &exact()));
        cache.insert(Signature { bits: 77, inputs: 4, salt: 0 }, None);
        let image = encode_table(&cache);
        for octile in 1..8 {
            let cut = image.len() * octile / 8;
            if cut == image.len() {
                continue;
            }
            assert!(decode_table(&image[..cut]).is_err(), "cut at {cut} must fail");
        }
        // A structurally invalid certificate (complement flag out of range).
        let mut bad = image.clone();
        let len = bad.len();
        bad[len - 1] = 7;
        assert!(matches!(decode_table(&bad), Err(PersistError::Malformed(_))));

        // File-level: wrong section count is malformed, garbage is rejected,
        // and neither path panics or imports anything.
        let dir = std::env::temp_dir().join(format!("sft-memo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let one_section = dir.join("one-section.bin");
        persist::save(&one_section, &[encode_table(&cache)]).expect("save");
        assert!(matches!(identify_cache_load(&one_section), Err(PersistError::Malformed(_))));
        let garbage = dir.join("garbage.bin");
        std::fs::write(&garbage, b"not a cache file at all").expect("write");
        assert!(identify_cache_load(&garbage).unwrap_err().is_corruption());
        assert!(matches!(
            identify_cache_load(&dir.join("absent.bin")),
            Err(PersistError::NotFound)
        ));
    }

    /// Saving the process-wide tables and loading them back merges cleanly
    /// (all keys still answer identically) — the global wrapper over the
    /// byte-stable core.
    #[test]
    fn global_save_load_merges_identically() {
        let opts = exact();
        let f = TruthTable::from_minterms(4, &[3, 7, 11, 15]).unwrap();
        let before = identify_memo(&f, &opts);
        let dir = std::env::temp_dir().join(format!("sft-memo-global-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cache.bin");
        identify_cache_save(&path).expect("save");
        let imported = identify_cache_load(&path).expect("load");
        assert!(imported >= 1, "the table had at least f's entries");
        assert_eq!(identify_memo(&f, &opts), before, "merge must not change answers");
    }

    /// Non-exact methods bypass the tables entirely: after a capped query,
    /// the queried class still has no entry.
    #[test]
    fn capped_method_is_not_cached() {
        let opts =
            IdentifyOptions { method: IdentifyMethod::Permutations, ..IdentifyOptions::default() };
        // A 7-input table no other test queries, so a stored entry could
        // only come from this call.
        let f = TruthTable::from_bits(7, 0x0123_4567_89ab_cdef_0055_aa33_cc0f_f0c3);
        let _ = identify_memo(&f, &opts);
        let (sig, _) = signature_of(&f, options_salt(&opts));
        assert!(
            class_cache().lookup(&sig).is_none(),
            "capped identification must not populate the shared class table"
        );
        assert!(
            exact_cache().lookup(&exact_signature(&f, options_salt(&opts))).is_none(),
            "capped identification must not populate the exact table"
        );
    }

    /// The memoized unit and cover costs equal the direct builds for every
    /// certificate identification hands out over all tables of up to four
    /// inputs and a seeded sample of five-input ones — asked twice, so both
    /// the filling and the replaying lookup are checked.
    #[test]
    fn cost_memo_matches_direct_costs() {
        let opts = IdentifyOptions::default();
        let check = |f: &TruthTable| {
            let specs =
                [identify(f, &opts), crate::identify_with_polarities(f, &opts).map(|p| p.0)];
            for spec in specs.into_iter().flatten() {
                let direct = unit_cost(&spec).expect("identified certificates build");
                for _ in 0..2 {
                    assert_eq!(unit_cost_memo(&spec).as_deref(), Some(&direct), "{spec}");
                }
            }
            let cover = crate::cover::comparison_cover(f, &opts);
            if !cover.is_empty() {
                let direct = cover_cost(&cover).expect("covers build");
                for _ in 0..2 {
                    assert_eq!(cover_cost_memo(&cover).as_deref(), Some(&direct), "{f:?}");
                }
            }
        };
        for inputs in 1..=4 {
            for bits in 0..1u128 << (1 << inputs) {
                check(&TruthTable::from_bits(inputs, bits));
            }
        }
        let mut rng = 0x5DEE_CE66_D1CEu64;
        for _ in 0..300 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            check(&TruthTable::from_bits(5, u128::from(rng >> 32)));
        }
    }
}
