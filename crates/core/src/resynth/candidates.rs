//! Candidate subcircuits: cone enumeration, comparison-function
//! identification, and scoring.
//!
//! Everything here is read-only on the circuit. Fanout facts come from the
//! maintained [`CircuitViews`] (exact after every edit); path labels come
//! from the pass-start snapshot in [`ScoreCtx`]. A gate has a few dozen
//! candidates at most, so the search works in flat buffers reused from gate
//! to gate ([`Candidates`]) rather than in per-candidate collections.

use super::{Objective, ResynthOptions};
use crate::cover::{comparison_cover, cover_cost};
use crate::memo::{cover_cost_memo, unit_cost_memo};
use crate::unit::{unit_cost, UnitCost};
use crate::{identify, identify_with_dc, identify_with_polarities, ComparisonSpec};
use sft_budget::{Budget, Exhausted};
use sft_netlist::{two_input_cost, Circuit, CircuitViews, GateKind, NodeId};
use std::collections::HashMap;
use std::sync::Arc;

/// What a candidate replaces the subcircuit with.
pub(super) enum Replacement {
    /// A single comparison unit (the paper's procedure).
    Unit(ComparisonSpec),
    /// A unit fed through inverters on the negated inputs (polarity
    /// extension).
    NegatedUnit(ComparisonSpec, Vec<bool>),
    /// An OR of several comparison units (concluding remark 2).
    Cover(Vec<ComparisonSpec>),
}

/// A scored candidate subcircuit.
pub(super) struct Candidate {
    /// Position in [`Candidates`] (its gates and cut).
    pub(super) index: usize,
    pub(super) replacement: Replacement,
    pub(super) gate_reduction: i64,
    pub(super) new_paths_at_g: u128,
}

/// Per-gate read-only context shared by every candidate scoring of one
/// replacement site.
pub(super) struct ScoreCtx<'a> {
    pub(super) g: NodeId,
    /// Path labels snapshotted at pass start (the scoring contract: every
    /// candidate of a pass is scored against the same labels).
    pub(super) labels: &'a [u128],
}

pub(super) fn combined_score(
    c: &Candidate,
    old_paths: u128,
    gate_weight: u32,
    path_weight: u32,
) -> i128 {
    let path_delta = old_paths as i128 - c.new_paths_at_g as i128;
    c.gate_reduction as i128 * gate_weight as i128 + path_delta * path_weight as i128
}

pub(super) fn pick_better(a: Candidate, b: Candidate, objective: Objective) -> Candidate {
    match objective {
        Objective::Gates => {
            if (b.gate_reduction, std::cmp::Reverse(b.new_paths_at_g))
                > (a.gate_reduction, std::cmp::Reverse(a.new_paths_at_g))
            {
                b
            } else {
                a
            }
        }
        Objective::Paths => {
            if b.new_paths_at_g < a.new_paths_at_g {
                b
            } else {
                a
            }
        }
        Objective::Combined { gate_weight, path_weight } => {
            // old_paths cancels when comparing two candidates at the same g.
            let sa = combined_score(&a, 0, gate_weight, path_weight);
            let sb = combined_score(&b, 0, gate_weight, path_weight);
            if sb > sa {
                b
            } else {
                a
            }
        }
    }
}

/// The candidate subcircuits of one gate: `(cone gate set, ordered input
/// cut)` pairs stored back to back in flat buffers, which
/// [`Candidates::enumerate`] refills for every gate without allocating once
/// the buffers have grown.
#[derive(Default)]
pub(super) struct Candidates {
    /// The sorted gate set of every cone seen, back to back.
    gates: Vec<NodeId>,
    /// `gates[start..end]` of each seen cone.
    sets: Vec<(u32, u32)>,
    /// The next seen cone with the same hash (`u32::MAX` ends the chain).
    same_hash: Vec<u32>,
    /// First seen cone of each gate-set hash.
    by_hash: HashMap<u64, u32>,
    /// Cuts of the accepted candidates, back to back.
    inputs: Vec<NodeId>,
    /// Accepted candidates in enumeration order: seen cone, cut range.
    accepted: Vec<(u32, u32, u32)>,
    /// Depth-first frontier of seen cones.
    stack: Vec<u32>,
}

impl Candidates {
    /// Enumerates candidate subcircuits rooted at `g`: cones grown by
    /// absorbing one fanin gate at a time, with at most `K` inputs (Section
    /// 4.1). The single-gate cone is always first; the order is the
    /// tie-break order of [`pick_better`].
    pub(super) fn enumerate(&mut self, circuit: &Circuit, g: NodeId, options: &ResynthOptions) {
        self.gates.clear();
        self.sets.clear();
        self.same_hash.clear();
        self.by_hash.clear();
        self.inputs.clear();
        self.accepted.clear();
        self.stack.clear();
        self.gates.push(g);
        self.insert_last_set(0);
        self.stack.push(0);
        while let Some(set) = self.stack.pop() {
            let (start, end) = self.sets[set as usize];
            let cut_start = self.inputs.len();
            if !self.push_cut(circuit, start as usize..end as usize, options.max_inputs) {
                self.inputs.truncate(cut_start);
                continue;
            }
            let cut_end = self.inputs.len();
            self.accepted.push((set, cut_start as u32, cut_end as u32));
            if self.accepted.len() >= options.max_candidates_per_gate {
                break;
            }
            for i in cut_start..cut_end {
                let h = self.inputs[i];
                if !circuit.node(h).kind().is_gate() {
                    continue;
                }
                // The grown cone, sorted: the parent's gates with `h`
                // inserted (`h` is a cut line, so not already inside).
                let next = self.gates.len();
                self.gates.extend_from_within(start as usize..end as usize);
                let at = self.gates[next..].partition_point(|&x| x < h);
                self.gates.insert(next + at, h);
                if let Some(grown) = self.insert_last_set(next) {
                    self.stack.push(grown);
                } else {
                    self.gates.truncate(next);
                }
            }
        }
    }

    /// Appends the cut of the cone `gates[range]` to `inputs`: every fanin
    /// of a cone gate outside the cone, in first-seen order, constants
    /// excepted (they stay inside the cone). Returns `false` — with the cut
    /// partially written — when the cut is empty or wider than `max_inputs`.
    fn push_cut(
        &mut self,
        circuit: &Circuit,
        range: std::ops::Range<usize>,
        max_inputs: usize,
    ) -> bool {
        let cone = &self.gates[range];
        let start = self.inputs.len();
        for &x in cone {
            for &f in circuit.node(x).fanins() {
                if cone.binary_search(&f).is_err()
                    && !self.inputs[start..].contains(&f)
                    && !matches!(circuit.node(f).kind(), GateKind::Const0 | GateKind::Const1)
                {
                    if self.inputs.len() - start == max_inputs {
                        return false;
                    }
                    self.inputs.push(f);
                }
            }
        }
        self.inputs.len() > start
    }

    /// Records `gates[start..]` as a seen cone and returns its index, or
    /// returns `None` when an equal gate set was seen before.
    fn insert_last_set(&mut self, start: usize) -> Option<u32> {
        let set = &self.gates[start..];
        let hash = set.iter().fold(0u64, |h, x| {
            (h.rotate_left(5) ^ x.index() as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        let index = self.sets.len() as u32;
        let head = *self.by_hash.entry(hash).or_insert(index);
        if head != index {
            let mut seen = head;
            while seen != u32::MAX {
                let (s, e) = self.sets[seen as usize];
                if self.gates[s as usize..e as usize] == *set {
                    return None;
                }
                seen = self.same_hash[seen as usize];
            }
            self.by_hash.insert(hash, index);
        }
        self.same_hash.push(if head == index { u32::MAX } else { head });
        self.sets.push((start as u32, self.gates.len() as u32));
        Some(index)
    }

    /// Number of candidates enumerated.
    pub(super) fn len(&self) -> usize {
        self.accepted.len()
    }

    /// The cone gate set (sorted) and the ordered input cut of candidate
    /// `index`.
    pub(super) fn get(&self, index: usize) -> (&[NodeId], &[NodeId]) {
        let (set, cut_start, cut_end) = self.accepted[index];
        let (start, end) = self.sets[set as usize];
        (
            &self.gates[start as usize..end as usize],
            &self.inputs[cut_start as usize..cut_end as usize],
        )
    }
}

/// Scores candidate `index` of `candidates` at `ctx.g`: extracts the cone
/// function, identifies a comparison replacement (a unit, a negated-input
/// unit, or a cover), and computes the gate/path deltas. Returns `Ok(None)`
/// when the cone has no admissible replacement.
///
/// Consumes one budget step (the pass's unit of work) before doing anything
/// expensive, so the pass stops at exactly the step limit.
pub(super) fn score_candidate(
    circuit: &Circuit,
    options: &ResynthOptions,
    budget: &Budget,
    ctx: &ScoreCtx<'_>,
    dc: Option<&mut (sft_bdd::Manager, Vec<sft_bdd::BddRef>)>,
    candidates: &Candidates,
    index: usize,
) -> Result<Option<Candidate>, Exhausted> {
    let (gates, inputs) = candidates.get(index);
    budget.consume(1)?;
    let Ok(truth) = circuit.cone_function(ctx.g, inputs) else { return Ok(None) };
    // Don't-care-widened identification depends on the cut, not just the
    // function, so only the plain queries go through the P-class memo.
    let plain = |truth: &sft_truth::TruthTable| {
        if options.memoize_identification {
            crate::memo::identify_memo(truth, &options.identify)
        } else {
            identify(truth, &options.identify)
        }
    };
    // Costs are pure functions of the certificates; the memo-off path is
    // the cold reference and builds every unit.
    let unit = |spec: &ComparisonSpec| {
        if options.memoize_identification {
            unit_cost_memo(spec)
        } else {
            unit_cost(spec).ok().map(Arc::new)
        }
    };
    let spec = match dc {
        Some((manager, per_node)) => match reachable_dc(manager, per_node, circuit, inputs) {
            Ok(Some(dc)) => identify_with_dc(&truth, &dc, &options.identify),
            _ => plain(&truth),
        },
        None => plain(&truth),
    };
    let (replacement, cost): (_, Arc<UnitCost>) = match spec {
        Some(spec) => {
            let Some(cost) = unit(&spec) else { return Ok(None) };
            (Replacement::Unit(spec), cost)
        }
        None => {
            let negated = options
                .allow_input_negation
                .then(|| identify_with_polarities(&truth, &options.identify))
                .flatten();
            if let Some((spec, negate)) = negated {
                // Inverters on unit inputs change neither the eq-2 count
                // nor the per-input path counts, so the unit's cost stands.
                let Some(cost) = unit(&spec) else { return Ok(None) };
                (Replacement::NegatedUnit(spec, negate), cost)
            } else if options.max_cover_units > 1 {
                let cover = comparison_cover(&truth, &options.identify);
                if cover.is_empty() || cover.len() > options.max_cover_units {
                    return Ok(None);
                }
                let cost = if options.memoize_identification {
                    cover_cost_memo(&cover)
                } else {
                    cover_cost(&cover).ok().map(Arc::new)
                };
                let Some(cost) = cost else { return Ok(None) };
                (Replacement::Cover(cover), cost)
            } else {
                return Ok(None);
            }
        }
    };
    // Old gate cost: g itself plus the cone gates that would die.
    let views = circuit.views().expect("resynthesis runs with views enabled");
    let removable = removable_gates(ctx.g, gates, views);
    let old_cost: u64 = removable
        .iter()
        .map(|&x| {
            let n = circuit.node(x);
            two_input_cost(n.kind(), n.fanins().len())
        })
        .sum();
    let gate_reduction = old_cost as i64 - cost.two_input_gates as i64;
    let new_paths_at_g = cost.paths_with(inputs.iter().map(|i| ctx.labels[i.index()]));
    Ok(Some(Candidate { index, replacement, gate_reduction, new_paths_at_g }))
}

/// The cone gates that die if `g` is rewired away from this cone: gates
/// (other than `g`) that drive no primary output and all of whose consumers
/// are `g` or other dying gates — the greatest such subset of the cone,
/// which the removal loop reaches in any order. `g` itself is always
/// included (its old gate is replaced). `cone` must be sorted; so is the
/// result.
///
/// Both liveness facts — the primary-output references and the gate
/// consumers — come from the one maintained view. (The rebuilt-table
/// implementation derived "has external consumers" by comparing the lengths
/// of two independently constructed structures, `fanout_counts` vs
/// `fanout_table`; the only thing that difference can ever be is the
/// primary-output reference count, which the view tracks directly.)
pub(super) fn removable_gates(g: NodeId, cone: &[NodeId], views: &CircuitViews) -> Vec<NodeId> {
    debug_assert!(cone.windows(2).all(|w| w[0] < w[1]), "cone gate lists are sorted");
    let mut removable: Vec<NodeId> = cone.iter().copied().filter(|&x| x != g).collect();
    loop {
        let before = removable.len();
        let mut i = 0;
        while i < removable.len() {
            let x = removable[i];
            let dies = !views.drives_output(x)
                && views
                    .fanout(x)
                    .iter()
                    .all(|&(c, _)| c == g || removable.binary_search(&c).is_ok());
            if dies {
                i += 1;
            } else {
                removable.remove(i);
            }
        }
        if removable.len() == before {
            break;
        }
    }
    let at = removable.partition_point(|&x| x < g);
    removable.insert(at, g);
    removable
}

/// The unreachable cone-input combinations (satisfiability don't-cares) of
/// a cut, as a truth table over the cut. Returns `None` when everything is
/// reachable. Node BDDs must come from the same circuit *before any pass
/// edits* — stale entries (for rewired nodes) make the result conservative
/// only if unchanged; to stay sound we recompute reachability only for cuts
/// whose lines all predate the pass (checked by the caller via index
/// bounds).
pub(super) fn reachable_dc(
    manager: &mut sft_bdd::Manager,
    per_node: &[sft_bdd::BddRef],
    _circuit: &Circuit,
    inputs: &[NodeId],
) -> Result<Option<sft_truth::TruthTable>, sft_bdd::BddError> {
    if inputs.iter().any(|i| i.index() >= per_node.len()) {
        return Ok(None); // cut touches nodes created during this pass
    }
    let k = inputs.len();
    let mut dc = sft_truth::TruthTable::zero(k);
    for m in 0..(1u64 << k) {
        let mut acc = sft_bdd::BddRef::TRUE;
        for (i, &line) in inputs.iter().enumerate() {
            let bit = m >> (k - 1 - i) & 1 == 1;
            let f = per_node[line.index()];
            let lit = if bit { f } else { manager.not(f)? };
            acc = manager.and(acc, lit)?;
            if acc == sft_bdd::BddRef::FALSE {
                break;
            }
        }
        if acc == sft_bdd::BddRef::FALSE {
            dc = dc.or(&sft_truth::TruthTable::from_minterms(k, &[m]).expect("in range"));
        }
    }
    Ok(if dc.is_zero() { None } else { Some(dc) })
}
