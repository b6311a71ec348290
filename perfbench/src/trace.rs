//! Timing of the calls the benchmark makes into the program's crates.
//!
//! Every pass times its flows. A traced pass also records a span at each
//! workload → circuit → flow → public-call boundary (name, start, end,
//! parent), kept in memory and written out when the run ends; per-layer
//! self times are computed from those spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The user-visible flows a pass is split into, as the CLI commands that
/// run them.
#[derive(Clone, Copy, Debug)]
pub enum Flow {
    /// `sft resynth`: parse, resynthesize, write.
    Resynth,
    /// `sft equiv`: re-read the written result, BDD equivalence.
    Equiv,
    /// Stuck-at campaigns, SoA entry included.
    Faultsim,
    /// Path enumeration and robust path-delay-fault campaign.
    Pdf,
    /// `sft testgen`: test-set generation.
    Testgen,
}

impl Flow {
    pub const ALL: [Flow; 5] =
        [Flow::Resynth, Flow::Equiv, Flow::Faultsim, Flow::Pdf, Flow::Testgen];

    pub fn name(self) -> &'static str {
        match self {
            Flow::Resynth => "resynth",
            Flow::Equiv => "equiv",
            Flow::Faultsim => "faultsim",
            Flow::Pdf => "pdf",
            Flow::Testgen => "testgen",
        }
    }
}

pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

pub struct Meter {
    t0: Instant,
    spans: Option<Vec<Span>>,
    stack: Vec<usize>,
    /// Wall seconds per [`Flow`], indexed by discriminant.
    pub flow_s: [f64; 5],
    /// Wall seconds of every flow segment in the order they ran. Every
    /// pass runs the same segments in the same order.
    pub segments: Vec<f64>,
}

impl Meter {
    pub fn new(traced: bool) -> Self {
        Meter {
            t0: Instant::now(),
            spans: traced.then(Vec::new),
            stack: Vec::new(),
            flow_s: [0.0; 5],
            segments: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn open(&mut self, name: String) {
        let start = self.now();
        if let Some(spans) = &mut self.spans {
            spans.push(Span { name, start, end: start, parent: self.stack.last().copied() });
            self.stack.push(spans.len() - 1);
        }
    }

    fn close(&mut self) {
        let end = self.now();
        if let (Some(spans), Some(top)) = (&mut self.spans, self.stack.pop()) {
            spans[top].end = end;
        }
    }

    /// Runs `f` inside a group span (workload, circuit); untraced, it
    /// only runs `f`.
    pub fn group<R>(
        &mut self,
        name: impl FnOnce() -> String,
        f: impl FnOnce(&mut Meter) -> R,
    ) -> R {
        if self.spans.is_none() {
            return f(self);
        }
        self.open(name());
        let r = f(self);
        self.close();
        r
    }

    /// Runs `f` as part of `flow`, adding its wall time to the flow.
    pub fn flow<R>(&mut self, flow: Flow, f: impl FnOnce(&mut Meter) -> R) -> R {
        let start = Instant::now();
        let r = self.group(|| format!("flow:{}", flow.name()), f);
        let t = start.elapsed().as_secs_f64();
        self.flow_s[flow as usize] += t;
        self.segments.push(t);
        r
    }

    /// Times one public call into a crate; `layer` is the metric prefix of
    /// the layer it belongs to, e.g. `core.resynth`.
    pub fn call<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if self.spans.is_none() {
            return f();
        }
        self.open(layer.to_string());
        let r = f();
        self.close();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Self time per span name: each span's duration minus the part of it
/// its child spans cover (children never overlap: calls are sequential).
pub fn self_times(spans: &[Span]) -> BTreeMap<&str, f64> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end - s.start;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child) {
        *out.entry(s.name.as_str()).or_insert(0.0) += s.end - s.start - c;
    }
    out
}

/// The spans of every traced pass as one JSON document.
pub fn to_json(meta: &str, passes: &[Vec<Span>]) -> String {
    let mut out = format!("{{\"meta\": {meta}, \"passes\": [\n");
    for (k, spans) in passes.iter().enumerate() {
        out.push_str(if k == 0 { "[" } else { ",\n[" });
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n {{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start,
                s.end
            );
        }
        out.push(']');
    }
    out.push_str("\n]}\n");
    out
}
