//! Spans the benchmark records around its own calls into each layer.
//!
//! Recording reuses [`fascia_obs::Tracer`]: a span is one Chrome
//! "complete" event whose payload is the operation id. All spans come
//! from the harness thread, so nesting is containment in time, and each
//! span's parent is recovered from it when the run ends.

use fascia_obs::json::{array_of, ObjectWriter};
use fascia_obs::{EventKind, TraceSpan, Tracer};
use std::collections::BTreeMap;

/// Events per thread ring; the harness records a few thousand at most.
const RING_CAPACITY: usize = 1 << 14;

/// The in-memory span recorder of a traced run.
pub struct Spans {
    tracer: Tracer,
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer name (`engine`, `svc`, ...; `op` for a whole operation).
    pub name: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in the same clock.
    pub end_ns: u64,
    /// Index of the enclosing span in the record list.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Opens a span when tracing, or nothing.
pub fn open<'a>(spans: Option<&'a Spans>, name: &str, op: u64) -> Option<TraceSpan<'a>> {
    spans.map(|s| s.tracer.span_arg(s.tracer.intern(name), op))
}

impl Spans {
    /// An empty recorder.
    pub fn new() -> Self {
        Spans {
            tracer: Tracer::with_capacity(RING_CAPACITY),
        }
    }

    /// Spans lost to a full ring (a non-zero count fails the run).
    pub fn dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    /// Every span in start order, with parents resolved by containment.
    pub fn records(&self) -> Vec<SpanRec> {
        let mut recs: Vec<SpanRec> = self
            .tracer
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Span)
            .map(|e| SpanRec {
                name: self.tracer.name_of(e.name),
                start_ns: e.ts_ns,
                end_ns: e.ts_ns + e.dur_ns,
                parent: None,
                op: e.arg,
            })
            .collect();
        recs.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
        resolve_parents(&mut recs);
        recs
    }
}

/// Sets each record's parent to the innermost earlier record containing
/// it; `recs` must be in start order, longest first on ties.
fn resolve_parents(recs: &mut [SpanRec]) {
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..recs.len() {
        while let Some(&top) = stack.last() {
            if recs[top].end_ns > recs[i].start_ns && recs[top].end_ns >= recs[i].end_ns {
                break;
            }
            stack.pop();
        }
        recs[i].parent = stack.last().copied();
        stack.push(i);
    }
}

/// Self time of each span: its duration minus what its children cover.
fn self_ns(recs: &[SpanRec]) -> Vec<u64> {
    let mut out: Vec<u64> = recs.iter().map(SpanRec::dur_ns).collect();
    for r in recs {
        if let Some(p) = r.parent {
            out[p] = out[p].saturating_sub(r.dur_ns());
        }
    }
    out
}

/// Self seconds per layer name, summed over spans.
fn self_by_layer(recs: &[SpanRec]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (r, s) in recs.iter().zip(self_ns(recs)) {
        *out.entry(r.name.clone()).or_insert(0.0) += s as f64 / 1e9;
    }
    out
}

/// Self seconds per layer within operation `op`, and their sum.
pub fn op_self_times(recs: &[SpanRec], op: u64) -> (BTreeMap<String, f64>, f64) {
    let mut owned: Vec<SpanRec> = recs.iter().filter(|r| r.op == op).cloned().collect();
    resolve_parents(&mut owned);
    let by_layer = self_by_layer(&owned);
    let total = by_layer.values().sum();
    (by_layer, total)
}

/// The span list as JSON: name, start, end, parent and operation id.
pub fn to_json(recs: &[SpanRec]) -> String {
    array_of(recs.iter().map(|r| {
        let mut w = ObjectWriter::new();
        w.field_str("name", &r.name)
            .field_u64("start_ns", r.start_ns)
            .field_u64("end_ns", r.end_ns)
            .field_u64("op", r.op);
        match r.parent {
            Some(p) => w.field_u64("parent", p as u64),
            None => w.field_raw("parent", "null"),
        };
        w.finish()
    }))
}
