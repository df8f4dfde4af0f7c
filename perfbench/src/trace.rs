//! In-memory spans around the benchmark's calls into each layer, and
//! the self-time analysis the per-layer metrics come from.
//!
//! A span records its name, start, end, parent span and operation id.
//! Spans are kept in memory while the workload runs and written out
//! as JSON lines when it ends. A span's self time is its duration
//! minus the part of it that its children cover (children may run in
//! parallel on several threads, so their union is subtracted).

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rnn_heatmap::core::clock;

use crate::stats::Series;

const NO_PARENT: u32 = u32::MAX;

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder (shared by every thread of a traced workload).
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; it is recorded when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u32,
    parent: u32,
    name: &'static str,
    op: u64,
    start: Instant,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: clock::now(), next: AtomicU32::new(0), spans: Mutex::new(Vec::new()) }
    }

    /// Opens span `name` of operation `op`, caused by span `parent`.
    pub fn span(&self, name: &'static str, op: u64, parent: Option<u32>) -> Guard<'_> {
        Guard {
            tracer: self,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: parent.unwrap_or(NO_PARENT),
            name,
            op,
            start: clock::now(),
        }
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Guard<'_> {
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = clock::now();
        let ns = |t: Instant| t.duration_since(self.tracer.epoch).as_nanos() as u64;
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            op: self.op,
            start_ns: ns(self.start),
            end_ns: ns(end),
        };
        self.tracer.spans.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Self times of a span set, indexed by span name and operation.
pub struct Analysis {
    /// `(name, op)` → summed self time in ms.
    by_op: HashMap<(&'static str, u64), f64>,
    /// name → self time of every call in ms.
    calls: HashMap<&'static str, Series>,
    /// `(span id)` → self time in ns, for the trace file.
    self_ns: HashMap<u32, u64>,
}

impl Analysis {
    pub fn new(spans: &[Span]) -> Analysis {
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut by_op: HashMap<(&'static str, u64), f64> = HashMap::new();
        let mut calls: HashMap<&'static str, Series> = HashMap::new();
        let mut self_ns = HashMap::new();
        for s in spans {
            let covered = children.get(&s.id).map_or(0, |c| union_len(c, s.start_ns, s.end_ns));
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            self_ns.insert(s.id, own);
            let ms = own as f64 / 1e6;
            *by_op.entry((s.name, s.op)).or_insert(0.0) += ms;
            calls.entry(s.name).or_default().push(ms);
        }
        Analysis { by_op, calls, self_ns }
    }

    /// Self time of `name` summed within each of `ops` (0 where the
    /// operation made no such call), one sample per operation.
    pub fn per_op(&self, name: &'static str, ops: &[u64]) -> Series {
        let mut s = Series::default();
        for &op in ops {
            s.push(self.by_op.get(&(name, op)).copied().unwrap_or(0.0));
        }
        s
    }

    /// Self time of every call of `name`.
    pub fn calls(&self, name: &'static str) -> Series {
        self.calls.get(name).cloned().unwrap_or_default()
    }

    /// Writes `spans` as JSON lines (one span per line, with its self
    /// time) to `path`.
    pub fn write_jsonl(&self, spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans {
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                parent,
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                self.self_ns.get(&s.id).copied().unwrap_or(0)
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}
