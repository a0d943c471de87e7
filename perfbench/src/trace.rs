//! Spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent). Low-volume spans are kept one by one; high-volume
//! ones (one per workload step or hypercall batch) are folded into a
//! per-name aggregate with a log-linear duration histogram, so tracing
//! allocates nothing on the hot path. A span's self time is its duration
//! minus the part its child spans cover. Everything stays in memory
//! until the run writes it out.
//!
//! Tracing is off unless [`start`] turned it on; a disabled [`span`]
//! costs one thread-local flag check.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::alloc::AllocCount;

/// Every span the benchmark records, named after the layer it enters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// The whole timed phase of one round (root).
    Timed,
    /// `Experiment::run_until` (sim runner, `ddc-core`).
    RunUntil,
    /// `WorkloadThread::step` of one Filebench application.
    StepWeb,
    StepProxy,
    StepMail,
    StepVideo,
    /// `HypercallChannel::get_many` / `put_many` / `flush_many`.
    GetMany,
    PutMany,
    FlushMany,
    /// `ShardedCache::commit_tick` (group commit).
    CommitTick,
    /// `ShardedCache::recover` (warm restart from journal images).
    Recover,
}

impl Span {
    pub const ALL: [Span; 11] = [
        Span::Timed,
        Span::RunUntil,
        Span::StepWeb,
        Span::StepProxy,
        Span::StepMail,
        Span::StepVideo,
        Span::GetMany,
        Span::PutMany,
        Span::FlushMany,
        Span::CommitTick,
        Span::Recover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::Timed => "bench.timed",
            Span::RunUntil => "core.run_until",
            Span::StepWeb => "workloads.step.webserver",
            Span::StepProxy => "workloads.step.proxycache",
            Span::StepMail => "workloads.step.mail",
            Span::StepVideo => "workloads.step.videoserver",
            Span::GetMany => "cleancache.get_many",
            Span::PutMany => "cleancache.put_many",
            Span::FlushMany => "cleancache.flush_many",
            Span::CommitTick => "concurrent.commit_tick",
            Span::Recover => "concurrent.recover",
        }
    }

    /// Spans rare enough to keep one record per call.
    fn kept_whole(self) -> bool {
        matches!(self, Span::Timed | Span::RunUntil | Span::Recover)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Histogram buckets per power of two (about 2% resolution).
const SUB: usize = 32;
const BUCKETS: usize = 60 * SUB;

fn bucket(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros() as usize - 5;
    (e + 1) * SUB + ((ns >> e) as usize - SUB)
}

fn bucket_floor(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let e = b / SUB - 1;
    ((b % SUB + SUB) as u64) << e
}

/// Per-name totals of every call of one span.
#[derive(Clone, Debug)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub alloc: AllocCount,
    pub parent: Option<Span>,
    hist: Vec<u64>,
}

impl Agg {
    fn new() -> Agg {
        Agg {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            alloc: AllocCount::default(),
            parent: None,
            hist: vec![0; BUCKETS],
        }
    }

    /// Adds another aggregate's calls into this one.
    pub fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.alloc.calls += other.alloc.calls;
        self.alloc.bytes += other.alloc.bytes;
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
    }

    /// The `q`-quantile of call durations in microseconds (bucket
    /// midpoint), 0 when there were no calls.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lo = bucket_floor(b) as f64;
                let hi = bucket_floor(b + 1) as f64;
                return (lo + hi) / 2.0 / 1e3;
            }
        }
        unreachable!("rank never exceeds the histogram total")
    }
}

/// One kept span.
#[derive(Clone, Debug)]
pub struct Record {
    pub span: Span,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing kept span in [`Trace::records`].
    pub parent: Option<usize>,
}

/// Everything one traced phase recorded.
#[derive(Clone, Debug)]
pub struct Trace {
    pub aggs: Vec<Agg>,
    pub records: Vec<Record>,
}

impl Trace {
    pub fn agg(&self, span: Span) -> &Agg {
        &self.aggs[span.index()]
    }

    pub fn total_s(&self, span: Span) -> f64 {
        self.agg(span).total_ns as f64 / 1e9
    }

    pub fn self_s(&self, span: Span) -> f64 {
        self.agg(span).self_ns as f64 / 1e9
    }
}

struct Frame {
    span: Span,
    start: Instant,
    child_ns: u64,
    alloc0: AllocCount,
    record: Option<usize>,
}

struct Tracer {
    epoch: Instant,
    stack: Vec<Frame>,
    trace: Trace,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Turns tracing on with empty aggregates. Everything the hot path will
/// need is allocated here.
pub fn start() {
    let tracer = Tracer {
        epoch: Instant::now(),
        stack: Vec::with_capacity(16),
        trace: Trace {
            aggs: Span::ALL.iter().map(|_| Agg::new()).collect(),
            records: Vec::with_capacity(64),
        },
    };
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
    ON.with(|on| on.set(true));
}

/// Turns tracing off and returns what it recorded.
pub fn stop() -> Trace {
    ON.with(|on| on.set(false));
    let tracer = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("trace::stop without trace::start");
    assert!(tracer.stack.is_empty(), "a span is still open");
    tracer.trace
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Guard {
    active: bool,
}

/// Opens `span` under the innermost open span.
#[inline]
pub fn span(span: Span) -> Guard {
    if !ON.with(|on| on.get()) {
        return Guard { active: false };
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracing on");
        let start = Instant::now();
        let record = span.kept_whole().then(|| {
            let parent = t.stack.iter().rev().find_map(|f| f.record);
            t.trace.records.push(Record {
                span,
                start_ns: start.duration_since(t.epoch).as_nanos() as u64,
                end_ns: 0,
                parent,
            });
            t.trace.records.len() - 1
        });
        let agg = &mut t.trace.aggs[span.index()];
        if agg.parent.is_none() {
            agg.parent = t.stack.last().map(|f| f.span);
        }
        t.stack.push(Frame {
            span,
            start,
            child_ns: 0,
            alloc0: AllocCount::now(),
            record,
        });
    });
    Guard { active: true }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = Instant::now();
        let alloc1 = AllocCount::now();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let Some(t) = t.as_mut() else { return };
            let Some(frame) = t.stack.pop() else { return };
            let dur = end.duration_since(frame.start).as_nanos() as u64;
            let agg = &mut t.trace.aggs[frame.span.index()];
            let allocated = alloc1.since(frame.alloc0);
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(frame.child_ns);
            agg.alloc.calls += allocated.calls;
            agg.alloc.bytes += allocated.bytes;
            agg.hist[bucket(dur)] += 1;
            if let Some(i) = frame.record {
                t.trace.records[i].end_ns = end.duration_since(t.epoch).as_nanos() as u64;
            }
            if let Some(parent) = t.stack.last_mut() {
                parent.child_ns += dur;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in [0u64, 1, 31, 32, 33, 63, 64, 100, 1_000, 123_456, 1 << 40] {
            let b = bucket(ns);
            assert!(b >= last);
            last = b;
            assert!(bucket_floor(b) <= ns && ns < bucket_floor(b + 1), "{ns}");
        }
    }

    #[test]
    fn self_time_excludes_children() {
        start();
        {
            let _outer = span(Span::RunUntil);
            for _ in 0..3 {
                let _inner = span(Span::StepWeb);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let t = stop();
        let outer = t.agg(Span::RunUntil);
        let inner = t.agg(Span::StepWeb);
        assert_eq!((outer.count, inner.count), (1, 3));
        assert_eq!(inner.parent, Some(Span::RunUntil));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.records.len(), 1, "steps are aggregated, not kept");
        assert!(inner.quantile_us(0.5) >= 2_000.0);
    }
}
