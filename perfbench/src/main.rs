//! The repository's benchmark: three single-client workloads, each run in
//! its own process, each checked against oracles the benchmark computes
//! itself.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats whole *rounds* until `--seconds` have passed (at least
//! [`MIN_ROUNDS`]). A round builds the system from scratch, warms it to
//! steady state (timed as set-up), then runs a fixed amount of work
//! (timed). Every round of a run does the same work on the same inputs,
//! so its counts must repeat exactly; the run fails if they do not.
//! Times are reported as medians over rounds.
//!
//! With `--trace 0` the last line of standard output is the end-to-end
//! result; with `--trace 1` rounds alternate untraced and traced, the
//! per-layer table is printed, the spans are written under
//! `perfbench/out/`, and the last line holds the per-layer metrics.

mod alloc;
mod engine;
mod fig10;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use alloc::AllocCount;
use trace::{Span, Trace};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Rounds every run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// The timed phase of a round is timed in this many slices of equal
/// work. `ops_per_s` is the median slice over all rounds of a run, so a
/// burst of interference from other tenants of the machine moves a few
/// slices, not the result.
pub const SLICES: u64 = 20;

const WORKLOADS: [&str; 3] = ["fig10_ddmem", "engine_get_fit", "engine_put_evict"];

/// What one round measured.
pub struct Round {
    pub setup_s: f64,
    pub timed_s: f64,
    /// CPU time of the process during the timed phase.
    pub cpu_s: f64,
    /// Operations attempted in the timed phase.
    pub ops: u64,
    /// Throughput (op/s) of each of the [`SLICES`] equal-work slices of
    /// the timed phase.
    pub slices: Vec<f64>,
    pub failed: u64,
    pub get_hits: u64,
    /// Application throughput in simulated time, MB/s.
    pub app_mb_per_s: f64,
    /// The process's peak resident set (`VmHWM`, MiB) at the end of the
    /// timed phase, before the oracles run.
    pub peak_rss_mb: f64,
    /// Allocations made during the timed phase.
    pub alloc: AllocCount,
    /// Per-layer counts; they depend only on workload and seed.
    pub counts: Vec<(&'static str, f64)>,
    /// Per-layer measurements that are not counts (traced rounds).
    pub layer: Vec<(&'static str, f64)>,
    pub trace: Option<Trace>,
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Derives an independent seed for one input stream.
pub fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Checks occupancy against Algorithm 1's weighted fair shares of one
/// store, with unused share redistributed by weight (max-min fair).
/// `pressed[i]` is the evidence, independent of occupancy, that entity
/// `i`'s demand exceeded what it was given: the cache evicted from it in
/// the window. An entity that was not pressed demands exactly what it
/// holds; a pressed one demands without bound. Shares are water-filled
/// from these demands, and every entity must hold its allocation within
/// `slack`. With every entity pressed this is the plain
/// `capacity × weight / Σ weights`.
pub fn check_fair_shares(
    store: &str,
    capacity: f64,
    weights: &[u64],
    used: &[f64],
    pressed: &[bool],
    slack: f64,
    names: &[impl std::fmt::Display],
) -> Result<(), String> {
    let mut alloc: Vec<Option<f64>> = vec![None; weights.len()];
    let mut left = capacity;
    loop {
        let open: Vec<usize> = (0..weights.len()).filter(|&i| alloc[i].is_none()).collect();
        if open.is_empty() {
            break;
        }
        let wsum: u64 = open.iter().map(|&i| weights[i]).sum();
        let share = |i: usize| left * weights[i] as f64 / wsum as f64;
        let sated: Vec<usize> = open
            .iter()
            .copied()
            .filter(|&i| !pressed[i] && used[i] < share(i))
            .collect();
        if sated.is_empty() {
            for &i in &open {
                alloc[i] = Some(share(i));
            }
            break;
        }
        for &i in &sated {
            alloc[i] = Some(used[i]);
            left -= used[i];
        }
    }
    for (i, a) in alloc.iter().enumerate() {
        let a = a.expect("every entity is allocated");
        if (used[i] - a).abs() > slack {
            return Err(format!(
                "{} holds {:.0} {store} pages, its fair share is {a:.0} (±{slack}, {})",
                names[i],
                used[i],
                if pressed[i] {
                    "evicted from"
                } else {
                    "never evicted from"
                }
            ));
        }
    }
    Ok(())
}

/// CPU time this thread has run, from `/proc/self/schedstat`
/// (nanoseconds); 0 where that file is missing.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn run_round(workload: &str, seed: u64, traced: bool) -> Result<Round, String> {
    match workload {
        "fig10_ddmem" => fig10::round(seed, traced),
        "engine_get_fit" => engine::round(engine::Kind::GetFit, seed, traced),
        "engine_put_evict" => engine::round(engine::Kind::PutEvict, seed, traced),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Every per-layer metric, with its unit, in the order printed.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.run_until_s", "s"),
    ("core.self_s", "s"),
    ("core.steps", "count"),
    ("workloads.step_s.webserver", "s"),
    ("workloads.step_s.proxycache", "s"),
    ("workloads.step_s.mail", "s"),
    ("workloads.step_s.videoserver", "s"),
    ("workloads.step_us_p50", "us"),
    ("workloads.step_us_p99", "us"),
    ("guest.cleancache_puts", "count"),
    ("guest.writebacks", "count"),
    ("guest.stale_hits", "count"),
    ("hypercache.gets", "count"),
    ("hypercache.hits", "count"),
    ("hypercache.puts", "count"),
    ("hypercache.evictions", "count"),
    ("hypercache.mem_mb", "MiB"),
    ("hypercache.steady_mb.webserver", "MiB"),
    ("hypercache.steady_mb.proxycache", "MiB"),
    ("hypercache.steady_mb.mail", "MiB"),
    ("hypercache.steady_mb.videoserver", "MiB"),
    ("hypercache.est_share", "ratio"),
    ("cleancache.get_many_s", "s"),
    ("cleancache.put_many_s", "s"),
    ("cleancache.flush_many_s", "s"),
    ("cleancache.get_many_us_p50", "us"),
    ("cleancache.get_many_us_p99", "us"),
    ("cleancache.put_many_us_p50", "us"),
    ("cleancache.put_many_us_p99", "us"),
    ("cleancache.pages_per_call", "page/call"),
    ("concurrent.lockfree_misses", "count"),
    ("concurrent.replica_hits", "count"),
    ("concurrent.seqlock_retries", "count"),
    ("concurrent.lock_acquisitions", "count"),
    ("concurrent.ops_per_lock", "op/lock"),
    ("concurrent.reservation_retries", "count"),
    ("concurrent.reservation_fallbacks", "count"),
    ("concurrent.two_phase_retries", "count"),
    ("concurrent.two_phase_fallbacks", "count"),
    ("concurrent.evictions", "count"),
    ("concurrent.trickle_downs", "count"),
    ("concurrent.commit_tick_s", "s"),
    ("concurrent.recover_s", "s"),
    ("storage.journal.image_mb", "MiB"),
    ("storage.journal.records", "count"),
    ("storage.journal.compactions", "count"),
    ("storage.wear.ssd_pages_written", "count"),
    ("storage.wear.spill_attempts", "count"),
    ("storage.wear.spill_rejects", "count"),
    ("storage.wear.write_amplification", "ratio"),
    ("storage.remote.fetches", "count"),
    ("storage.remote.edge_hits", "count"),
    ("storage.remote.origin_fetches", "count"),
    ("storage.remote.hedges", "count"),
    ("storage.remote.readahead_hits", "count"),
    ("alloc.per_op", "alloc/op"),
    ("alloc.bytes_per_op", "B/op"),
    ("alloc.per_call.run_until", "alloc/call"),
    ("alloc.per_call.step", "alloc/call"),
    ("alloc.per_call.get_many", "alloc/call"),
    ("alloc.per_call.put_many", "alloc/call"),
    ("alloc.per_call.flush_many", "alloc/call"),
    ("alloc.per_call.commit_tick", "alloc/call"),
    ("alloc.per_call.recover", "alloc/call"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_share", "ratio"),
    ("bench.client_s", "s"),
    ("trace.overhead", "ratio"),
];

const STEPS: [Span; 4] = [
    Span::StepWeb,
    Span::StepProxy,
    Span::StepMail,
    Span::StepVideo,
];

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of one traced round.
fn layer_metrics(r: &Round) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = r.counts.iter().chain(&r.layer).copied().collect();
    let t = r.trace.as_ref().expect("traced round");
    let mut steps = t.agg(Span::StepWeb).clone();
    for s in &STEPS[1..] {
        steps.merge(t.agg(*s));
    }
    let per_call = |s: Span| ratio(t.agg(s).alloc.calls as f64, t.agg(s).count as f64);
    m.extend([
        ("core.run_until_s", t.total_s(Span::RunUntil)),
        ("core.self_s", t.self_s(Span::RunUntil)),
        ("core.steps", steps.count as f64),
        ("workloads.step_s.webserver", t.total_s(Span::StepWeb)),
        ("workloads.step_s.proxycache", t.total_s(Span::StepProxy)),
        ("workloads.step_s.mail", t.total_s(Span::StepMail)),
        ("workloads.step_s.videoserver", t.total_s(Span::StepVideo)),
        ("workloads.step_us_p50", steps.quantile_us(0.5)),
        ("workloads.step_us_p99", steps.quantile_us(0.99)),
        ("cleancache.get_many_s", t.total_s(Span::GetMany)),
        ("cleancache.put_many_s", t.total_s(Span::PutMany)),
        ("cleancache.flush_many_s", t.total_s(Span::FlushMany)),
        (
            "cleancache.get_many_us_p50",
            t.agg(Span::GetMany).quantile_us(0.5),
        ),
        (
            "cleancache.get_many_us_p99",
            t.agg(Span::GetMany).quantile_us(0.99),
        ),
        (
            "cleancache.put_many_us_p50",
            t.agg(Span::PutMany).quantile_us(0.5),
        ),
        (
            "cleancache.put_many_us_p99",
            t.agg(Span::PutMany).quantile_us(0.99),
        ),
        ("concurrent.commit_tick_s", t.total_s(Span::CommitTick)),
        ("concurrent.recover_s", t.total_s(Span::Recover)),
        ("alloc.per_call.run_until", per_call(Span::RunUntil)),
        (
            "alloc.per_call.step",
            ratio(steps.alloc.calls as f64, steps.count as f64),
        ),
        ("alloc.per_call.get_many", per_call(Span::GetMany)),
        ("alloc.per_call.put_many", per_call(Span::PutMany)),
        ("alloc.per_call.flush_many", per_call(Span::FlushMany)),
        ("alloc.per_call.commit_tick", per_call(Span::CommitTick)),
        ("alloc.per_call.recover", per_call(Span::Recover)),
        ("proc.cpu_s", r.cpu_s),
        ("proc.cpu_share", ratio(r.cpu_s, r.timed_s)),
        ("bench.client_s", t.self_s(Span::Timed)),
    ]);
    m
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A number as JSON: full precision, never NaN or infinite.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Writes the kept spans and per-name aggregates of a traced round.
fn write_spans(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    t: &Trace,
) -> std::io::Result<()> {
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
    for (i, r) in t.records.iter().enumerate() {
        let parent = r.parent.map_or("null".into(), |p| p.to_string());
        out += &format!(
            "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}}}",
            if i == 0 { "" } else { "," },
            r.span.name(),
            num(r.start_ns as f64 / 1e3),
            num(r.end_ns as f64 / 1e3),
        );
    }
    out += "\n], \"aggregates\": [";
    let mut first = true;
    for s in Span::ALL {
        let a = t.agg(s);
        if a.count == 0 {
            continue;
        }
        let parent = a
            .parent
            .map_or("null".into(), |p| format!("\"{}\"", p.name()));
        out += &format!(
            "{}\n  {{\"name\": \"{}\", \"parent\": {parent}, \"calls\": {}, \"total_s\": {}, \"self_s\": {}, \"p50_us\": {}, \"p99_us\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}",
            if first { "" } else { "," },
            s.name(),
            a.count,
            num(a.total_ns as f64 / 1e9),
            num(a.self_ns as f64 / 1e9),
            num(a.quantile_us(0.5)),
            num(a.quantile_us(0.99)),
            a.alloc.calls,
            a.alloc.bytes,
        );
        first = false;
    }
    out += "\n]}\n";
    std::fs::create_dir_all(path.parent().expect("file under a directory"))?;
    std::fs::write(path, out)
}

/// The per-layer table: each span's calls, total and self time.
fn print_layer_table(t: &Trace, timed_s: f64) {
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>7} {:>10} {:>10}",
        "span", "calls", "total_s", "self_s", "share", "p50_us", "p99_us"
    );
    for s in Span::ALL {
        let a = t.agg(s);
        if a.count == 0 {
            continue;
        }
        println!(
            "{:<28} {:>10} {:>10.4} {:>10.4} {:>6.1}% {:>10.2} {:>10.2}",
            s.name(),
            a.count,
            a.total_ns as f64 / 1e9,
            a.self_ns as f64 / 1e9,
            100.0 * a.self_ns as f64 / 1e9 / timed_s,
            a.quantile_us(0.5),
            a.quantile_us(0.99),
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();

    loop {
        // In trace mode rounds alternate untraced / traced, so the
        // overhead compares neighbours.
        let trace_this = args.trace && untraced.len() > traced.len();
        let round = run_round(&args.workload, args.seed, trace_this)
            .map_err(|e| format!("{} seed {}: oracle failed: {e}", args.workload, args.seed))?;
        let reference = untraced.first().or(traced.first());
        if let Some(first) = reference {
            let same = first.ops == round.ops
                && first.failed == round.failed
                && first.get_hits == round.get_hits
                && first.app_mb_per_s.to_bits() == round.app_mb_per_s.to_bits()
                && first.counts.len() == round.counts.len()
                && first
                    .counts
                    .iter()
                    .zip(&round.counts)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
            if !same {
                return Err(format!(
                    "{} seed {}: two rounds of the same inputs produced different counts",
                    args.workload, args.seed
                ));
            }
        }
        eprintln!(
            "round {}{}: setup {:.3} s, timed {:.3} s, {:.0} op/s, peak RSS {:.1} MiB",
            untraced.len() + traced.len() + 1,
            if trace_this { " (traced)" } else { "" },
            round.setup_s,
            round.timed_s,
            round.ops as f64 / round.timed_s,
            round.peak_rss_mb
        );
        if trace_this {
            traced.push(round);
        } else {
            untraced.push(round);
        }
        let rounds = untraced.len() + traced.len();
        let enough = if args.trace {
            traced.len() >= 2 && untraced.len() >= 2
        } else {
            rounds >= MIN_ROUNDS
        };
        if enough && started.elapsed() >= budget {
            break;
        }
    }
    let all = || untraced.iter().chain(&traced);
    let attempted: u64 = all().map(|r| r.ops).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    let ops_per_s = |rs: &[Round]| {
        median(
            &mut rs
                .iter()
                .flat_map(|r| r.slices.iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let first = &untraced[0];

    if !args.trace {
        let setup_s = median(&mut all().map(|r| r.setup_s).collect::<Vec<_>>());
        let metrics = [
            ("setup_s", setup_s, "s"),
            ("ops_per_s", ops_per_s(&untraced), "op/s"),
            // The first round's: later rounds rebuild the system in memory
            // the allocator has already fragmented, which a process that
            // builds it once never sees.
            ("peak_rss_mb", first.peak_rss_mb, "MiB"),
            ("get_hits", first.get_hits as f64, "count"),
            ("app_mb_per_s", first.app_mb_per_s, "MB/s"),
        ];
        for (name, v, unit) in &metrics {
            println!("{name:<14} {v:>16.4} {unit}");
        }
        return Ok(result_line(attempted, failed, &metrics));
    }

    // Per-layer: medians over traced rounds; allocation counts from an
    // untraced round, where the tracer allocates nothing.
    let per_round: Vec<BTreeMap<&str, f64>> = traced.iter().map(layer_metrics).collect();
    let mut metrics = Vec::new();
    for &(name, unit) in PER_LAYER {
        let v = match name {
            "alloc.per_op" => ratio(first.alloc.calls as f64, first.ops as f64),
            "alloc.bytes_per_op" => ratio(first.alloc.bytes as f64, first.ops as f64),
            "trace.overhead" => ratio(ops_per_s(&untraced), ops_per_s(&traced)),
            _ => median(
                &mut per_round
                    .iter()
                    .map(|m| m.get(name).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            ),
        };
        metrics.push((name, v, unit));
    }
    let last = traced.last().expect("at least two traced rounds");
    let t = last.trace.as_ref().expect("traced round");
    println!(
        "{} seed {}: traced round, timed phase {:.3} s",
        args.workload, args.seed, last.timed_s
    );
    print_layer_table(t, last.timed_s);
    println!(
        "tracing overhead: untraced {:.0} op/s vs traced {:.0} op/s",
        ops_per_s(&untraced),
        ops_per_s(&traced)
    );
    for (name, v, unit) in &metrics {
        println!("{name:<36} {v:>16.4} {unit}");
    }
    let path = std::path::Path::new("perfbench/out")
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    write_spans(&path, &args.workload, args.seed, t)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(result_line(attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
