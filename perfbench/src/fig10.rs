//! `fig10_ddmem`: the paper's Fig. 10 DDMem setting end to end through
//! `Host` and `Experiment` on the serial engine.
//!
//! One 1 GiB VM, a 256 MiB memory cache, four containers (webserver,
//! proxycache, mail, videoserver) with cgroup limits 160/128/128/96 MiB
//! and `<Mem, W>` weights 32/25/25/18, two Filebench threads each (the
//! paper's §5.2 testbed scaled ÷8, as `repro fig10` builds it). Set-up
//! runs the disk-bound cold-fill half of the simulated run; the timed
//! phase is the steady-state half, whose per-application throughput in
//! virtual time is the Fig. 10 quantity.

use std::time::Instant;

use ddc_core::cleancache::{ChannelCounters, SecondChanceCache};
use ddc_core::prelude::*;

use crate::alloc::AllocCount;
use crate::trace::{self, Span};
use crate::{mix, Round};

/// Simulated length of one round; the first half is set-up.
const SIM_SECS: u64 = 160;
const VM_MB: u64 = 1024;
const MEM_CACHE_MB: u64 = 256;
const SSD_CACHE_MB: u64 = 30 * 1024;
const THREADS_PER_APP: u32 = 2;
const MIB: f64 = (1 << 20) as f64;

struct App {
    name: &'static str,
    limit_mb: u64,
    weight: u32,
    span: Span,
    /// Per-layer metric of its mean steady-state memory occupancy.
    steady_metric: &'static str,
}

const APPS: [App; 4] = [
    App {
        name: "webserver",
        limit_mb: 160,
        weight: 32,
        span: Span::StepWeb,
        steady_metric: "hypercache.steady_mb.webserver",
    },
    App {
        name: "proxycache",
        limit_mb: 128,
        weight: 25,
        span: Span::StepProxy,
        steady_metric: "hypercache.steady_mb.proxycache",
    },
    App {
        name: "mail",
        limit_mb: 128,
        weight: 25,
        span: Span::StepMail,
        steady_metric: "hypercache.steady_mb.mail",
    },
    App {
        name: "videoserver",
        limit_mb: 96,
        weight: 18,
        span: Span::StepVideo,
        steady_metric: "hypercache.steady_mb.videoserver",
    },
];

fn pages(mib: u64) -> u64 {
    CacheConfig::pages_from_mb(mib)
}

/// The Filebench thread of one application, with the scaled fileset
/// sizes of the paper's experiments.
fn filebench_thread(
    app: usize,
    label: String,
    vm: VmId,
    cg: CgroupId,
    seed: u64,
) -> Box<dyn WorkloadThread> {
    match app {
        0 => Box::new(Webserver::new(
            label,
            vm,
            cg,
            WebConfig {
                files: 3000,
                mean_file_blocks: 2,
                zipf_theta: 0.0,
                ..WebConfig::default()
            },
            seed,
        )),
        1 => Box::new(Proxycache::new(
            label,
            vm,
            cg,
            ProxyConfig {
                files: 900,
                mean_file_blocks: 2,
                ..ProxyConfig::default()
            },
            seed,
        )),
        2 => Box::new(MailServer::new(
            label,
            vm,
            cg,
            MailConfig {
                files: 2200,
                mean_file_blocks: 1,
            },
            seed,
        )),
        _ => Box::new(VideoServer::new(
            label,
            vm,
            cg,
            VideoConfig {
                active_videos: 48,
                mean_video_blocks: 96,
                zipf_theta: 0.9,
                writer_period: 32,
            },
            seed,
        )),
    }
}

/// A workload thread owned by the benchmark: every `step` is a span
/// named after its application. Used in traced rounds only.
struct TracedThread {
    inner: Box<dyn WorkloadThread>,
    span: Span,
}

impl WorkloadThread for TracedThread {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn vm(&self) -> VmId {
        self.inner.vm()
    }

    fn cgroup(&self) -> CgroupId {
        self.inner.cgroup()
    }

    fn step(&mut self, host: &mut Host, now: SimTime) -> SimTime {
        let _span = trace::span(self.span);
        self.inner.step(host, now)
    }

    fn recorder(&self) -> &OpsRecorder {
        self.inner.recorder()
    }

    fn recorder_mut(&mut self) -> &mut OpsRecorder {
        self.inner.recorder_mut()
    }
}

fn pool_totals(exp: &Experiment, vm: VmId, cgs: &[CgroupId]) -> Vec<PoolStats> {
    cgs.iter()
        .map(|&cg| {
            exp.host()
                .container_cache_stats(vm, cg)
                .expect("every container keeps its pool")
        })
        .collect()
}

/// Allowed distance from the fair share, in eviction batches.
const SHARE_SLACK_BATCHES: f64 = 4.0;

pub fn round(seed: u64, traced: bool) -> Result<Round, String> {
    let end = SimTime::from_secs(SIM_SECS);
    let half = SimTime::from_secs(SIM_SECS / 2);
    let capacity = pages(MEM_CACHE_MB);

    // ---- set-up: build the host and run the cold-fill half ----
    let setup_start = Instant::now();
    let cache = CacheConfig {
        mem_capacity_pages: capacity,
        ssd_capacity_pages: pages(SSD_CACHE_MB),
        mode: PartitionMode::DoubleDecker,
        admission: AdmissionConfig::off(),
    };
    let mut host = Host::new(HostConfig::new(cache));
    let vm = host.boot_vm(VM_MB, 100);
    let cgs: Vec<CgroupId> = APPS
        .iter()
        .map(|a| host.create_container(vm, a.name, pages(a.limit_mb), CachePolicy::mem(a.weight)))
        .collect();
    let mut exp = Experiment::new(host, SimDuration::from_secs(1));
    for (i, (app, &cg)) in APPS.iter().zip(&cgs).enumerate() {
        for t in 0..THREADS_PER_APP {
            let label = format!("{}/t{t}", app.name);
            let inner = filebench_thread(i, label, vm, cg, mix(seed, (i as u64) << 8 | t as u64));
            let thread: Box<dyn WorkloadThread> = if traced {
                Box::new(TracedThread {
                    inner,
                    span: app.span,
                })
            } else {
                inner
            };
            exp.add_thread(thread);
        }
        exp.add_probe(app.name, move |h| {
            h.container_cache_stats(vm, cg)
                .map_or(0.0, |s| s.mem_pages as f64)
        });
    }
    exp.add_probe("mem_used", |h| h.cache_totals().mem_used_pages as f64);
    exp.mark_steady_state_at(half);
    exp.run_until(half);
    let at_half = pool_totals(&exp, vm, &cgs);
    let guest_half = exp.host().guest(vm).counters();
    let channel_half = exp.host().guest(vm).channel().counters();
    let setup_s = setup_start.elapsed().as_secs_f64();

    // ---- timed phase: the steady-state half ----
    if traced {
        trace::start();
    }
    let cpu0 = crate::cpu_seconds();
    let alloc0 = AllocCount::now();
    let timed_start = Instant::now();
    let mut slices = Vec::with_capacity(crate::SLICES as usize);
    let mut report = None;
    {
        let _timed = trace::span(Span::Timed);
        let mut done = 0;
        for i in 1..=crate::SLICES {
            let until = half + (end - half) * i / crate::SLICES;
            let slice_start = Instant::now();
            let r = {
                let _run = trace::span(Span::RunUntil);
                exp.run_until(until)
            };
            let ops: u64 = r.threads.iter().map(|t| t.ops).sum();
            slices.push((ops - done) as f64 / slice_start.elapsed().as_secs_f64());
            done = ops;
            report = Some(r);
        }
    }
    let report = report.expect("at least one slice");
    let timed_s = timed_start.elapsed().as_secs_f64();
    let alloc = AllocCount::now().since(alloc0);
    let cpu_s = crate::cpu_seconds() - cpu0;
    let peak_rss_mb = crate::peak_rss_mb()?;
    let spans = traced.then(trace::stop);

    // ---- oracles ----
    let at_end = pool_totals(&exp, vm, &cgs);
    let guest = exp.host().guest(vm).counters();
    let channel = exp.host().guest(vm).channel().counters();
    let mut errors = Vec::new();
    if guest.stale_cleancache_hits != 0 {
        errors.push(format!(
            "{} stale cleancache hits",
            guest.stale_cleancache_hits
        ));
    }
    let engine_puts: u64 = at_end.iter().map(|s| s.puts).sum();
    if guest.cleancache_puts != engine_puts {
        errors.push(format!(
            "guest issued {} cleancache puts, the engine's pools accepted {engine_puts}",
            guest.cleancache_puts
        ));
    }
    let used = exp.series("mem_used").expect("probe registered");
    if let Some(p) = used.points().iter().find(|p| p.value > capacity as f64) {
        errors.push(format!(
            "memory store held {} pages > capacity {capacity} at {:?}",
            p.value, p.at
        ));
    }
    // Each container's steady occupancy against its weight share.
    let steady: Vec<f64> = APPS
        .iter()
        .map(|a| {
            let s = exp.series(a.name).expect("probe registered");
            let pts: Vec<f64> = s
                .points()
                .iter()
                .filter(|p| p.at > half)
                .map(|p| p.value)
                .collect();
            pts.iter().sum::<f64>() / pts.len().max(1) as f64
        })
        .collect();
    let weights: Vec<u64> = APPS.iter().map(|a| a.weight as u64).collect();
    let names: Vec<&str> = APPS.iter().map(|a| a.name).collect();
    // A container the engine never evicted from in the steady half held
    // all it was given: that, not its occupancy, marks it demand-limited.
    let pressed: Vec<bool> = at_end
        .iter()
        .zip(&at_half)
        .map(|(e, h)| e.evictions > h.evictions)
        .collect();
    if let Err(e) = crate::check_fair_shares(
        "memory",
        capacity as f64,
        &weights,
        &steady,
        &pressed,
        SHARE_SLACK_BATCHES * EVICTION_BATCH_PAGES as f64,
        &names,
    ) {
        errors.push(e);
    }
    for (app, s) in APPS.iter().zip(&at_end) {
        if s.failed_gets + s.failed_puts != 0 {
            errors.push(format!("{} saw store failures", app.name));
        }
    }
    let channel_failures = channel.fail_opens + channel.dropped_calls;
    if channel_failures != 0 {
        errors.push(format!(
            "{channel_failures} hypercalls failed open or were dropped on a healthy channel"
        ));
    }
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }

    let ops: u64 = report.threads.iter().map(|t| t.ops).sum();
    let get_hits: u64 = at_end
        .iter()
        .zip(&at_half)
        .map(|(e, h)| e.hits - h.hits)
        .sum();
    let app_mb_per_s: f64 = APPS.iter().map(|a| report.mb_per_sec_of(a.name)).sum();

    // Timed-phase deltas, except occupancy, which is a level.
    let data_pages = |c: &ChannelCounters| c.gets + c.puts + c.flushes;
    let data_calls = |c: &ChannelCounters| c.calls - c.control_ops;
    let sum = |f: fn(&PoolStats) -> u64| {
        at_end
            .iter()
            .zip(&at_half)
            .map(|(e, h)| f(e) - f(h))
            .sum::<u64>() as f64
    };
    let mem_mb = at_end.iter().map(|s| s.mem_pages).sum::<u64>() as f64 * PAGE_SIZE as f64 / MIB;
    let mut counts = vec![
        (
            "guest.cleancache_puts",
            (guest.cleancache_puts - guest_half.cleancache_puts) as f64,
        ),
        (
            "guest.writebacks",
            (guest.writebacks - guest_half.writebacks) as f64,
        ),
        ("guest.stale_hits", guest.stale_cleancache_hits as f64),
        ("hypercache.gets", sum(|s| s.gets)),
        ("hypercache.hits", sum(|s| s.hits)),
        ("hypercache.puts", sum(|s| s.puts)),
        ("hypercache.evictions", sum(|s| s.evictions)),
        ("hypercache.mem_mb", mem_mb),
        (
            "cleancache.pages_per_call",
            (data_pages(&channel) - data_pages(&channel_half)) as f64
                / (data_calls(&channel) - data_calls(&channel_half)).max(1) as f64,
        ),
    ];
    for (app, &occ) in APPS.iter().zip(&steady) {
        counts.push((app.steady_metric, occ * PAGE_SIZE as f64 / MIB));
    }
    let mut layer = Vec::new();
    if let Some(t) = &spans {
        let flushes = (channel.flushes - channel_half.flushes) as f64;
        let engine_ops = sum(|s| s.gets) + sum(|s| s.puts) + flushes;
        let engine_ns = calibrate_engine_ns(seed);
        layer.push((
            "hypercache.est_share",
            engine_ops * engine_ns / 1e9 / t.total_s(Span::RunUntil),
        ));
    }
    Ok(Round {
        setup_s,
        timed_s,
        cpu_s,
        ops,
        slices,
        // A Filebench operation has no failure path: a cleancache failure
        // is served from the simulated disk. The oracle above fails the
        // run on any such failure instead.
        failed: 0,
        get_hits,
        app_mb_per_s,
        peak_rss_mb,
        alloc,
        counts,
        layer,
        trace: spans,
    })
}

/// Operations in the engine calibration loop.
const CALIBRATION_OPS: u64 = 400_000;

/// Mean wall nanoseconds of one serial-engine operation, measured on a
/// standalone `DoubleDeckerCache` with the fig10 configuration: four
/// weighted pools, a put/get stream over twice the store's capacity (so
/// Algorithm 1 evicts) and a flush every eighth operation. The fig10 run
/// calls the engine from inside the guest model, where no span can reach;
/// this per-operation cost times the engine's own operation counts
/// estimates its share of `run_until`.
fn calibrate_engine_ns(seed: u64) -> f64 {
    let capacity = pages(MEM_CACHE_MB);
    let mut cache = DoubleDeckerCache::new(CacheConfig::mem_only(capacity));
    let vm = VmId(0);
    cache.add_vm(vm, 100);
    let pools: Vec<PoolId> = APPS
        .iter()
        .map(|a| cache.create_pool(vm, CachePolicy::mem(a.weight)))
        .collect();
    let mut rng = crate::Rng::new(mix(seed, 0xCA1B));
    let span = 2 * capacity;
    let start = Instant::now();
    for i in 0..CALIBRATION_OPS {
        let pool = pools[(i % 4) as usize];
        let addr = BlockAddr::new(FileId(1 + i % 4), rng.below(span));
        let now = SimTime::from_nanos(i * 1_000);
        match i % 8 {
            0 => {
                cache.flush(vm, pool, addr);
            }
            1 | 3 | 5 => {
                std::hint::black_box(cache.get(now, vm, pool, addr));
            }
            _ => {
                std::hint::black_box(cache.put(now, vm, pool, addr, PageVersion(0)));
            }
        }
    }
    start.elapsed().as_nanos() as f64 / CALIBRATION_OPS as f64
}
