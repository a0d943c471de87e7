//! The three engine workloads: one client thread drives `ShardedCache`
//! through each VM's `HypercallChannel` batched entry points and checks
//! every outcome against its own model of the guests' disks.
//!
//! The client keeps, per pool, the disk version of every block and the
//! version it believes the cache holds (if any). Writes bump the disk
//! version and flush; puts store the current disk version; gets consume
//! (the cache is exclusive). Nothing in the model is read back from the
//! engine.

use std::time::Instant;

use ddc_core::cleancache::{ChannelCounters, HypercallChannel, SecondChanceCache};
use ddc_core::concurrent::{RemoteSetup, ShardedCache};
use ddc_core::prelude::*;
use ddc_core::storage::{ChunkStore, RemoteId};

use crate::alloc::AllocCount;
use crate::trace::{self, Span};
use crate::{mix, Rng, Round};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    GetFit,
    PutEvict,
}

/// How the client picks blocks.
#[derive(Clone, Copy)]
enum Access {
    /// Uniform over the working set.
    Uniform,
    /// 80% of picks from the first fifth of the working set.
    HotCold,
}

/// What the client may assume about gets.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Oracle {
    /// No eviction: the model predicts every hit and miss exactly.
    Exact,
    /// Eviction may drop anything, but a hit must be a block the client
    /// stored and did not consume or overwrite since, at its version, or
    /// (with the remote tier bound) a block never written, at version 0.
    MayEvict,
}

struct Shape {
    vm_weights: &'static [u64],
    pools: Vec<CachePolicy>,
    working_set: u64,
    flushes: usize,
    puts: usize,
    gets: usize,
    cache: CacheConfig,
    shards: usize,
    journal: bool,
    /// Bind every pool to a healthy remote chunk store.
    remote: bool,
    access: Access,
    oracle: Oracle,
    /// Ticks in set-up (warm-up to steady state) and in the timed phase;
    /// every VM issues one batch trio per tick.
    warm_ticks: u64,
    timed_ticks: u64,
}

const MIB: f64 = (1 << 20) as f64;

fn shape(kind: Kind) -> Shape {
    match kind {
        // Working set 8 × 4096 blocks = half of the 64 Ki-page memory
        // store: nothing is ever evicted.
        Kind::GetFit => Shape {
            vm_weights: &[100, 200, 300, 400],
            pools: vec![CachePolicy::mem(100), CachePolicy::mem(50)],
            working_set: 4096,
            flushes: 1,
            puts: 4,
            gets: 16,
            cache: CacheConfig::mem_only(64 * 1024),
            shards: 4,
            journal: false,
            remote: false,
            access: Access::Uniform,
            oracle: Oracle::Exact,
            warm_ticks: 80_000,
            timed_ticks: 150_000,
        },
        // Working set 3 × 48 Ki blocks per VM = 3 × (memory + SSD
        // store), so each VM's demand far exceeds its share of either
        // store (one SSD pool alone is 3 × the largest SSD share). Every
        // pool is bound to a healthy remote chunk store, so a get that
        // misses a never-written block is a remote fetch.
        Kind::PutEvict => Shape {
            vm_weights: &[100, 200, 300],
            pools: vec![
                CachePolicy::mem(100),
                CachePolicy::hybrid(100),
                CachePolicy::ssd(100),
            ],
            working_set: 48 * 1024,
            flushes: 4,
            puts: 48,
            gets: 12,
            cache: CacheConfig::mem_and_ssd(16 * 1024, 32 * 1024)
                .with_admission(AdmissionConfig::ghost(4096)),
            shards: 4,
            journal: true,
            remote: true,
            access: Access::HotCold,
            oracle: Oracle::MayEvict,
            warm_ticks: 6_000,
            timed_ticks: 12_000,
        },
    }
}

struct PoolModel {
    id: PoolId,
    file: FileId,
    /// Disk version of every block.
    disk: Vec<u32>,
    /// `v + 1` if the client stored version `v` and has not consumed or
    /// invalidated it since; 0 otherwise.
    cached: Vec<u32>,
}

struct VmClient {
    id: VmId,
    weight: u64,
    chan: HypercallChannel,
    pools: Vec<PoolModel>,
    /// Closed-loop virtual clock: each batch starts when the previous one
    /// finished.
    clock: SimTime,
    /// Pages the VM moved through the cache (gets served + puts stored).
    moved: u64,
}

#[derive(Default)]
struct Tally {
    ops: u64,
    /// Pages that failed open or were lost with a dropped call.
    failed: u64,
    hits: u64,
    rejected_puts: u64,
    mismatches: u64,
    first_mismatch: Option<String>,
}

impl Tally {
    /// Counts the pages of one `pages`-page call that failed, from the
    /// channel's counters around it.
    fn failed_pages(&mut self, before: ChannelCounters, after: ChannelCounters, pages: usize) {
        self.failed += if after.dropped_calls > before.dropped_calls {
            pages as u64
        } else {
            after.fail_opens - before.fail_opens
        };
    }

    fn mismatch(&mut self, what: impl FnOnce() -> String) {
        self.mismatches += 1;
        if self.first_mismatch.is_none() {
            self.first_mismatch = Some(what());
        }
    }
}

struct Client {
    shape: Shape,
    cache: ShardedCache,
    vms: Vec<VmClient>,
    rng: Rng,
    tally: Tally,
    addrs: Vec<BlockAddr>,
    blocks: Vec<u64>,
    pages: Vec<(BlockAddr, PageVersion)>,
    tick: u64,
}

impl Client {
    fn new(shape: Shape, seed: u64) -> Client {
        let mut cache = ShardedCache::new(shape.cache, shape.shards);
        if shape.journal {
            cache.enable_journal();
        }
        let remote = shape.remote.then(|| {
            let setup = RemoteSetup::for_driver(mix(seed, 0x4E7));
            cache
                .register_remote(ChunkStore::new(RemoteId(1), setup.config))
                .map(|id| (id, setup.fetch))
                .expect("a fresh cache accepts its first remote")
        });
        let mut vms = Vec::new();
        for (v, &weight) in shape.vm_weights.iter().enumerate() {
            let id = VmId(v as u32);
            cache.add_vm(id, weight);
            let mut chan = HypercallChannel::new(id);
            let mut pools = Vec::new();
            for (p, &policy) in shape.pools.iter().enumerate() {
                let pool = chan.create_pool(&mut cache, policy);
                if let Some((remote, fetch)) = remote {
                    cache
                        .bind_remote(id, pool, remote, fetch)
                        .expect("a fresh pool binds to the remote");
                }
                let n = shape.working_set as usize;
                pools.push(PoolModel {
                    id: pool,
                    file: FileId(1 + (v * shape.pools.len() + p) as u64),
                    disk: vec![0; n],
                    cached: vec![0; n],
                });
            }
            vms.push(VmClient {
                id,
                weight,
                chan,
                pools,
                clock: SimTime::ZERO,
                moved: 0,
            });
        }
        Client {
            shape,
            cache,
            vms,
            rng: Rng::new(seed),
            tally: Tally::default(),
            addrs: Vec::new(),
            blocks: Vec::new(),
            pages: Vec::new(),
            tick: 0,
        }
    }

    fn pick(&mut self) -> u64 {
        let ws = self.shape.working_set;
        match self.shape.access {
            Access::Uniform => self.rng.below(ws),
            Access::HotCold => {
                if self.rng.below(10) < 8 {
                    self.rng.below(ws / 5)
                } else {
                    self.rng.below(ws)
                }
            }
        }
    }

    /// One tick: every VM issues a flush batch, a put batch and a get
    /// batch against one of its pools, then (journaled) the group commit.
    fn tick(&mut self) {
        let call = HypercallChannel::DEFAULT_CALL_COST;
        let pi = (self.tick % self.shape.pools.len() as u64) as usize;
        for v in 0..self.vms.len() {
            // Guest writes: the disk version moves, the cached copy is
            // invalidated by one batched flush.
            self.addrs.clear();
            for _ in 0..self.shape.flushes {
                let b = self.pick();
                let pool = &mut self.vms[v].pools[pi];
                pool.disk[b as usize] += 1;
                pool.cached[b as usize] = 0;
                self.addrs.push(BlockAddr::new(pool.file, b));
            }
            if !self.addrs.is_empty() {
                let vm = &mut self.vms[v];
                let before = vm.chan.counters();
                {
                    let _span = trace::span(Span::FlushMany);
                    vm.chan
                        .flush_many(&mut self.cache, vm.pools[pi].id, &self.addrs);
                }
                self.tally
                    .failed_pages(before, vm.chan.counters(), self.addrs.len());
                vm.clock += call;
            }

            // Page-cache evictions: store the current disk version.
            self.pages.clear();
            self.blocks.clear();
            for _ in 0..self.shape.puts {
                let b = self.pick();
                let pool = &self.vms[v].pools[pi];
                self.blocks.push(b);
                self.pages.push((
                    BlockAddr::new(pool.file, b),
                    PageVersion(pool.disk[b as usize] as u64),
                ));
            }
            if !self.pages.is_empty() {
                let vm = &mut self.vms[v];
                let before = vm.chan.counters();
                let outs = {
                    let _span = trace::span(Span::PutMany);
                    vm.chan
                        .put_many(&mut self.cache, vm.clock, vm.pools[pi].id, &self.pages)
                };
                self.tally
                    .failed_pages(before, vm.chan.counters(), self.pages.len());
                let mut done = vm.clock + call;
                let pool = &mut vm.pools[pi];
                for (&b, out) in self.blocks.iter().zip(&outs) {
                    match *out {
                        PutOutcome::Stored { finish } => {
                            pool.cached[b as usize] = pool.disk[b as usize] + 1;
                            vm.moved += 1;
                            done = done.max(finish);
                        }
                        PutOutcome::Rejected => self.tally.rejected_puts += 1,
                        // Counted by the channel as a fail-open.
                        PutOutcome::Failed { finish } => done = done.max(finish),
                    }
                }
                vm.clock = done;
            }

            // Lookups, each checked against the model.
            self.addrs.clear();
            self.blocks.clear();
            for _ in 0..self.shape.gets {
                let b = self.pick();
                self.blocks.push(b);
            }
            let file = self.vms[v].pools[pi].file;
            self.addrs
                .extend(self.blocks.iter().map(|&b| BlockAddr::new(file, b)));
            let vm = &mut self.vms[v];
            let before = vm.chan.counters();
            let outs = {
                let _span = trace::span(Span::GetMany);
                vm.chan
                    .get_many(&mut self.cache, vm.clock, vm.pools[pi].id, &self.addrs)
            };
            self.tally
                .failed_pages(before, vm.chan.counters(), self.addrs.len());
            let mut done = vm.clock + call;
            let pool = &mut vm.pools[pi];
            let oracle = self.shape.oracle;
            let remote = self.shape.remote;
            for (&b, out) in self.blocks.iter().zip(&outs) {
                let want = pool.cached[b as usize];
                let disk = pool.disk[b as usize];
                pool.cached[b as usize] = 0;
                match *out {
                    GetOutcome::Hit { finish, version } => {
                        self.tally.hits += 1;
                        vm.moved += 1;
                        done = done.max(finish);
                        // A stored copy carries the disk version it was
                        // stored at; the remote only holds version 0 and
                        // never serves a block written since boot.
                        let ok = version.0 == disk as u64 && (want != 0 || (remote && disk == 0));
                        if !ok {
                            self.tally.mismatch(|| {
                                format!(
                                    "vm {} pool {} block {b}: hit at version {} but the model \
                                     holds {want} (0 = not stored) over disk version {disk}",
                                    vm.id.0, pool.id.0, version.0
                                )
                            });
                        }
                    }
                    GetOutcome::Miss => {
                        if oracle == Oracle::Exact && want != 0 {
                            self.tally.mismatch(|| {
                                format!(
                                    "vm {} pool {} block {b}: miss, the model predicts a hit",
                                    vm.id.0, pool.id.0
                                )
                            });
                        }
                    }
                    // The channel turns failures into misses and counts them.
                    GetOutcome::Failed { .. } => {}
                }
            }
            vm.clock = done;
            self.tally.ops +=
                (self.shape.flushes + self.shape.puts) as u64 + self.blocks.len() as u64;
        }
        if self.shape.journal {
            let _span = trace::span(Span::CommitTick);
            self.cache.commit_tick();
        }
        if self.cache.mem_used_pages() > self.shape.cache.mem_capacity_pages
            || self.cache.ssd_used_pages() > self.shape.cache.ssd_capacity_pages
        {
            let (mem, ssd) = (self.cache.mem_used_pages(), self.cache.ssd_used_pages());
            self.tally
                .mismatch(|| format!("store occupancy {mem}/{ssd} pages exceeds capacity"));
        }
        self.tick += 1;
    }

    /// Additive counters of every layer the engine workloads reach.
    fn counters(&self) -> Vec<(&'static str, f64)> {
        let c = &self.cache;
        let (lockfree, replica) = c.local_read_stats();
        let batch = c.batch_counters();
        let wear = c.wear_totals();
        let remote = c.remote_totals();
        let (mut calls, mut pages) = (0, 0);
        for vm in &self.vms {
            let ch = vm.chan.counters();
            calls += ch.calls;
            pages += ch.gets + ch.puts + ch.flushes;
        }
        vec![
            ("cleancache.calls", calls as f64),
            ("cleancache.pages", pages as f64),
            ("concurrent.lockfree_misses", lockfree as f64),
            ("concurrent.replica_hits", replica as f64),
            ("concurrent.seqlock_retries", c.seqlock_retries() as f64),
            ("concurrent.batched_ops", batch.batched_ops as f64),
            (
                "concurrent.lock_acquisitions",
                batch.lock_acquisitions as f64,
            ),
            (
                "concurrent.reservation_retries",
                batch.reservation_retries as f64,
            ),
            (
                "concurrent.reservation_fallbacks",
                batch.reservation_fallbacks as f64,
            ),
            ("concurrent.two_phase_retries", c.two_phase_retries() as f64),
            (
                "concurrent.two_phase_fallbacks",
                c.two_phase_fallbacks() as f64,
            ),
            ("concurrent.evictions", c.evictions() as f64),
            ("concurrent.trickle_downs", c.trickle_downs() as f64),
            (
                "storage.journal.compactions",
                c.journal_compactions() as f64,
            ),
            (
                "storage.wear.ssd_pages_written",
                wear.ssd_pages_written as f64,
            ),
            ("storage.wear.pages_admitted", wear.pages_admitted as f64),
            ("storage.wear.spill_attempts", wear.spill_attempts as f64),
            ("storage.wear.spill_rejects", wear.spill_rejects as f64),
            ("storage.remote.fetches", remote.fetches as f64),
            ("storage.remote.edge_hits", remote.edge_hits as f64),
            (
                "storage.remote.origin_fetches",
                remote.origin_fetches as f64,
            ),
            ("storage.remote.hedges", remote.hedges as f64),
            (
                "storage.remote.readahead_hits",
                remote.readahead_hits as f64,
            ),
            ("storage.remote.failed", remote.failed as f64),
            ("storage.remote.shed", remote.shed as f64),
            ("storage.remote.timeouts", remote.timeouts as f64),
        ]
    }

    /// Every resident entry must be one the model says was stored and
    /// not consumed since, at its disk version; with no eviction the two
    /// sets must be equal.
    fn check_resident(
        &self,
        entries: &[(VmId, PoolId, BlockAddr, PageVersion)],
        what: &str,
    ) -> Result<(), String> {
        let mut modeled = 0u64;
        for vm in &self.vms {
            for pool in &vm.pools {
                modeled += pool.cached.iter().filter(|&&c| c != 0).count() as u64;
            }
        }
        for &(vm, pool, addr, version) in entries {
            let model = self
                .vms
                .iter()
                .find(|v| v.id == vm)
                .and_then(|v| v.pools.iter().find(|p| p.id == pool))
                .ok_or_else(|| format!("{what}: entry in unknown pool {vm}/{pool}"))?;
            let b = addr.block as usize;
            if addr.file != model.file
                || b >= model.cached.len()
                || model.cached[b] == 0
                || version.0 != model.disk[b] as u64
            {
                return Err(format!(
                    "{what}: entry {vm}/{pool} block {} version {} is not in the client's model",
                    addr.block, version.0
                ));
            }
        }
        if self.shape.oracle == Oracle::Exact && entries.len() as u64 != modeled {
            return Err(format!(
                "{what}: {} resident entries, the model predicts {modeled}",
                entries.len()
            ));
        }
        Ok(())
    }

    /// Evictions from each pool so far, VM-major.
    fn pool_evictions(&self) -> Vec<u64> {
        self.vms
            .iter()
            .flat_map(|vm| vm.pools.iter().map(move |p| (vm.id, p.id)))
            .map(|(vm, pool)| self.cache.pool_stats(vm, pool).map_or(0, |s| s.evictions))
            .collect()
    }

    /// Each VM's occupancy of each store against its plain weighted
    /// share, `capacity × weight / Σ weights`, within one eviction batch
    /// per pool. The plain share is only fair if no VM is demand-limited,
    /// so each VM's memory-only and SSD-only pools must have been evicted
    /// from since `evictions0` (a [`Client::pool_evictions`] snapshot).
    fn check_shares(&self, evictions0: &[u64]) -> Result<(), String> {
        let weights: Vec<u64> = self.vms.iter().map(|v| v.weight).collect();
        let slack = (EVICTION_BATCH_PAGES * self.shape.pools.len() as u64) as f64;
        let evicted: Vec<u64> = self
            .pool_evictions()
            .iter()
            .zip(evictions0)
            .map(|(a, b)| a - b)
            .collect();
        let mut mem = Vec::new();
        let mut ssd = Vec::new();
        for (v, vm) in self.vms.iter().enumerate() {
            let (mut m, mut s) = (0, 0);
            for (p, pool) in vm.pools.iter().enumerate() {
                let stats = self
                    .cache
                    .pool_stats(vm.id, pool.id)
                    .ok_or_else(|| format!("pool {}/{} vanished", vm.id, pool.id))?;
                m += stats.mem_pages;
                s += stats.ssd_pages;
                let store = self.shape.pools[p].store;
                if store != StoreKind::Hybrid && evicted[v * vm.pools.len() + p] == 0 {
                    return Err(format!(
                        "{store} pool {}/{} was never evicted from in the timed phase: \
                         the VM is demand-limited and the plain share check does not apply",
                        vm.id, pool.id
                    ));
                }
            }
            mem.push(m as f64);
            ssd.push(s as f64);
        }
        let names: Vec<String> = self.vms.iter().map(|v| v.id.to_string()).collect();
        let pressed = vec![true; self.vms.len()];
        let cache = &self.shape.cache;
        crate::check_fair_shares(
            "memory",
            cache.mem_capacity_pages as f64,
            &weights,
            &mem,
            &pressed,
            slack,
            &names,
        )?;
        crate::check_fair_shares(
            "SSD",
            cache.ssd_capacity_pages as f64,
            &weights,
            &ssd,
            &pressed,
            slack,
            &names,
        )
    }
}

fn delta(
    after: &[(&'static str, f64)],
    before: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    after
        .iter()
        .zip(before)
        .map(|(&(name, a), &(_, b))| (name, a - b))
        .collect()
}

pub fn round(kind: Kind, seed: u64, traced: bool) -> Result<Round, String> {
    // ---- set-up: build the cache and warm it to steady state ----
    let setup_start = Instant::now();
    let mut client = Client::new(shape(kind), seed);
    for _ in 0..client.shape.warm_ticks {
        client.tick();
    }
    let before = client.counters();
    let evictions0 = client.pool_evictions();
    let tally0 = std::mem::take(&mut client.tally);
    let clocks0: Vec<(SimTime, u64)> = client.vms.iter().map(|v| (v.clock, v.moved)).collect();
    let setup_s = setup_start.elapsed().as_secs_f64();

    // ---- timed phase ----
    if traced {
        trace::start();
    }
    let cpu0 = crate::cpu_seconds();
    let alloc0 = AllocCount::now();
    let timed_start = Instant::now();
    let mut slices = Vec::with_capacity(crate::SLICES as usize);
    {
        let _timed = trace::span(Span::Timed);
        let per_slice = client.shape.timed_ticks / crate::SLICES;
        for _ in 0..crate::SLICES {
            let slice_start = Instant::now();
            let ops0 = client.tally.ops;
            for _ in 0..per_slice {
                client.tick();
            }
            slices.push((client.tally.ops - ops0) as f64 / slice_start.elapsed().as_secs_f64());
        }
    }
    let timed_s = timed_start.elapsed().as_secs_f64();
    let alloc = AllocCount::now().since(alloc0);
    let cpu_s = crate::cpu_seconds() - cpu0;
    let peak_rss_mb = crate::peak_rss_mb()?;
    let counts = delta(&client.counters(), &before);

    // ---- oracles ----
    let tally = &client.tally;
    if tally.mismatches + tally0.mismatches > 0 {
        return Err(format!(
            "{} outcomes disagree with the client's model; first: {}",
            tally.mismatches + tally0.mismatches,
            tally0
                .first_mismatch
                .as_deref()
                .or(tally.first_mismatch.as_deref())
                .unwrap_or("")
        ));
    }
    if kind == Kind::GetFit && tally.rejected_puts + tally0.rejected_puts > 0 {
        return Err("a put was rejected with room to spare".into());
    }
    let count = |name: &str| {
        counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    if kind == Kind::GetFit && count("concurrent.evictions") > 0.0 {
        return Err("the fitting working set was evicted from".into());
    }
    if client.shape.remote {
        let bad = count("storage.remote.failed")
            + count("storage.remote.shed")
            + count("storage.remote.timeouts");
        if bad > 0.0 {
            return Err(format!(
                "a healthy remote failed, shed or timed out {bad} fetches"
            ));
        }
    }
    let ratio_of = |a: &str, b: &str| crate::ratio(count(a), count(b));
    let derived = [
        (
            "cleancache.pages_per_call",
            ratio_of("cleancache.pages", "cleancache.calls"),
        ),
        (
            "concurrent.ops_per_lock",
            ratio_of("concurrent.batched_ops", "concurrent.lock_acquisitions"),
        ),
        (
            "storage.wear.write_amplification",
            ratio_of(
                "storage.wear.ssd_pages_written",
                "storage.wear.pages_admitted",
            ),
        ),
    ];
    let mut counts = counts;
    counts.extend(derived);
    let live = client.cache.entries();
    client.check_resident(&live, "live cache")?;
    if kind == Kind::PutEvict {
        client.check_shares(&evictions0)?;
        client.cache.commit_tick();
        let images = client.cache.journal_images().expect("journal on");
        // Levels at the end of the round, not timed-phase deltas.
        counts.push((
            "storage.journal.image_mb",
            images.iter().map(|i| i.len()).sum::<usize>() as f64 / MIB,
        ));
        counts.push((
            "storage.journal.records",
            client.cache.journal_records().unwrap_or(0) as f64,
        ));
        let epochs: Vec<(VmId, u64)> = client
            .vms
            .iter()
            .map(|v| (v.id, v.chan.flush_epoch()))
            .collect();
        let (recovered, _report) = {
            let _span = trace::span(Span::Recover);
            ShardedCache::recover(client.shape.cache, &images, &epochs)
        };
        let restored = recovered.entries();
        client.check_resident(&restored, "recovered cache")?;
        if restored != live {
            return Err(format!(
                "recovery rebuilt {} entries, the live cache held {}",
                restored.len(),
                live.len()
            ));
        }
    }
    let spans = traced.then(trace::stop);
    let sim_mb_per_s: f64 = client
        .vms
        .iter()
        .zip(&clocks0)
        .map(|(vm, &(clock0, moved0))| {
            let secs = (vm.clock - clock0).as_secs_f64();
            (vm.moved - moved0) as f64 * PAGE_SIZE as f64 / 1e6 / secs
        })
        .sum();
    Ok(Round {
        setup_s,
        timed_s,
        cpu_s,
        ops: tally.ops,
        slices,
        failed: tally.failed,
        get_hits: tally.hits,
        app_mb_per_s: sim_mb_per_s,
        peak_rss_mb,
        alloc,
        counts,
        layer: Vec::new(),
        trace: spans,
    })
}
