//! Disk controller: page cache, prefetching, flow control, combining.
//!
//! The controller owns a tiny page cache (Table 1: 16 KB = 4 pages) in
//! front of the mechanical disk. Protocol (paper §3.1):
//!
//! * **Reads** — a requested page is served from the cache when present
//!   (*cache hit*); otherwise the disk is accessed. Under the *naive*
//!   policy the controller then keeps filling its cache with the pages
//!   sequentially following the missing page; under the *optimal*
//!   policy every read is a cache hit (all disk reads happen in the
//!   background of the request).
//! * **Writes (swap-outs)** — if the cache has room the page is
//!   installed and `ACK`ed ("writes are given preference over
//!   prefetches in the cache": clean pages are evicted for incoming
//!   writes). If the cache is full of swap-outs the controller `NACK`s
//!   and records the requester in a FIFO; when room appears it sends
//!   `OK`, prompting a re-send, with the freed slot reserved for that
//!   requester.
//! * **Write combining** — when the controller writes dirty pages to
//!   the disk it combines every run of consecutive blocks present in
//!   the cache into a single disk operation (Tables 5/6 measure the
//!   average pages per operation; the 4-slot cache caps it at 4).

use crate::dcd::LogDisk;
use crate::mechanics::Mechanics;
use crate::{Block, Page};
use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::stats::Tally;
use nw_sim::{Resource, Time};
use std::collections::VecDeque;

/// Read prefetching policy (paper §3.1, plus a realistic extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// Idealized prefetching: every page read hits the controller
    /// cache; disk reads run entirely in the background.
    Optimal,
    /// On a read miss, fill the cache with sequentially-following
    /// pages.
    Naive,
    /// Realistic windowed prefetching (the "sophisticated techniques"
    /// the paper expects to land between the two extremes): like
    /// naive on a miss, but sequential streams are also extended on
    /// *hits*, keeping the prefetcher ahead of a sequential reader up
    /// to `depth` pages.
    Window {
        /// How many pages ahead of the current request to stay.
        depth: usize,
    },
    /// No controller-initiated prefetching at all: misses fetch only
    /// the demand page. Used by the machine-level *adaptive* policy,
    /// which drives speculation explicitly through
    /// [`DiskController::spec_hint`] instead of letting the
    /// controller guess from the miss stream.
    Demand,
}

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct DiskControllerConfig {
    /// Cache capacity in pages (paper: 4).
    pub cache_pages: usize,
    /// Prefetch policy.
    pub policy: PrefetchPolicy,
    /// Accumulation window between a swap-out landing in the cache and
    /// the controller starting to flush it, letting consecutive pages
    /// gather so they can be combined.
    pub flush_delay: Time,
    /// Capacity of the speculative side cache fed by
    /// [`DiskController::spec_hint`]. Separate from the main cache so
    /// swap-out writes (which evict clean slots) cannot pollute
    /// hinted reads. Unused unless hints are issued.
    pub spec_cache_pages: usize,
}

impl DiskControllerConfig {
    /// Paper defaults with the given policy.
    pub fn paper_default(policy: PrefetchPolicy) -> Self {
        DiskControllerConfig {
            cache_pages: 4,
            policy,
            flush_delay: 50_000, // 250 us accumulation window
            spec_cache_pages: 8,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Empty,
    /// A (pre)fetched page; may be evicted for an incoming write.
    Clean { page: Page },
    /// A swap-out waiting to be written to disk.
    Dirty { page: Page, block: Block, seq: u64 },
    /// Freed space promised to a NACKed requester via `OK`.
    Reserved { node: u32 },
}

/// Which Clean slot a claim may evict when no Empty slot is free.
#[derive(Debug, Clone, Copy)]
enum CleanRule {
    /// Any Clean slot, even one whose fill is still in flight: a write
    /// evicts prefetched data.
    Any,
    /// A Clean slot whose fill has completed: prefetches and NACKed
    /// requesters never displace in-flight, dirty or reserved slots.
    Ready,
    /// A completed Clean slot at or before the given page: a stream
    /// extension reuses pages it has already read past.
    Consumed(Page),
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    state: SlotState,
    /// The slot's contents become usable/free at this time (covers
    /// in-flight prefetch fills and in-progress flushes).
    available_at: Time,
    last_use: u64,
}

/// Outcome of a page-read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Served from the controller cache.
    Hit {
        /// When the data can start moving to the I/O bus.
        ready_at: Time,
    },
    /// Required a mechanical disk access.
    Miss {
        /// When the page is in the cache, after queueing for the arm.
        ready_at: Time,
    },
}

impl ReadOutcome {
    /// When the page is available, regardless of hit/miss.
    pub fn ready_at(&self) -> Time {
        match *self {
            ReadOutcome::Hit { ready_at } | ReadOutcome::Miss { ready_at } => ready_at,
        }
    }

    /// True for cache hits.
    pub fn is_hit(&self) -> bool {
        matches!(self, ReadOutcome::Hit { .. })
    }
}

/// Outcome of a swap-out write request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Installed in the cache; the requester gets an ACK. The caller
    /// should poll [`DiskController::try_flush`] at `flush_check_at`.
    Ack {
        /// When the controller should attempt a flush.
        flush_check_at: Time,
    },
    /// Cache full of swap-outs; requester queued for a later `OK`.
    Nack,
}

/// A speculative read that completed and now sits in the controller's
/// side cache waiting for the demand read it anticipated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SpecEntry {
    page: Page,
    /// Node whose miss stream produced the hint (tagging lets the
    /// machine attribute installs back to its per-node detector).
    node: u32,
    ready_at: Time,
}

/// One page of the speculative batch currently occupying the disk arm.
/// A batch is a run of consecutive blocks read in a single arm access
/// (positioning paid once, like combined writes); each page becomes
/// available as its slice of the transfer completes.
#[derive(Debug, Clone, Copy, Default)]
struct SpecActive {
    page: Page,
    node: u32,
    done_at: Time,
    /// Set when a demand read (or a superseding write) claimed the
    /// page mid-flight; the completed read is then discarded instead
    /// of installed.
    consumed: bool,
}

/// Outcome of a speculative-read hint ([`DiskController::spec_hint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecOutcome {
    /// The page is already cached or already tracked by the spec
    /// engine; the hint is dropped.
    Duplicate,
    /// The hint joined the speculation queue. When `schedule_check`
    /// is true no poll is outstanding and the caller must schedule a
    /// spec-engine step; when false a poll is already armed.
    Queued {
        /// Whether the caller must schedule a [`DiskController::spec_step`].
        schedule_check: bool,
    },
}

/// Result of one spec-engine step ([`DiskController::spec_step`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecProgress {
    /// Completed speculative reads that entered the side cache this
    /// step: `(page, hinting node)` in completion order.
    pub installed: Vec<(Page, u32)>,
    /// A queued batch acquired the arm this step.
    pub started: bool,
    /// When the caller should step the engine again; `None` when the
    /// engine has nothing in flight and nothing queued.
    pub next_check: Option<Time>,
}

/// A completed flush of one combined run of dirty pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushResult {
    /// When the disk operation started.
    pub start: Time,
    /// When the disk operation completes (slots free then).
    pub done_at: Time,
    /// Pages written in this single disk operation.
    pub pages: u64,
    /// `(node, page)` OK messages to deliver at `done_at`.
    pub oks: Vec<(u32, Page)>,
}

/// One disk controller (cache + arm + FIFO).
#[derive(Debug)]
pub struct DiskController {
    cfg: DiskControllerConfig,
    mech: Mechanics,
    arm: Resource,
    /// Optional DCD log-disk stage: flushes append here sequentially
    /// instead of seeking the data disk.
    log: Option<LogDisk>,
    slots: Vec<Slot>,
    nack_fifo: VecDeque<(u32, Page)>,
    clock: u64,
    dirty_seq: u64,
    // Speculative-read engine (driven by hints; empty otherwise).
    spec_queue: VecDeque<(Page, Block, u32)>,
    spec_active: VecDeque<SpecActive>,
    spec_cache: VecDeque<SpecEntry>,
    spec_poll_armed: bool,
    // statistics
    read_hits: u64,
    read_misses: u64,
    write_acks: u64,
    write_nacks: u64,
    prefetch_fills: u64,
    spec_hits: u64,
    spec_late: u64,
    spec_wasted: u64,
    spec_canceled: u64,
    combining: Tally,
    read_service: Tally,
}

impl DiskController {
    /// A controller with config `cfg` over mechanics `mech`.
    pub fn new(cfg: DiskControllerConfig, mech: Mechanics) -> Self {
        assert!(cfg.cache_pages > 0, "controller cache needs slots");
        DiskController {
            slots: vec![
                Slot {
                    state: SlotState::Empty,
                    available_at: 0,
                    last_use: 0,
                };
                cfg.cache_pages
            ],
            cfg,
            mech,
            arm: Resource::new(),
            log: None,
            nack_fifo: VecDeque::new(),
            clock: 0,
            dirty_seq: 0,
            spec_queue: VecDeque::new(),
            spec_active: VecDeque::new(),
            spec_cache: VecDeque::new(),
            spec_poll_armed: false,
            read_hits: 0,
            read_misses: 0,
            write_acks: 0,
            write_nacks: 0,
            prefetch_fills: 0,
            spec_hits: 0,
            spec_late: 0,
            spec_wasted: 0,
            spec_canceled: 0,
            combining: Tally::new(),
            read_service: Tally::new(),
        }
    }

    /// Paper-default controller for the given policy.
    pub fn paper_default(policy: PrefetchPolicy) -> Self {
        DiskController::new(
            DiskControllerConfig::paper_default(policy),
            Mechanics::paper_default(),
        )
    }

    /// Attach a DCD log-disk stage: subsequent flushes append to the
    /// log sequentially and reads check the log after the RAM cache.
    pub fn attach_log_disk(&mut self, log: LogDisk) {
        self.log = Some(log);
    }

    /// The attached log disk, if any.
    pub fn log_disk(&self) -> Option<&LogDisk> {
        self.log.as_ref()
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn find_page(&self, page: Page) -> Option<usize> {
        self.slots.iter().position(|s| match s.state {
            SlotState::Clean { page: p } | SlotState::Dirty { page: p, .. } => p == page,
            _ => false,
        })
    }

    /// A slot a claim may take at `now`: the first Empty slot free by
    /// then, else the least-recently-used Clean slot `rule` allows
    /// (the lowest index on a tie).
    fn claim_slot(&self, now: Time, rule: CleanRule) -> Option<usize> {
        if let Some(i) = self
            .slots
            .iter()
            .position(|s| s.state == SlotState::Empty && s.available_at <= now)
        {
            return Some(i);
        }
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| match (s.state, rule) {
                (SlotState::Clean { .. }, CleanRule::Any) => true,
                (SlotState::Clean { .. }, CleanRule::Ready) => s.available_at <= now,
                (SlotState::Clean { page }, CleanRule::Consumed(consumed)) => {
                    page <= consumed && s.available_at <= now
                }
                _ => false,
            })
            .min_by_key(|(_, s)| s.last_use)
            .map(|(i, _)| i)
    }

    /// Release flushed slot `i` at `at`: reserve it for the head of
    /// the NACK FIFO, whose `OK` goes on `oks`, or free it.
    fn release_flushed(&mut self, i: usize, at: Time, oks: &mut Vec<(u32, Page)>) {
        let state = match self.nack_fifo.pop_front() {
            Some((node, page)) => {
                oks.push((node, page));
                SlotState::Reserved { node }
            }
            None => SlotState::Empty,
        };
        self.slots[i] = Slot {
            state,
            available_at: at,
            last_use: self.slots[i].last_use,
        };
    }

    /// Handle a page-read request arriving at `now`.
    pub fn read_page(&mut self, now: Time, page: Page, block: Block) -> ReadOutcome {
        let use_clock = self.tick();
        // Cache hit: the page is present *and* fully in the cache. A
        // page whose (pre)fetch is still in flight is classified as a
        // miss — the requester waits for the fill like a demand read.
        if let Some(i) = self.find_page(page) {
            self.slots[i].last_use = use_clock;
            let ready_at = self.slots[i].available_at.max(now);
            let was_ready = self.slots[i].available_at <= now;
            // Windowed prefetching keeps sequential streams ahead even
            // on hits.
            if let PrefetchPolicy::Window { depth } = self.cfg.policy {
                self.extend_stream(now, page, block, depth);
            }
            if was_ready {
                self.read_hits += 1;
                return ReadOutcome::Hit { ready_at };
            }
            self.read_misses += 1;
            return ReadOutcome::Miss { ready_at };
        }
        // Speculative side cache: a hinted read that already completed
        // serves the demand directly; one still on the arm is consumed
        // at its completion time (a *late* prefetch, still a hit).
        if let Some(i) = self.spec_cache.iter().position(|e| e.page == page) {
            let e = self.spec_cache.remove(i).expect("position is in bounds");
            self.read_hits += 1;
            self.spec_hits += 1;
            if e.ready_at > now {
                self.spec_late += 1;
            }
            return ReadOutcome::Hit {
                ready_at: e.ready_at.max(now),
            };
        }
        if let Some(a) = self
            .spec_active
            .iter_mut()
            .find(|a| !a.consumed && a.page == page)
        {
            a.consumed = true;
            let ready_at = a.done_at.max(now);
            self.read_hits += 1;
            self.spec_hits += 1;
            if a.done_at > now {
                self.spec_late += 1;
            }
            return ReadOutcome::Hit { ready_at };
        }
        // Demand-miss collision with a queued (unstarted) hint for the
        // same page: cancel it — the demand read pays the mechanics
        // itself, and the hint would only duplicate the transfer.
        if let Some(i) = self.spec_queue.iter().position(|&(p, _, _)| p == page) {
            self.spec_queue.remove(i);
            self.spec_canceled += 1;
        }
        if self.cfg.policy == PrefetchPolicy::Optimal {
            // Idealized: the page was already prefetched into the
            // cache, so the request is served immediately -- but the
            // background prefetch still occupied the disk (paper: "all
            // disk read accesses are performed in the background of
            // page read requests"). Charge the arm a sequential
            // transfer so writes contend with the prefetch stream.
            self.read_hits += 1;
            let bg = self.mech.transfer_time(1);
            self.arm.try_acquire(now, bg);
            return ReadOutcome::Hit { ready_at: now };
        }
        // Naive/window: streams extend on hits under the window policy.
        // (A hit returned above under both policies.)
        self.read_misses += 1;
        // DCD: the newest copy may live on the log disk; reading it
        // back pays full mechanics there ("comparable to accesses to
        // the data disk") and skips the data-disk arm.
        if self.log.as_ref().is_some_and(|l| l.contains(page)) {
            let done = self
                .log
                .as_mut()
                .expect("checked above")
                .read(now, page)
                .expect("contains implies readable");
            self.read_service.add(done - now);
            if let Some(i) = self.claim_slot(now, CleanRule::Ready) {
                let use_clock = self.tick();
                self.slots[i] = Slot {
                    state: SlotState::Clean { page },
                    available_at: done,
                    last_use: use_clock,
                };
            }
            return ReadOutcome::Miss { ready_at: done };
        }
        let service = self.mech.access(block, 1);
        let grant = self.arm.acquire(now, service);
        self.read_service.add(grant.end - now);
        let ready_at = grant.end;
        // Install the demand page.
        if let Some(i) = self.claim_slot(now, CleanRule::Ready) {
            let use_clock = self.tick();
            self.slots[i] = Slot {
                state: SlotState::Clean { page },
                available_at: ready_at,
                last_use: use_clock,
            };
        }
        // Sequential prefetch: fill remaining eligible slots with the
        // pages following the miss.
        let span = match self.cfg.policy {
            PrefetchPolicy::Window { depth } => depth.max(1),
            PrefetchPolicy::Demand => 0,
            _ => self.cfg.cache_pages,
        };
        let mut next_page = page + 1;
        let mut next_block = block + 1;
        let mut fill_done = ready_at;
        for _ in 0..span {
            // Never prefetch a page already cached.
            if self.find_page(next_page).is_some() {
                next_page += 1;
                next_block += 1;
                continue;
            }
            let Some(i) = self.claim_slot(now, CleanRule::Ready) else {
                break;
            };
            // Sequential continuation: transfer time only.
            let service = self.mech.access(next_block, 1);
            let grant = self.arm.acquire(fill_done, service);
            fill_done = grant.end;
            let use_clock = self.tick();
            // Prefetched pages are older than the demand page in LRU
            // terms; use_clock ordering already ensures the demand
            // page was touched most recently... except it was touched
            // earlier. Touch prefetches with an older timestamp by
            // swapping: simplest is to leave them most-recent; the
            // 4-slot cache makes the distinction negligible.
            self.prefetch_fills += 1;
            self.slots[i] = Slot {
                state: SlotState::Clean { page: next_page },
                available_at: fill_done,
                last_use: use_clock.saturating_sub(1_000_000),
            };
            next_page += 1;
            next_block += 1;
        }
        ReadOutcome::Miss { ready_at }
    }

    /// Extend a sequential prefetch stream past a hit page: fetch the
    /// pages following `page` that are not yet cached, using eligible
    /// (empty/clean) slots only, in the background of the request.
    fn extend_stream(&mut self, now: Time, page: Page, block: Block, depth: usize) {
        let mut fill_from = now;
        for k in 1..=depth as u64 {
            let next_page = page + k;
            let next_block = block + k;
            if self.find_page(next_page).is_some() {
                continue;
            }
            // Only displace empty slots or pages the reader has already
            // consumed (<= the current hit) — never the unread lookahead.
            let Some(i) = self.claim_slot(now, CleanRule::Consumed(page)) else {
                break;
            };
            let service = self.mech.access(next_block, 1);
            let grant = self.arm.acquire(fill_from, service);
            fill_from = grant.end;
            let use_clock = self.tick();
            self.prefetch_fills += 1;
            self.slots[i] = Slot {
                state: SlotState::Clean { page: next_page },
                available_at: grant.end,
                last_use: use_clock.saturating_sub(1_000_000),
            };
        }
    }

    /// Handle a swap-out page write arriving at `now` from `from_node`.
    pub fn write_page(
        &mut self,
        now: Time,
        page: Page,
        block: Block,
        from_node: u32,
    ) -> WriteOutcome {
        let use_clock = self.tick();
        let seq = self.dirty_seq;
        // A swap-out supersedes any speculative copy of the page: the
        // hinted data is stale the moment the write is accepted.
        if let Some(i) = self.spec_cache.iter().position(|e| e.page == page) {
            self.spec_cache.remove(i);
            self.spec_wasted += 1;
        }
        if let Some(i) = self.spec_queue.iter().position(|&(p, _, _)| p == page) {
            self.spec_queue.remove(i);
            self.spec_canceled += 1;
        }
        if let Some(a) = self
            .spec_active
            .iter_mut()
            .find(|a| !a.consumed && a.page == page)
        {
            a.consumed = true;
            self.spec_wasted += 1;
        }
        // Overwrite of a page already cached (clean or dirty).
        if let Some(i) = self.find_page(page) {
            self.dirty_seq += 1;
            self.write_acks += 1;
            self.retract_nack(from_node, page);
            self.slots[i] = Slot {
                state: SlotState::Dirty { page, block, seq },
                available_at: now,
                last_use: use_clock,
            };
            return WriteOutcome::Ack {
                flush_check_at: now + self.cfg.flush_delay,
            };
        }
        // A slot reserved for this node by a previous OK.
        let reserved = self
            .slots
            .iter()
            .position(|s| s.state == SlotState::Reserved { node: from_node });
        let slot = reserved.or_else(|| self.claim_slot(now, CleanRule::Any));
        match slot {
            Some(i) => {
                self.dirty_seq += 1;
                self.write_acks += 1;
                self.retract_nack(from_node, page);
                self.slots[i] = Slot {
                    state: SlotState::Dirty { page, block, seq },
                    available_at: now,
                    last_use: use_clock,
                };
                WriteOutcome::Ack {
                    flush_check_at: now + self.cfg.flush_delay,
                }
            }
            None => {
                self.write_nacks += 1;
                // A timed-out-and-re-sent swap can be NACKed more than
                // once; a second FIFO entry would earn the node a second
                // reservation that no write ever consumes.
                if !self.nack_fifo.iter().any(|&(n, p)| n == from_node && p == page) {
                    self.nack_fifo.push_back((from_node, page));
                }
                WriteOutcome::Nack
            }
        }
    }

    /// Attempt to flush one combined run of dirty pages at `now`.
    ///
    /// Picks the oldest dirty page, combines it with every cached dirty
    /// page on consecutive blocks, and writes them in a single disk
    /// operation. Freed slots are first handed to NACKed requesters
    /// (as `Reserved`, with an `OK` message in the result).
    pub fn try_flush(&mut self, now: Time) -> Option<FlushResult> {
        if self.log.is_some() {
            return self.try_flush_to_log(now);
        }
        // Demand reads have priority on the arm: a background flush
        // only starts when the disk is idle. Callers use
        // [`DiskController::arm_free_at`] to re-poll.
        if !self.arm.is_idle_at(now) {
            return None;
        }
        // Collect flushable dirty slots (installed by now).
        let mut dirty: Vec<(usize, Page, Block, u64)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s.state {
                SlotState::Dirty { page, block, seq } if s.available_at <= now => {
                    Some((i, page, block, seq))
                }
                _ => None,
            })
            .collect();
        if dirty.is_empty() {
            return None;
        }
        // Oldest first.
        let &(_, _, seed_block, _) = dirty.iter().min_by_key(|&&(_, _, _, seq)| seq)?;
        // Gather the run of consecutive blocks containing seed_block.
        dirty.sort_by_key(|&(_, _, b, _)| b);
        let seed_pos = dirty.iter().position(|&(_, _, b, _)| b == seed_block)?;
        let mut lo = seed_pos;
        while lo > 0 && dirty[lo - 1].2 + 1 == dirty[lo].2 {
            lo -= 1;
        }
        let mut hi = seed_pos;
        while hi + 1 < dirty.len() && dirty[hi].2 + 1 == dirty[hi + 1].2 {
            hi += 1;
        }
        let run = &dirty[lo..=hi];
        let npages = run.len() as u64;
        let start_block = run[0].2;
        let service = self.mech.access(start_block, npages);
        let grant = self.arm.acquire(now, service);
        self.combining.add(npages);
        // Transition slots: freed at grant.end, reserved for waiters.
        let mut oks = Vec::new();
        for &(i, _, _, _) in run {
            self.release_flushed(i, grant.end, &mut oks);
        }
        Some(FlushResult {
            start: grant.start,
            done_at: grant.end,
            pages: npages,
            oks,
        })
    }

    /// Accept a machine-issued speculative-read hint: read `page` into
    /// the side cache when the arm has nothing better to do. Duplicate
    /// hints (page cached, queued, reading, or installed) are dropped.
    pub fn spec_hint(&mut self, _now: Time, page: Page, block: Block, node: u32) -> SpecOutcome {
        if self.find_page(page).is_some() || self.spec_tracks(page) {
            return SpecOutcome::Duplicate;
        }
        self.spec_queue.push_back((page, block, node));
        let schedule_check = !self.spec_poll_armed;
        self.spec_poll_armed = true;
        SpecOutcome::Queued { schedule_check }
    }

    /// Advance the speculative-read engine at `now`: retire finished
    /// reads into the side cache (FIFO-evicting the oldest un-consumed
    /// entry when full — counted as *wasted* speculation) and, when
    /// the current batch is drained, start the next queued batch. A
    /// batch is the front hint plus every queued hint that continues
    /// its block run, read in a single arm access so the seek and
    /// rotation are paid once (the same amortization that makes
    /// combined writes cheaper than separate ones). Batches queue on
    /// the arm like demand work: on a busy disk the arm never idles,
    /// so waiting for an idle window would let the demand read for a
    /// hinted page arrive first and retract the hint — the machine's
    /// per-node in-flight cap is what bounds how much arm time
    /// speculation can claim.
    pub fn spec_step(&mut self, now: Time) -> SpecProgress {
        self.spec_poll_armed = false;
        let mut installed = Vec::new();
        while let Some(a) = self.spec_active.front().copied() {
            if a.done_at > now {
                break;
            }
            self.spec_active.pop_front();
            if !a.consumed {
                if self.spec_cache.len() >= self.cfg.spec_cache_pages.max(1) {
                    self.spec_cache.pop_front();
                    self.spec_wasted += 1;
                }
                self.spec_cache.push_back(SpecEntry {
                    page: a.page,
                    node: a.node,
                    ready_at: a.done_at,
                });
                installed.push((a.page, a.node));
            }
        }
        let mut started = false;
        let mut next_check = None;
        if let Some(front) = self.spec_active.front() {
            // Batch still on the arm: poll again at the next page's
            // completion so it installs as soon as it lands.
            next_check = Some(front.done_at);
        } else if !self.spec_queue.is_empty() {
            let head = self.spec_queue.pop_front().expect("non-empty");
            let mut batch = vec![head];
            let max_batch = self.cfg.spec_cache_pages.max(1);
            while batch.len() < max_batch {
                let want = batch.last().expect("non-empty").1 + 1;
                match self.spec_queue.iter().position(|&(_, b, _)| b == want) {
                    Some(i) => {
                        let entry = self.spec_queue.remove(i).expect("in range");
                        batch.push(entry);
                    }
                    None => break,
                }
            }
            let n = batch.len() as u64;
            let service = self.mech.access(batch[0].1, n);
            let grant = self.arm.acquire(now, service);
            // Pages land progressively: positioning first, then one
            // transfer slice per page, in block order.
            let per_page = self.mech.transfer_time(1);
            let positioning = service.saturating_sub(per_page * n);
            for (i, &(page, _, node)) in batch.iter().enumerate() {
                self.spec_active.push_back(SpecActive {
                    page,
                    node,
                    done_at: grant.start + positioning + per_page * (i as u64 + 1),
                    consumed: false,
                });
            }
            started = true;
            next_check = Some(self.spec_active.front().expect("non-empty").done_at);
        }
        if next_check.is_some() {
            self.spec_poll_armed = true;
        }
        SpecProgress {
            installed,
            started,
            next_check,
        }
    }

    /// Cancel a *queued* (unstarted) speculative read for `page`.
    /// Returns whether a hint was retracted; a read already on the arm
    /// or already installed is not cancellable.
    pub fn spec_cancel(&mut self, page: Page) -> bool {
        if let Some(i) = self.spec_queue.iter().position(|&(p, _, _)| p == page) {
            self.spec_queue.remove(i);
            self.spec_canceled += 1;
            return true;
        }
        false
    }

    /// Whether the spec engine tracks `page` in any stage (queued,
    /// reading, or installed in the side cache).
    pub fn spec_tracks(&self, page: Page) -> bool {
        self.spec_queue.iter().any(|&(p, _, _)| p == page)
            || self
                .spec_active
                .iter()
                .any(|a| !a.consumed && a.page == page)
            || self.spec_cache.iter().any(|e| e.page == page)
    }

    /// Demand reads served by the speculative side cache (late ones
    /// included).
    pub fn spec_hits(&self) -> u64 {
        self.spec_hits
    }

    /// Speculative hits whose read had not yet completed when the
    /// demand arrived (the demand waited on the in-flight transfer).
    pub fn spec_late(&self) -> u64 {
        self.spec_late
    }

    /// Speculative reads whose data was never consumed: evicted from
    /// the side cache or superseded by a write.
    pub fn spec_wasted(&self) -> u64 {
        self.spec_wasted
    }

    /// Queued hints retracted before reaching the arm (demand-miss
    /// collisions, stale predictions, superseding writes).
    pub fn spec_canceled(&self) -> u64 {
        self.spec_canceled
    }

    /// Charge the disk arm a background sequential page transfer (the
    /// optimal-prefetching engine streaming a page that a ring hit
    /// could not abort in time). Opportunistic: the idealized
    /// prefetcher has the lowest priority on the arm, so the charge is
    /// skipped when the arm is already busy.
    pub fn background_read(&mut self, now: Time) {
        let bg = self.mech.transfer_time(1);
        self.arm.try_acquire(now, bg);
    }

    /// Match NACKed requesters waiting in the FIFO with slots that
    /// have become free (paper: "When room becomes available in the
    /// controller's cache, the controller sends a OK message"). Each
    /// matched slot is reserved for its requester; returns the
    /// `(node, page)` OK messages to deliver now. Call after a flush
    /// completes — requests that were NACKed *during* the flush missed
    /// the reservation pass inside [`DiskController::try_flush`].
    pub fn claim_for_waiters(&mut self, now: Time) -> Vec<(u32, Page)> {
        let mut oks = Vec::new();
        while !self.nack_fifo.is_empty() {
            let Some(i) = self.claim_slot(now, CleanRule::Ready) else { break };
            let (node, page) = self.nack_fifo.pop_front().expect("non-empty");
            self.slots[i] = Slot {
                state: SlotState::Reserved { node },
                available_at: now,
                last_use: self.slots[i].last_use,
            };
            oks.push((node, page));
        }
        oks
    }

    /// Whether an incoming write at `now` could claim a slot under the
    /// write rule of `claim_slot`. Used by the NWCache interface, which
    /// checks for room before draining a channel.
    pub fn has_write_room(&self, now: Time) -> bool {
        self.claim_slot(now, CleanRule::Any).is_some()
    }

    /// DCD flush: every dirty page goes to the log disk in one
    /// sequential append, regardless of home-block adjacency.
    fn try_flush_to_log(&mut self, now: Time) -> Option<FlushResult> {
        let log = self.log.as_mut().expect("DCD flush requires a log");
        if log.arm_free_at(now) > now {
            return None;
        }
        let dirty: Vec<(usize, Page)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s.state {
                SlotState::Dirty { page, .. } if s.available_at <= now => Some((i, page)),
                _ => None,
            })
            .collect();
        if dirty.is_empty() {
            return None;
        }
        let pages: Vec<Page> = dirty.iter().map(|&(_, p)| p).collect();
        let done_at = log.append(now, &pages);
        self.combining.add(pages.len() as u64);
        let mut oks = Vec::new();
        for &(i, _) in &dirty {
            self.release_flushed(i, done_at, &mut oks);
        }
        Some(FlushResult {
            start: now,
            done_at,
            pages: pages.len() as u64,
            oks,
        })
    }

    /// Earliest time the arm would be free for a request issued at
    /// `now` (callers re-poll flushes at this time): with a DCD log
    /// attached, flushes only need the *log* arm.
    pub fn arm_free_at(&self, now: Time) -> Time {
        match &self.log {
            Some(log) => log.arm_free_at(now),
            None => self.arm.earliest_start(now),
        }
    }

    /// True if any dirty page is waiting to be flushed.
    pub fn has_pending_dirty(&self) -> bool {
        self.slots
            .iter()
            .any(|s| matches!(s.state, SlotState::Dirty { .. }))
    }

    /// Whether `page` is currently cached (any state).
    pub fn cache_contains(&self, page: Page) -> bool {
        self.find_page(page).is_some()
    }

    /// Number of NACKed requesters waiting for an `OK`.
    pub fn nack_queue_len(&self) -> usize {
        self.nack_fifo.len()
    }

    /// Occupied cache slots (any non-empty state) — the fill level the
    /// observability sampler tracks over time.
    pub fn cache_fill(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s.state, SlotState::Empty))
            .count()
    }

    /// Withdraw a pending NACK-FIFO entry for `(node, page)`. Called
    /// when a write for the pair lands anyway (a timed-out swap was
    /// re-sent and the duplicate found room), and by the NWCache
    /// interface, which retries rejected drains through its own
    /// per-channel FIFO. A stale entry would tie up a cache slot as
    /// `Reserved` for an `OK` message nothing consumes.
    pub fn retract_nack(&mut self, node: u32, page: Page) {
        if let Some(i) = self
            .nack_fifo
            .iter()
            .rposition(|&(n, p)| n == node && p == page)
        {
            self.nack_fifo.remove(i);
        }
    }

    /// Read hits observed.
    pub fn read_hits(&self) -> u64 {
        self.read_hits
    }

    /// Read misses observed.
    pub fn read_misses(&self) -> u64 {
        self.read_misses
    }

    /// ACKed swap-out writes.
    pub fn write_acks(&self) -> u64 {
        self.write_acks
    }

    /// NACKed swap-out writes.
    pub fn write_nacks(&self) -> u64 {
        self.write_nacks
    }

    /// Background prefetch fills performed.
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// Pages-per-disk-write-operation tally (Tables 5/6).
    pub fn combining(&self) -> &Tally {
        &self.combining
    }

    /// Demand-read service time tally (queueing + mechanical).
    pub fn read_service(&self) -> &Tally {
        &self.read_service
    }

    /// The disk arm resource (for utilization reports).
    pub fn arm(&self) -> &Resource {
        &self.arm
    }

    /// The mechanical model (for statistics).
    pub fn mechanics(&self) -> &Mechanics {
        &self.mech
    }

    /// Checkpoint the controller: mechanics, arm, cache slots in slot
    /// order (slot order is observable through LRU victim selection),
    /// NACK FIFO in arrival order, counters, tallies, the log-disk
    /// stage when attached, and the speculative-read engine. A restore
    /// needs a controller built with the same configuration, including
    /// the presence or absence of a log-disk stage.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        self.mech.ckpt(c)?;
        self.arm.ckpt(c)?;
        c.each(&mut self.slots, "cache slots", |c, slot| {
            let tag = match slot.state {
                SlotState::Empty => 0,
                SlotState::Clean { .. } => 1,
                SlotState::Dirty { .. } => 2,
                SlotState::Reserved { .. } => 3,
            };
            let blank = |tag| {
                Some(match tag {
                    0 => SlotState::Empty,
                    1 => SlotState::Clean { page: 0 },
                    2 => SlotState::Dirty { page: 0, block: 0, seq: 0 },
                    3 => SlotState::Reserved { node: 0 },
                    _ => return None,
                })
            };
            c.variant(&mut slot.state, tag, blank, "slot-state")?;
            match &mut slot.state {
                SlotState::Empty => {}
                SlotState::Clean { page } => c.u64(page)?,
                SlotState::Dirty { page, block, seq } => {
                    c.u64(page)?;
                    c.u64(block)?;
                    c.u64(seq)?;
                }
                SlotState::Reserved { node } => c.u32(node)?,
            }
            c.u64(&mut slot.available_at)?;
            c.u64(&mut slot.last_use)
        })?;
        c.list(&mut self.nack_fifo, usize::MAX, 2, "NACKed requests", |c, (node, page)| {
            c.u32(node)?;
            c.u64(page)
        })?;
        for v in [
            &mut self.clock,
            &mut self.dirty_seq,
            &mut self.read_hits,
            &mut self.read_misses,
            &mut self.write_acks,
            &mut self.write_nacks,
            &mut self.prefetch_fills,
        ] {
            c.u64(v)?;
        }
        self.combining.ckpt(c)?;
        self.read_service.ckpt(c)?;
        // The presence flag, as a count of 0 or 1 log disks.
        c.each(self.log.as_mut_slice(), "log disks", |c, log| log.ckpt(c))?;
        // Speculative-read engine: queue in arrival order, the active
        // batch in completion order, side cache in install order,
        // poll flag, counters.
        c.list(&mut self.spec_queue, usize::MAX, 3, "queued hints", |c, (page, block, node)| {
            c.u64(page)?;
            c.u64(block)?;
            c.u32(node)
        })?;
        c.list(&mut self.spec_active, usize::MAX, 4, "active hints", |c, a| {
            c.u64(&mut a.page)?;
            c.u32(&mut a.node)?;
            c.u64(&mut a.done_at)?;
            c.bool(&mut a.consumed)
        })?;
        c.list(&mut self.spec_cache, usize::MAX, 3, "side-cache pages", |c, e| {
            c.u64(&mut e.page)?;
            c.u32(&mut e.node)?;
            c.u64(&mut e.ready_at)
        })?;
        c.bool(&mut self.spec_poll_armed)?;
        for v in [&mut self.spec_hits, &mut self.spec_late, &mut self.spec_wasted, &mut self.spec_canceled] {
            c.u64(v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_sim::ckpt::{CkptReader, CkptWriter};

    fn naive() -> DiskController {
        DiskController::paper_default(PrefetchPolicy::Naive)
    }

    fn optimal() -> DiskController {
        DiskController::paper_default(PrefetchPolicy::Optimal)
    }

    #[test]
    fn optimal_reads_always_hit() {
        let mut c = optimal();
        for p in [0u64, 17, 999] {
            let r = c.read_page(100, p, p);
            assert_eq!(r, ReadOutcome::Hit { ready_at: 100 });
        }
        assert_eq!(c.read_hits(), 3);
        assert_eq!(c.read_misses(), 0);
    }

    #[test]
    fn naive_miss_then_sequential_hits() {
        let mut c = naive();
        let r = c.read_page(0, 10, 10);
        assert!(!r.is_hit());
        // Pages 11.. were prefetched; once the fills complete, a read
        // of the following page hits the cache.
        let r2 = c.read_page(r.ready_at() + 1_000_000, 11, 11);
        assert!(r2.is_hit(), "sequential page should be prefetched");
        assert!(c.prefetch_fills() > 0);
        // A read while a fill is still in flight counts as a miss but
        // completes at the fill time, not after a new disk access.
        let r3 = c.read_page(1, 12, 12);
        assert!(!r3.is_hit());
        assert!(r3.ready_at() <= r.ready_at() + 500_000);
    }

    #[test]
    fn naive_random_misses_pay_mechanics() {
        let mut c = naive();
        let r1 = c.read_page(0, 10, 10);
        let t1 = r1.ready_at();
        // Far-away page: seek + rotation + transfer, queued after the
        // prefetch fills of the first miss.
        let r2 = c.read_page(t1, 5000, 5000);
        assert!(!r2.is_hit());
        assert!(r2.ready_at() > t1 + 40_960);
    }

    #[test]
    fn writes_ack_until_cache_full_then_nack() {
        let mut c = naive();
        for p in 0..4u64 {
            match c.write_page(0, 100 + p, 100 + p, 1) {
                WriteOutcome::Ack { .. } => {}
                WriteOutcome::Nack => panic!("premature NACK at {p}"),
            }
        }
        assert_eq!(c.write_page(0, 200, 200, 2), WriteOutcome::Nack);
        assert_eq!(c.nack_queue_len(), 1);
        assert_eq!(c.write_acks(), 4);
        assert_eq!(c.write_nacks(), 1);
    }

    #[test]
    fn writes_evict_clean_prefetches() {
        let mut c = naive();
        // Fill cache with clean pages via a read miss + prefetch.
        let r = c.read_page(0, 10, 10);
        let t = r.ready_at() + 1_000_000;
        // All four slots are clean; writes must still be ACKed.
        for p in 0..4u64 {
            match c.write_page(t, 500 + p, 500 + p, 1) {
                WriteOutcome::Ack { .. } => {}
                WriteOutcome::Nack => panic!("write should evict clean prefetch"),
            }
        }
    }

    #[test]
    fn flush_combines_consecutive_blocks() {
        let mut c = naive();
        for p in 0..4u64 {
            c.write_page(0, p, p, 0);
        }
        let f = c.try_flush(20_000).expect("dirty pages to flush");
        assert_eq!(f.pages, 4, "4 consecutive pages combine into one op");
        assert_eq!(c.combining().mean(), 4.0);
        assert!(!c.has_pending_dirty());
    }

    #[test]
    fn flush_does_not_combine_nonconsecutive() {
        let mut c = naive();
        c.write_page(0, 0, 0, 0);
        c.write_page(0, 100, 100, 0);
        let f = c.try_flush(20_000).unwrap();
        assert_eq!(f.pages, 1);
        assert!(c.has_pending_dirty());
        let f2 = c.try_flush(f.done_at).unwrap();
        assert_eq!(f2.pages, 1);
        assert!(!c.has_pending_dirty());
    }

    #[test]
    fn flush_frees_slots_and_sends_oks() {
        let mut c = naive();
        for p in 0..4u64 {
            c.write_page(0, p, p, p as u32);
        }
        assert_eq!(c.write_page(0, 50, 50, 7), WriteOutcome::Nack);
        let f = c.try_flush(20_000).unwrap();
        assert_eq!(f.oks, vec![(7, 50)]);
        // The freed slot is reserved: another node still cannot claim
        // all four slots...
        let t = f.done_at;
        // Node 7 re-sends its page and must be accepted immediately.
        match c.write_page(t, 50, 50, 7) {
            WriteOutcome::Ack { .. } => {}
            WriteOutcome::Nack => panic!("reserved slot must accept node 7"),
        }
    }

    #[test]
    fn reserved_slot_rejects_other_writers_when_full() {
        let mut c = naive();
        for p in 0..4u64 {
            c.write_page(0, p, p, 0);
        }
        c.write_page(0, 50, 50, 7); // NACK, queued
        let f = c.try_flush(20_000).unwrap();
        assert_eq!(f.pages, 4);
        assert_eq!(f.oks.len(), 1);
        // After the flush, 3 slots empty + 1 reserved: 3 writes fit.
        let t = f.done_at;
        for p in 0..3u64 {
            match c.write_page(t, 60 + p, 60 + p, 2) {
                WriteOutcome::Ack { .. } => {}
                WriteOutcome::Nack => panic!("empty slot must accept"),
            }
        }
        assert_eq!(c.write_page(t, 70, 70, 2), WriteOutcome::Nack);
    }

    #[test]
    fn rewrite_of_cached_page_updates_in_place() {
        let mut c = naive();
        c.write_page(0, 5, 5, 0);
        c.write_page(0, 5, 5, 0); // same page again
        assert_eq!(c.write_acks(), 2);
        // Still only occupies one slot: 3 more writes fit.
        for p in 0..3u64 {
            match c.write_page(0, 10 + p, 10 + p, 0) {
                WriteOutcome::Ack { .. } => {}
                WriteOutcome::Nack => panic!("rewrite must not leak slots"),
            }
        }
    }

    #[test]
    fn read_hit_on_dirty_page() {
        let mut c = naive();
        c.write_page(0, 5, 5, 0);
        let r = c.read_page(10, 5, 5);
        assert!(r.is_hit());
    }

    #[test]
    fn flush_then_more_dirty_flushes_again() {
        let mut c = naive();
        c.write_page(0, 0, 0, 0);
        let f1 = c.try_flush(20_000).unwrap();
        c.write_page(f1.done_at, 1, 1, 0);
        let f2 = c.try_flush(f1.done_at + 20_000).unwrap();
        assert_eq!(f2.pages, 1);
        assert!(f2.done_at > f1.done_at);
    }

    #[test]
    fn no_flush_when_clean() {
        let mut c = naive();
        assert!(c.try_flush(100).is_none());
        c.read_page(0, 10, 10);
        assert!(c.try_flush(10_000_000).is_none());
    }

    fn demand() -> DiskController {
        DiskController::paper_default(PrefetchPolicy::Demand)
    }

    #[test]
    fn demand_policy_fetches_only_the_missed_page() {
        let mut c = demand();
        let r = c.read_page(0, 10, 10);
        assert!(!r.is_hit());
        assert_eq!(c.prefetch_fills(), 0, "demand policy must not span-prefetch");
        // The following page misses too.
        let r2 = c.read_page(r.ready_at(), 11, 11);
        assert!(!r2.is_hit());
    }

    #[test]
    fn spec_hint_read_installs_and_serves_demand() {
        let mut c = demand();
        match c.spec_hint(0, 42, 42, 1) {
            SpecOutcome::Queued { schedule_check } => assert!(schedule_check),
            o => panic!("fresh hint must queue, got {o:?}"),
        }
        // Duplicate hint while queued is dropped.
        assert_eq!(c.spec_hint(0, 42, 42, 1), SpecOutcome::Duplicate);
        let p1 = c.spec_step(0);
        assert!(p1.started);
        let done = p1.next_check.expect("completion poll");
        let p2 = c.spec_step(done);
        assert_eq!(p2.installed, vec![(42, 1)]);
        assert!(c.spec_tracks(42));
        // The demand read is a hit served from the side cache.
        let r = c.read_page(done + 10, 42, 42);
        assert_eq!(r, ReadOutcome::Hit { ready_at: done + 10 });
        assert_eq!(c.spec_hits(), 1);
        assert_eq!(c.spec_late(), 0);
        assert!(!c.spec_tracks(42), "consumed entry leaves the cache");
    }

    #[test]
    fn demand_on_inflight_spec_read_is_a_late_hit() {
        let mut c = demand();
        c.spec_hint(0, 42, 42, 1);
        let p = c.spec_step(0);
        let done = p.next_check.expect("completion poll");
        // Demand arrives while the speculative read is still on the arm.
        let r = c.read_page(done / 2, 42, 42);
        assert_eq!(r, ReadOutcome::Hit { ready_at: done });
        assert_eq!(c.spec_hits(), 1);
        assert_eq!(c.spec_late(), 1);
        // On completion the consumed read is discarded, not installed.
        let p2 = c.spec_step(done);
        assert!(p2.installed.is_empty());
        assert!(!c.spec_tracks(42));
    }

    #[test]
    fn demand_miss_collision_cancels_queued_hint() {
        let mut c = demand();
        c.spec_hint(0, 42, 42, 1);
        // No spec_step yet: the hint is still queued when the demand
        // read for the same page arrives.
        let r = c.read_page(0, 42, 42);
        assert!(!r.is_hit());
        assert_eq!(c.spec_canceled(), 1);
        assert!(!c.spec_tracks(42));
        // The engine has nothing left to do.
        let p = c.spec_step(r.ready_at());
        assert_eq!(p.next_check, None);
        assert!(!p.started);
    }

    #[test]
    fn spec_cancel_retracts_queued_but_not_active() {
        let mut c = demand();
        // Non-contiguous blocks so only page 10 batches onto the arm.
        c.spec_hint(0, 10, 10, 0);
        c.spec_hint(0, 20, 20, 0);
        let p = c.spec_step(0);
        assert!(p.started); // page 10 on the arm
        assert!(!c.spec_cancel(10), "active read is not cancellable");
        assert!(c.spec_cancel(20), "queued hint is cancellable");
        assert_eq!(c.spec_canceled(), 1);
    }

    #[test]
    fn contiguous_hints_batch_into_one_arm_access() {
        let mut c = demand();
        for k in 0..3u64 {
            c.spec_hint(0, 50 + k, 50 + k, 0);
        }
        let p = c.spec_step(0);
        assert!(p.started);
        // All three pages ride one access: positioning is paid once,
        // then pages land one transfer slice apart.
        let transfer = c.mech.transfer_time(1);
        let d1 = p.next_check.expect("first completion");
        let p1 = c.spec_step(d1);
        assert_eq!(p1.installed, vec![(50, 0)]);
        let d2 = p1.next_check.expect("second completion");
        assert_eq!(d2 - d1, transfer);
        let p2 = c.spec_step(d2);
        assert_eq!(p2.installed, vec![(51, 0)]);
        let d3 = p2.next_check.expect("third completion");
        assert_eq!(d3 - d2, transfer);
        let p3 = c.spec_step(d3);
        assert_eq!(p3.installed, vec![(52, 0)]);
        assert_eq!(p3.next_check, None, "batch drained");
        // A single separate access for page 52 would have paid its own
        // seek + rotation; batched it cost one transfer slice.
        assert!(c.spec_tracks(50) && c.spec_tracks(51) && c.spec_tracks(52));
    }

    #[test]
    fn write_supersedes_spec_entry_as_wasted() {
        let mut c = demand();
        c.spec_hint(0, 42, 42, 1);
        let p = c.spec_step(0);
        let done = p.next_check.unwrap();
        c.spec_step(done);
        assert!(c.spec_tracks(42));
        c.write_page(done + 1, 42, 42, 3);
        assert!(!c.spec_tracks(42));
        assert_eq!(c.spec_wasted(), 1);
    }

    #[test]
    fn spec_cache_evicts_fifo_as_wasted_when_full() {
        let mut c = demand();
        let cap = 8u64; // paper_default spec_cache_pages
        let mut t = 0;
        for k in 0..=cap {
            c.spec_hint(t, 100 + k, 100 + k, 0);
            loop {
                let p = c.spec_step(t);
                if !p.installed.is_empty() {
                    break;
                }
                t = p.next_check.expect("engine must make progress");
            }
        }
        assert!(!c.spec_tracks(100), "oldest entry evicted");
        assert!(c.spec_tracks(100 + cap));
        assert_eq!(c.spec_wasted(), 1);
    }

    #[test]
    fn spec_state_round_trips_through_checkpoint() {
        let mut c = demand();
        c.spec_hint(0, 10, 10, 0);
        c.spec_hint(0, 20, 20, 1);
        let p = c.spec_step(0); // 10 active, 20 queued
        assert!(p.started);
        let mut w = CkptWriter::new();
        Ckpt::Save(&mut w).section(1, |k| c.ckpt(k)).expect("save");
        let bytes = w.finish();
        let mut c2 = demand();
        let mut r = CkptReader::new(&bytes).expect("header");
        Ckpt::Load(&mut r).section(1, |k| c2.ckpt(k)).expect("restore");
        let mut w2 = CkptWriter::new();
        Ckpt::Save(&mut w2).section(1, |k| c2.ckpt(k)).expect("save");
        assert_eq!(bytes, w2.finish(), "spec state must round-trip");
    }
}
