//! Pluggable prefetch policies and the adaptive online pattern
//! detector.
//!
//! The paper evaluates two prefetching *extremes* at the disk
//! controller (§3.1): *optimal* (every read hits the controller
//! cache) and *naive* (sequential span filling on a miss), expecting
//! "realistic and sophisticated prefetching techniques to lie between
//! these two extremes". This module turns the prefetch mode into a
//! first-class policy object:
//!
//! * [`PrefetchPolicy`] — the machine-facing trait. Each policy maps
//!   to a controller-level [`nw_disk::PrefetchPolicy`] and may in
//!   addition observe the per-node demand-miss stream and issue
//!   speculative read hints through the machine's mesh + disk paths.
//! * [`OptimalPolicy`] / [`NaivePolicy`] / [`WindowPolicy`] — the
//!   pre-existing modes, refactored behind the trait. Their behaviour
//!   is pinned bit-identically by the policy-conformance golden suite
//!   (`tests/tests/prefetch.rs`): they drive the controller exactly
//!   as the hard-wired modes did and issue no hints of their own.
//! * [`AdaptivePolicy`] — the new middle ground. A per-node
//!   [`Detector`] classifies the recent miss stream as sequential,
//!   strided, temporal, or random over a sliding window and predicts
//!   the next few pages. The machine turns accepted predictions into
//!   bounded, cancellable speculative reads: each hint crosses the
//!   mesh as a control message, queues at the target controller, and
//!   is serviced only when the disk arm is idle
//!   ([`nw_disk::DiskController::spec_hint`]).
//!
//! Determinism: classification is a pure function of the observed
//! stream; the per-node [`Pcg32`] (stream `0xADA0 + node`, seeded
//! from the workload seed) is consulted *only* to break ties between
//! equally-frequent candidates under the temporal pattern, so a run
//! remains a pure function of `(MachineConfig, workload)`.

use crate::config::{MachineConfig, PrefetchMode};
use crate::vm::Vpn;
use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::Pcg32;
use std::collections::{BTreeMap, VecDeque};

/// Fewest observations before the detector commits to a pattern;
/// below this every window classifies as [`Pattern::Random`].
pub const MIN_OBSERVATIONS: usize = 3;

/// The per-node in-flight speculation cap implied by a detector
/// window: half the window, clamped to `[2, 8]`.
pub fn speculation_cap(window: usize) -> usize {
    (window / 2).clamp(2, 8)
}

/// Access pattern classified from a node's recent demand-miss stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Consecutive page numbers (delta +1 dominates).
    Sequential,
    /// A dominant constant non-unit delta.
    Strided(i64),
    /// Re-references of a small recurring page set.
    Temporal,
    /// No exploitable structure (or not enough evidence yet).
    Random,
}

/// Classify a miss-stream window. Pure: equal windows always produce
/// equal patterns, regardless of any RNG state.
///
/// Thresholds: with at least [`MIN_OBSERVATIONS`] samples, ≥70% of
/// deltas equal to +1 is [`Pattern::Sequential`]; ≥70% sharing any
/// other non-zero delta is [`Pattern::Strided`]; at most half the
/// window being distinct pages is [`Pattern::Temporal`]; anything
/// else is [`Pattern::Random`].
pub fn classify(window: &[Vpn]) -> Pattern {
    if window.len() < MIN_OBSERVATIONS {
        return Pattern::Random;
    }
    let deltas: Vec<i64> = window
        .windows(2)
        .map(|w| w[1] as i64 - w[0] as i64)
        .collect();
    let need = (deltas.len() * 7).div_ceil(10); // ceil(70%)
    let seq = deltas.iter().filter(|&&d| d == 1).count();
    if seq >= need {
        return Pattern::Sequential;
    }
    // Dominant non-unit, non-zero stride: count per distinct delta.
    let mut best: Option<(i64, usize)> = None;
    for &d in &deltas {
        if d == 0 || d == 1 {
            continue;
        }
        let n = deltas.iter().filter(|&&x| x == d).count();
        // Smallest delta wins ties so the answer is input-determined.
        if best.is_none_or(|(bd, bn)| n > bn || (n == bn && d < bd)) {
            best = Some((d, n));
        }
    }
    if let Some((d, n)) = best {
        if n >= need {
            return Pattern::Strided(d);
        }
    }
    let mut distinct: Vec<Vpn> = window.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() * 2 <= window.len() {
        return Pattern::Temporal;
    }
    Pattern::Random
}

/// One node's online pattern detector: a sliding window of the
/// demand-miss vpns plus the tie-breaking RNG stream.
#[derive(Debug, Clone)]
pub struct Detector {
    window: VecDeque<Vpn>,
    capacity: usize,
    rng: Pcg32,
}

impl Detector {
    /// A detector over a `capacity`-entry window, with its
    /// tie-breaking RNG split from `seed` on stream `0xADA0 + node`.
    pub fn new(capacity: usize, seed: u64, node: u32) -> Self {
        Detector {
            window: VecDeque::with_capacity(capacity),
            capacity: capacity.max(2),
            rng: Pcg32::new(seed, 0xADA0 + node as u64),
        }
    }

    /// Record a demand miss, sliding the window.
    pub fn observe(&mut self, vpn: Vpn) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(vpn);
    }

    /// Classification of the current window (pure).
    pub fn pattern(&self) -> Pattern {
        let (a, b) = self.window.as_slices();
        if b.is_empty() {
            classify(a)
        } else {
            let joined: Vec<Vpn> = self.window.iter().copied().collect();
            classify(&joined)
        }
    }

    /// Predict up to `n` pages the node is likely to miss next, most
    /// confident first. Sequential and strided patterns extrapolate
    /// from the last miss; temporal patterns re-issue the most
    /// frequent window entries (RNG breaks frequency ties); random
    /// windows predict nothing.
    pub fn predict(&mut self, n: usize, out: &mut Vec<Vpn>) {
        out.clear();
        let Some(&last) = self.window.back() else {
            return;
        };
        match self.pattern() {
            Pattern::Sequential => {
                for k in 1..=n as u64 {
                    out.push(last + k);
                }
            }
            Pattern::Strided(d) => {
                let mut at = last as i64;
                for _ in 0..n {
                    at += d;
                    if at < 0 {
                        break;
                    }
                    out.push(at as Vpn);
                }
            }
            Pattern::Temporal => {
                // Most frequent pages in the window, excluding the one
                // just missed (it is being fetched by the demand read).
                let mut freq: BTreeMap<Vpn, usize> = BTreeMap::new();
                for &v in &self.window {
                    *freq.entry(v).or_insert(0) += 1;
                }
                freq.remove(&last);
                let mut ranked: Vec<(Vpn, usize)> = freq.into_iter().collect();
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                while out.len() < n && !ranked.is_empty() {
                    let top = ranked[0].1;
                    let ties = ranked.iter().take_while(|&&(_, c)| c == top).count();
                    let pick = if ties > 1 {
                        self.rng.gen_below(ties as u32) as usize
                    } else {
                        0
                    };
                    out.push(ranked.remove(pick).0);
                }
            }
            Pattern::Random => {}
        }
    }

    /// The current window contents, oldest first (for tests/ckpt).
    pub fn window(&self) -> impl Iterator<Item = Vpn> + '_ {
        self.window.iter().copied()
    }

    /// Checkpoint the window and the RNG. A restored window is no
    /// longer than the capacity: `observe` only slides a full window.
    fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.list(&mut self.window, self.capacity, 1, "detector window pages", Ckpt::u64)?;
        self.rng.ckpt(c)
    }
}

/// A machine-level prefetch policy: how the disk controllers prefetch
/// and, optionally, an online speculation engine fed by the per-node
/// demand-miss stream.
///
/// The non-speculating policies implement only the first half; every
/// speculation hook defaults to a no-op so the demand paths of the
/// refactored optimal/naive/window modes stay bit-identical to the
/// pre-refactor machine (pinned by `tests/tests/prefetch.rs`).
pub trait PrefetchPolicy: std::fmt::Debug + Send {
    /// Label reported in `RunSummary::prefetch`.
    fn label(&self) -> &'static str;

    /// The controller-level policy the disks run with.
    fn disk_policy(&self) -> nw_disk::PrefetchPolicy;

    /// Whether a ring (NWCache) fault hit still charges the disk arm a
    /// background sequential transfer — the idealized prefetcher
    /// streaming a page the ring hit could not abort in time. True
    /// only for the optimal policy.
    fn background_on_ring_hit(&self) -> bool {
        false
    }

    /// Whether the policy issues speculative hints at all; when false
    /// the machine skips every speculation hook (and their RNG rolls).
    fn speculates(&self) -> bool {
        false
    }

    /// A demand fault at `node` missed to disk for `vpn`.
    fn observe_fault(&mut self, _node: u32, _vpn: Vpn) {}

    /// Fill `out` with the pages `node` is predicted to miss next.
    fn predict(&mut self, _node: u32, out: &mut Vec<Vpn>) {
        out.clear();
    }

    /// The machine accepted a prediction and is issuing the hint.
    fn commit(&mut self, _node: u32, _vpn: Vpn) {}

    /// A hint ended without installing (mesh drop, duplicate,
    /// cancellation, or consumption by the demand read it raced).
    fn on_resolved(&mut self, _vpn: Vpn) {}

    /// A hinted read completed and entered a controller's side cache.
    fn on_installed(&mut self, _vpn: Vpn) {}

    /// Whether a hint for `vpn` is currently in flight.
    fn is_outstanding(&self, _vpn: Vpn) -> bool {
        false
    }

    /// Hints currently in flight for `node`, ascending by vpn.
    fn outstanding_for(&self, _node: u32, out: &mut Vec<Vpn>) {
        out.clear();
    }

    /// In-flight hints for `node` right now.
    fn inflight(&self, _node: u32) -> usize {
        0
    }

    /// Per-node cap on in-flight speculation.
    fn cap(&self) -> usize {
        0
    }

    /// Total hints committed.
    fn spec_issued(&self) -> u64 {
        0
    }

    /// Highest per-node in-flight count ever observed.
    fn inflight_peak(&self) -> u64 {
        0
    }

    /// Whether the policy carries checkpointable state (gates the
    /// PREFETCH checkpoint section, so stateless policies keep the
    /// original section layout).
    fn has_ckpt_state(&self) -> bool {
        false
    }

    /// Checkpoint detector + speculation state, onto a policy built
    /// from the same config.
    fn ckpt(&mut self, _c: &mut Ckpt) -> Result<(), CkptError> {
        Ok(())
    }
}

/// Build the policy object for `cfg`.
pub fn build_policy(cfg: &MachineConfig) -> Box<dyn PrefetchPolicy> {
    match cfg.prefetch {
        PrefetchMode::Optimal => Box::new(OptimalPolicy),
        PrefetchMode::Naive => Box::new(NaivePolicy),
        PrefetchMode::Window => Box::new(WindowPolicy {
            depth: cfg.disk_cache_pages,
        }),
        PrefetchMode::Adaptive => Box::new(AdaptivePolicy::new(cfg)),
    }
}

/// Idealized prefetching: every controller read hits; ring hits still
/// charge the arm a background transfer.
#[derive(Debug)]
pub struct OptimalPolicy;

impl PrefetchPolicy for OptimalPolicy {
    fn label(&self) -> &'static str {
        "optimal"
    }

    fn disk_policy(&self) -> nw_disk::PrefetchPolicy {
        nw_disk::PrefetchPolicy::Optimal
    }

    fn background_on_ring_hit(&self) -> bool {
        true
    }
}

/// Controller-local sequential span filling on a miss.
#[derive(Debug)]
pub struct NaivePolicy;

impl PrefetchPolicy for NaivePolicy {
    fn label(&self) -> &'static str {
        "naive"
    }

    fn disk_policy(&self) -> nw_disk::PrefetchPolicy {
        nw_disk::PrefetchPolicy::Naive
    }
}

/// Controller-local windowed stream prefetching.
#[derive(Debug)]
pub struct WindowPolicy {
    /// Pages of lookahead the controller maintains.
    pub depth: usize,
}

impl PrefetchPolicy for WindowPolicy {
    fn label(&self) -> &'static str {
        "window"
    }

    fn disk_policy(&self) -> nw_disk::PrefetchPolicy {
        nw_disk::PrefetchPolicy::Window { depth: self.depth }
    }
}

/// The adaptive policy: per-node detectors plus bounded in-flight
/// speculation accounting. Controllers run demand-only; every
/// speculative read is an explicit, cancellable hint.
#[derive(Debug)]
pub struct AdaptivePolicy {
    detectors: Vec<Detector>,
    /// vpn → hinting node, for every hint between commit and
    /// installation/resolution. BTreeMap so iteration (and therefore
    /// cancellation order) is deterministic.
    outstanding: BTreeMap<Vpn, u32>,
    inflight: Vec<u32>,
    cap: usize,
    issued: u64,
    peak: u64,
}

impl AdaptivePolicy {
    /// Build from `cfg`: one detector per node over
    /// `cfg.prefetch_window`, cap [`speculation_cap`].
    pub fn new(cfg: &MachineConfig) -> Self {
        let window = cfg.prefetch_window.max(2);
        AdaptivePolicy {
            detectors: (0..cfg.nodes)
                .map(|n| Detector::new(window, cfg.seed, n))
                .collect(),
            outstanding: BTreeMap::new(),
            inflight: vec![0; cfg.nodes as usize],
            cap: speculation_cap(window),
            issued: 0,
            peak: 0,
        }
    }

    fn release(&mut self, vpn: Vpn) {
        if let Some(node) = self.outstanding.remove(&vpn) {
            let c = &mut self.inflight[node as usize];
            *c = c.saturating_sub(1);
        }
    }
}

impl PrefetchPolicy for AdaptivePolicy {
    fn label(&self) -> &'static str {
        "adaptive"
    }

    fn disk_policy(&self) -> nw_disk::PrefetchPolicy {
        nw_disk::PrefetchPolicy::Demand
    }

    fn speculates(&self) -> bool {
        true
    }

    fn observe_fault(&mut self, node: u32, vpn: Vpn) {
        self.detectors[node as usize].observe(vpn);
    }

    fn predict(&mut self, node: u32, out: &mut Vec<Vpn>) {
        let want = self.cap;
        self.detectors[node as usize].predict(want, out);
    }

    fn commit(&mut self, node: u32, vpn: Vpn) {
        debug_assert!(!self.outstanding.contains_key(&vpn));
        self.outstanding.insert(vpn, node);
        let c = &mut self.inflight[node as usize];
        *c += 1;
        debug_assert!(*c as usize <= self.cap, "speculation cap exceeded");
        self.issued += 1;
        self.peak = self.peak.max(*c as u64);
    }

    fn on_resolved(&mut self, vpn: Vpn) {
        self.release(vpn);
    }

    fn on_installed(&mut self, vpn: Vpn) {
        self.release(vpn);
    }

    fn is_outstanding(&self, vpn: Vpn) -> bool {
        self.outstanding.contains_key(&vpn)
    }

    fn outstanding_for(&self, node: u32, out: &mut Vec<Vpn>) {
        out.clear();
        out.extend(
            self.outstanding
                .iter()
                .filter(|&(_, &n)| n == node)
                .map(|(&v, _)| v),
        );
    }

    fn inflight(&self, node: u32) -> usize {
        self.inflight[node as usize] as usize
    }

    fn cap(&self) -> usize {
        self.cap
    }

    fn spec_issued(&self) -> u64 {
        self.issued
    }

    fn inflight_peak(&self) -> u64 {
        self.peak
    }

    fn has_ckpt_state(&self) -> bool {
        true
    }

    fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.each(&mut self.detectors, "detectors", |c, d| d.ckpt(c))?;
        let mut hints: Vec<(Vpn, u32)> = self.outstanding.iter().map(|(&v, &n)| (v, n)).collect();
        c.list(&mut hints, usize::MAX, 2, "outstanding hints", |c, (vpn, node)| {
            c.u64(vpn)?;
            c.u32(node)
        })?;
        if c.loading() {
            self.outstanding.clear();
            let nodes = self.inflight.len();
            for (vpn, node) in hints {
                if node as usize >= nodes {
                    return Err(c.invalid(format!("hint for page {vpn} from node {node} of {nodes}")));
                }
                if self.outstanding.insert(vpn, node).is_some() {
                    return Err(c.invalid(format!("page {vpn} hinted twice")));
                }
            }
        }
        c.each(&mut self.inflight, "inflight slots", Ckpt::u32)?;
        c.u64(&mut self.issued)?;
        c.u64(&mut self.peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_sim::ckpt::{CkptReader, CkptWriter};

    fn det(window: usize) -> Detector {
        Detector::new(window, 0x1999, 0)
    }

    fn feed(d: &mut Detector, stream: &[Vpn]) {
        for &v in stream {
            d.observe(v);
        }
    }

    #[test]
    fn pure_sequential_classifies_sequential() {
        let mut d = det(8);
        feed(&mut d, &[100, 101, 102]);
        assert_eq!(d.pattern(), Pattern::Sequential);
        feed(&mut d, &[103, 104, 105, 106, 107, 108]);
        assert_eq!(d.pattern(), Pattern::Sequential);
        let mut out = Vec::new();
        d.predict(4, &mut out);
        assert_eq!(out, vec![109, 110, 111, 112]);
    }

    #[test]
    fn fixed_stride_classifies_strided() {
        let mut d = det(8);
        feed(&mut d, &[10, 17, 24, 31, 38]);
        assert_eq!(d.pattern(), Pattern::Strided(7));
        let mut out = Vec::new();
        d.predict(3, &mut out);
        assert_eq!(out, vec![45, 52, 59]);
        // Negative stride extrapolates downward and stops at zero.
        let mut d = det(8);
        feed(&mut d, &[30, 20, 10]);
        assert_eq!(d.pattern(), Pattern::Strided(-10));
        d.predict(4, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn repeating_set_classifies_temporal() {
        let mut d = det(8);
        feed(&mut d, &[5, 9, 5, 9, 5, 9, 5, 9]);
        // Alternation: deltas are +4/-4, neither dominates, two
        // distinct pages in an 8-deep window.
        assert_eq!(d.pattern(), Pattern::Temporal);
        let mut out = Vec::new();
        d.predict(2, &mut out);
        // The page just missed (9) is excluded; 5 is the prediction.
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn shuffled_stream_classifies_random_and_predicts_nothing() {
        let mut d = det(8);
        feed(&mut d, &[830, 12, 407, 955, 3, 621, 78, 500]);
        assert_eq!(d.pattern(), Pattern::Random);
        let mut out = vec![1, 2, 3];
        d.predict(4, &mut out);
        assert!(out.is_empty(), "random windows must predict nothing");
    }

    #[test]
    fn too_few_observations_stay_random() {
        let mut d = det(8);
        assert_eq!(d.pattern(), Pattern::Random);
        d.observe(1);
        assert_eq!(d.pattern(), Pattern::Random);
        d.observe(2);
        assert_eq!(d.pattern(), Pattern::Random, "below MIN_OBSERVATIONS");
        d.observe(3);
        assert_eq!(d.pattern(), Pattern::Sequential);
    }

    #[test]
    fn mixed_phase_reclassifies_within_window_bound() {
        let mut d = det(8);
        feed(&mut d, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(d.pattern(), Pattern::Sequential);
        // Switch to a strided phase; within one full window the old
        // phase's evidence is gone and the detector re-classifies.
        feed(&mut d, &[100, 110, 120, 130, 140, 150, 160, 170]);
        assert_eq!(d.pattern(), Pattern::Strided(10));
    }

    #[test]
    fn adversarial_alternation_never_classifies_sequential_or_strided() {
        // A stream engineered to tease the stride detector: the deltas
        // alternate +k/-k so no direction ever reaches 70%.
        let mut d = det(8);
        for i in 0..64u64 {
            d.observe(if i % 2 == 0 { 1000 } else { 1000 + 37 });
            let p = d.pattern();
            assert!(
                !matches!(p, Pattern::Sequential | Pattern::Strided(_)),
                "alternation misclassified as {p:?} at step {i}"
            );
        }
        assert_eq!(d.pattern(), Pattern::Temporal);
    }

    #[test]
    fn classification_is_pure_function_of_the_stream() {
        // Property: across many seeded random streams, two detectors
        // with different RNG seeds classify identically at every step
        // — the RNG may only influence temporal tie-breaking, never
        // the classification.
        for case in 0..32u64 {
            let mut rng = Pcg32::new(0xCAFE + case, case);
            let mut a = Detector::new(8, 1, 0);
            let mut b = Detector::new(8, 0xDEAD_BEEF, 5);
            for step in 0..200 {
                let v = match rng.gen_below(4) {
                    0 => rng.gen_below(1000) as u64,
                    1 => a.window().last().unwrap_or(0) + 1,
                    2 => a.window().last().unwrap_or(0) + 7,
                    _ => a.window().last().unwrap_or(0),
                };
                a.observe(v);
                b.observe(v);
                assert_eq!(
                    a.pattern(),
                    b.pattern(),
                    "case {case} step {step}: classification depended on RNG"
                );
                // classify() is also invariant under re-evaluation.
                let w: Vec<Vpn> = a.window().collect();
                assert_eq!(classify(&w), classify(&w));
            }
        }
    }

    #[test]
    fn sequential_with_noise_still_classifies_within_window() {
        // One wrap-around jump inside an otherwise sequential window
        // (the pinned scenario's per-node slice wrap) must not break
        // the classification: 6 of 7 deltas are +1.
        let mut d = det(8);
        feed(&mut d, &[29, 30, 31, 0, 1, 2, 3, 4]);
        assert_eq!(d.pattern(), Pattern::Sequential);
    }

    #[test]
    fn speculation_cap_tracks_window() {
        assert_eq!(speculation_cap(2), 2);
        assert_eq!(speculation_cap(8), 4);
        assert_eq!(speculation_cap(64), 8);
    }

    #[test]
    fn adaptive_policy_accounts_inflight_and_caps() {
        let cfg = MachineConfig::paper_default(
            crate::config::MachineKind::NwCache,
            PrefetchMode::Adaptive,
        );
        let mut p = AdaptivePolicy::new(&cfg);
        assert_eq!(p.cap(), speculation_cap(cfg.prefetch_window));
        assert_eq!(p.cap(), 8);
        for v in [10, 11, 12, 13] {
            p.commit(0, v);
        }
        assert_eq!(p.inflight(0), 4);
        assert_eq!(p.inflight_peak(), 4);
        assert!(p.is_outstanding(11));
        p.on_resolved(11);
        p.on_installed(10);
        assert_eq!(p.inflight(0), 2);
        let mut out = Vec::new();
        p.outstanding_for(0, &mut out);
        assert_eq!(out, vec![12, 13]);
        assert_eq!(p.spec_issued(), 4);
        assert_eq!(p.inflight_peak(), 4, "peak is monotone");
    }

    #[test]
    fn adaptive_policy_state_round_trips() {
        let cfg = MachineConfig::paper_default(
            crate::config::MachineKind::NwCache,
            PrefetchMode::Adaptive,
        );
        let mut p = AdaptivePolicy::new(&cfg);
        for v in [100, 101, 102, 103, 104] {
            p.observe_fault(2, v);
        }
        p.commit(2, 105);
        p.commit(2, 106);
        // Burn a temporal tie-break so the RNG state is non-initial.
        let mut out = Vec::new();
        p.observe_fault(3, 7);
        p.observe_fault(3, 8);
        p.observe_fault(3, 7);
        p.observe_fault(3, 8);
        p.predict(3, &mut out);

        let bytes = save(&mut p);
        let mut q = AdaptivePolicy::new(&cfg);
        restore(&mut q, &bytes).expect("restore");
        let w2 = save(&mut q);
        assert_eq!(bytes, w2, "policy state must round-trip");
        assert!(q.is_outstanding(105));
        assert_eq!(q.inflight(2), 2);
        // Post-restore predictions match the original instance.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        p.predict(2, &mut a);
        q.predict(2, &mut b);
        assert_eq!(a, b);
    }

    fn save(p: &mut AdaptivePolicy) -> Vec<u8> {
        let mut w = CkptWriter::new();
        Ckpt::Save(&mut w).section(1, |c| p.ckpt(c)).expect("saving cannot fail");
        w.finish()
    }

    fn restore(p: &mut AdaptivePolicy, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = CkptReader::new(bytes)?;
        Ckpt::Load(&mut r).section(1, |c| p.ckpt(c))
    }

    fn rejected(res: Result<(), CkptError>, needle: &str) {
        match res {
            Err(CkptError::Invalid { what, .. }) => assert!(what.contains(needle), "{what}"),
            other => panic!("expected Invalid({needle}), got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_a_hint_from_a_node_past_the_machine() {
        let cfg = MachineConfig::paper_default(
            crate::config::MachineKind::NwCache,
            PrefetchMode::Adaptive,
        );
        let mut p = AdaptivePolicy::new(&cfg);
        p.commit(2, 105);
        p.outstanding.insert(105, 99);
        // Accepted, node 99 would index past the 8 in-flight counters
        // the first time the hint resolves.
        rejected(restore(&mut AdaptivePolicy::new(&cfg), &save(&mut p)), "node 99 of 8");
    }

    #[test]
    fn restore_rejects_a_detector_window_past_its_capacity() {
        let cfg = MachineConfig::paper_default(
            crate::config::MachineKind::NwCache,
            PrefetchMode::Adaptive,
        );
        let mut p = AdaptivePolicy::new(&cfg);
        let cap = p.detectors[0].capacity;
        p.detectors[0].window.extend(0..cap as Vpn + 1);
        // Accepted, the window would never shrink back: `observe`
        // slides it only when it is exactly full.
        rejected(restore(&mut AdaptivePolicy::new(&cfg), &save(&mut p)), "capacity");
    }

    #[test]
    fn build_policy_maps_modes() {
        use crate::config::MachineKind::Standard;
        for (mode, label, spec) in [
            (PrefetchMode::Optimal, "optimal", false),
            (PrefetchMode::Naive, "naive", false),
            (PrefetchMode::Window, "window", false),
            (PrefetchMode::Adaptive, "adaptive", true),
        ] {
            let cfg = MachineConfig::paper_default(Standard, mode);
            let p = build_policy(&cfg);
            assert_eq!(p.label(), label);
            assert_eq!(p.speculates(), spec);
            assert_eq!(p.has_ckpt_state(), spec);
            assert_eq!(p.background_on_ring_hit(), mode == PrefetchMode::Optimal);
        }
    }
}
