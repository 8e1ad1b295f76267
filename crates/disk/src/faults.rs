//! Deterministic disk fault injection.
//!
//! A [`DiskFaultInjector`] owns a seeded PCG stream and rolls, per
//! physical access, whether the access suffers a media error (the
//! controller reports a failed read that the machine retries with
//! backoff) or a stuck request (no reply until the requester's
//! timeout re-issues it). Injectors are only consulted when their
//! rates are nonzero, so an inactive injector leaves simulation
//! results bit-identical to a build without fault support.

use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::Pcg32;

/// Outcome of a fault roll for one disk access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The access proceeds normally.
    None,
    /// The media read failed; the requester must retry.
    MediaError,
    /// The request is silently lost; only a timeout recovers it.
    Stuck,
}

/// Per-disk deterministic fault source.
#[derive(Debug, Clone)]
pub struct DiskFaultInjector {
    rng: Pcg32,
    error_rate: f64,
    stuck_rate: f64,
    media_errors: u64,
    stuck_requests: u64,
}

impl DiskFaultInjector {
    /// Build an injector. `stream` should be unique per disk so the
    /// disks draw independent sequences.
    pub fn new(seed: u64, stream: u64, error_rate: f64, stuck_rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&error_rate), "error_rate out of range");
        assert!((0.0..=1.0).contains(&stuck_rate), "stuck_rate out of range");
        DiskFaultInjector {
            rng: Pcg32::new(seed, stream.wrapping_mul(2).wrapping_add(0xD15C),),
            error_rate,
            stuck_rate,
            media_errors: 0,
            stuck_requests: 0,
        }
    }

    /// Whether any rate is nonzero. Inactive injectors never draw
    /// from their RNG.
    pub fn is_active(&self) -> bool {
        self.error_rate > 0.0 || self.stuck_rate > 0.0
    }

    /// Roll the fate of one access. Draws exactly one random number
    /// per call when active, none when inactive.
    pub fn roll(&mut self) -> DiskFault {
        if !self.is_active() {
            return DiskFault::None;
        }
        let x = self.rng.gen_f64();
        if x < self.error_rate {
            self.media_errors += 1;
            DiskFault::MediaError
        } else if x < self.error_rate + self.stuck_rate {
            self.stuck_requests += 1;
            DiskFault::Stuck
        } else {
            DiskFault::None
        }
    }

    /// Media errors injected so far.
    pub fn media_errors(&self) -> u64 {
        self.media_errors
    }

    /// Stuck requests injected so far.
    pub fn stuck_requests(&self) -> u64 {
        self.stuck_requests
    }

    /// Checkpoint the RNG position and counters (rates are config).
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        self.rng.ckpt(c)?;
        c.u64(&mut self.media_errors)?;
        c.u64(&mut self.stuck_requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_injector_never_faults() {
        let mut inj = DiskFaultInjector::new(1, 0, 0.0, 0.0);
        assert!(!inj.is_active());
        for _ in 0..1000 {
            assert_eq!(inj.roll(), DiskFault::None);
        }
        assert_eq!(inj.media_errors(), 0);
        assert_eq!(inj.stuck_requests(), 0);
    }

    #[test]
    fn rates_are_roughly_respected() {
        let mut inj = DiskFaultInjector::new(7, 3, 0.1, 0.05);
        let mut errors = 0;
        let mut stuck = 0;
        for _ in 0..20_000 {
            match inj.roll() {
                DiskFault::MediaError => errors += 1,
                DiskFault::Stuck => stuck += 1,
                DiskFault::None => {}
            }
        }
        // 10% and 5% within generous tolerance.
        assert!((1500..2500).contains(&errors), "errors {errors}");
        assert!((700..1300).contains(&stuck), "stuck {stuck}");
        assert_eq!(inj.media_errors(), errors);
        assert_eq!(inj.stuck_requests(), stuck);
    }

    #[test]
    fn rolls_are_deterministic() {
        let mut a = DiskFaultInjector::new(42, 1, 0.01, 0.01);
        let mut b = DiskFaultInjector::new(42, 1, 0.01, 0.01);
        for _ in 0..5000 {
            assert_eq!(a.roll(), b.roll());
        }
    }

    #[test]
    #[should_panic(expected = "error_rate out of range")]
    fn rejects_bad_rate() {
        DiskFaultInjector::new(0, 0, 1.5, 0.0);
    }
}
