//! Deterministic mesh message-fault injection.
//!
//! A [`MeshFaults`] injector decides, per protected control message,
//! whether the message is dropped in flight or arrives corrupted
//! (detected by the link CRC and discarded — behaviourally a drop,
//! counted separately). The machine model consults it only for
//! messages whose loss its recovery protocols can tolerate (swap
//! ACK/OK and ring cancel notifications); page payloads and the
//! remaining control plane are modelled as a reliable link layer.
//!
//! An injector with both rates at zero never draws from its RNG, so
//! inactive plans leave results bit-identical.

use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::Pcg32;

/// Fate of one control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFault {
    /// Delivered intact.
    Delivered,
    /// Lost in flight.
    Dropped,
    /// Arrived corrupted; the CRC check discards it.
    Corrupted,
}

/// Deterministic message-fault source for the mesh.
#[derive(Debug, Clone)]
pub struct MeshFaults {
    rng: Pcg32,
    drop_rate: f64,
    corrupt_rate: f64,
    dropped: u64,
    corrupted: u64,
}

impl MeshFaults {
    /// Build an injector from a seed and the two rates.
    pub fn new(seed: u64, drop_rate: f64, corrupt_rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&drop_rate), "drop_rate out of range");
        assert!(
            (0.0..=1.0).contains(&corrupt_rate),
            "corrupt_rate out of range"
        );
        MeshFaults {
            rng: Pcg32::new(seed, 0x4E57),
            drop_rate,
            corrupt_rate,
            dropped: 0,
            corrupted: 0,
        }
    }

    /// Whether any rate is nonzero.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0 || self.corrupt_rate > 0.0
    }

    /// Roll the fate of one message. Draws exactly one random number
    /// when active, none when inactive.
    pub fn roll(&mut self) -> MsgFault {
        if !self.is_active() {
            return MsgFault::Delivered;
        }
        let x = self.rng.gen_f64();
        if x < self.drop_rate {
            self.dropped += 1;
            MsgFault::Dropped
        } else if x < self.drop_rate + self.corrupt_rate {
            self.corrupted += 1;
            MsgFault::Corrupted
        } else {
            MsgFault::Delivered
        }
    }

    /// Messages dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages corrupted so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// Checkpoint the RNG position and counters (rates are config).
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        self.rng.ckpt(c)?;
        c.u64(&mut self.dropped)?;
        c.u64(&mut self.corrupted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_never_drops() {
        let mut f = MeshFaults::new(1, 0.0, 0.0);
        assert!(!f.is_active());
        for _ in 0..1000 {
            assert_eq!(f.roll(), MsgFault::Delivered);
        }
    }

    #[test]
    fn deterministic_and_counted() {
        let mut a = MeshFaults::new(9, 0.05, 0.02);
        let mut b = MeshFaults::new(9, 0.05, 0.02);
        for _ in 0..10_000 {
            assert_eq!(a.roll(), b.roll());
        }
        assert_eq!(a.dropped(), b.dropped());
        assert_eq!(a.corrupted(), b.corrupted());
        assert!(a.dropped() > 0 && a.corrupted() > 0);
        // Rough rate check: 5% / 2% of 10k draws.
        assert!((300..700).contains(&a.dropped()), "dropped {}", a.dropped());
        assert!(
            (100..320).contains(&a.corrupted()),
            "corrupted {}",
            a.corrupted()
        );
    }
}
