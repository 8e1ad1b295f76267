//! Event vocabulary and dispatch for the machine's event loop.

use super::Machine;
use crate::error::SimError;
use crate::vm::{ProcId, Vpn};

/// Everything that can be scheduled on the machine's event queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Processor continues executing its action stream.
    Resume(ProcId),
    /// A page-read request reached disk `disk`'s controller.
    DiskRequest {
        /// Target disk.
        disk: u32,
        /// Requested page.
        vpn: Vpn,
    },
    /// The disk controller has the page ready (cache hit or completed
    /// media read): start moving it toward the faulting node.
    DiskReadReady {
        /// The disk.
        disk: u32,
        /// The page.
        vpn: Vpn,
    },
    /// A faulted page's data fully arrived in the destination memory.
    PageArrive {
        /// The page.
        vpn: Vpn,
    },
    /// A swapped-out page reached disk `disk`'s I/O node (standard
    /// machine; also used for OK-triggered re-sends).
    SwapWriteArrive {
        /// Target disk.
        disk: u32,
        /// The page.
        vpn: Vpn,
        /// Swapping node.
        from: u32,
    },
    /// The controller's ACK reached the swapping node: frame reusable.
    SwapAck {
        /// Swapping node.
        node: u32,
        /// The page.
        vpn: Vpn,
    },
    /// The controller's OK reached the swapping node: re-send the page.
    SwapOk {
        /// Swapping node.
        node: u32,
        /// The page.
        vpn: Vpn,
        /// Target disk.
        disk: u32,
    },
    /// The controller should try to flush dirty pages to the platters.
    /// One entry stands for a run of consecutive checks of the disk at
    /// the same time, delivered back to back (see
    /// `Machine::schedule_flush_checks`).
    FlushCheck {
        /// The disk.
        disk: u32,
        /// How many checks the entry stands for, `1..=MAX_FLUSH_RUN`.
        checks: u32,
    },
    /// A flush completed: hand freed slots to NACKed requesters that
    /// queued while the flush was in flight.
    NackRecheck {
        /// The disk.
        disk: u32,
    },
    /// A ring swap-out finished serializing onto the cache channel:
    /// the frame is reusable (NWCache machine).
    RingInsertDone {
        /// Swapping node (= channel).
        node: u32,
        /// The page.
        vpn: Vpn,
    },
    /// A swap-out notification reached the NWCache interface of the
    /// responsible I/O node.
    IfaceEnqueue {
        /// The disk whose interface receives the record.
        disk: u32,
        /// Cache channel (= swapping node).
        ch: u32,
        /// The page.
        vpn: Vpn,
    },
    /// The NWCache interface should try to copy a page from the most
    /// loaded channel into the disk cache.
    DrainCheck {
        /// The disk.
        disk: u32,
    },
    /// A page finished copying from the ring into the disk cache.
    DrainCopied {
        /// The disk.
        disk: u32,
        /// Source channel.
        ch: u32,
        /// The page.
        vpn: Vpn,
        /// Original swapper (receives the ACK).
        origin: u32,
    },
    /// The interface's ACK reached the original swapper: the ring slot
    /// is freed and the Ring bit cleared.
    RingAck {
        /// Original swapper (= channel owner).
        origin: u32,
        /// Channel.
        ch: u32,
        /// The page.
        vpn: Vpn,
    },
    /// A victim-read notification reached the responsible interface:
    /// cancel the page's FIFO entry (it no longer goes to disk).
    CancelMsg {
        /// The disk.
        disk: u32,
        /// Channel.
        ch: u32,
        /// The page.
        vpn: Vpn,
    },
    /// A scheduled ring channel failure fires: every page circulating
    /// on the channel is destroyed and the channel is dead for the
    /// rest of the run (fault injection only).
    RingChannelFail {
        /// The failing channel.
        ch: u32,
    },
    /// A swap-out has been unacknowledged for the configured timeout:
    /// re-issue it unless it completed or a newer retry superseded
    /// this timer (fault injection only).
    SwapTimeout {
        /// Swapping node.
        node: u32,
        /// The page.
        vpn: Vpn,
        /// Attempt count this timer was armed for.
        attempt: u32,
    },
    /// A speculative prefetch hint reached disk `disk`'s controller
    /// (adaptive prefetching only).
    SpecHint {
        /// Target disk.
        disk: u32,
        /// The predicted page.
        vpn: Vpn,
        /// The node whose detector issued the hint.
        node: u32,
    },
    /// The controller should advance its speculative read engine:
    /// install a completed fill and/or start the next queued hint.
    SpecCheck {
        /// The disk.
        disk: u32,
    },
}

// Heap entries store events inline and move on every sift, so
// `Event`'s size sets the queue's memory traffic. Box (or split) any
// future variant that would inflate it past 32 bytes — today the widest
// (`DrainCopied`, `SwapTimeout`) pack three words of payload plus the
// discriminant.
const _: () = assert!(
    std::mem::size_of::<Event>() <= 32,
    "Event grew past 32 bytes; box the offending variant's payload"
);

impl Machine {
    /// Dispatch one event. Errors surface protocol inconsistencies and
    /// exhausted fault-recovery retries; a clean run never produces one.
    pub(crate) fn dispatch(&mut self, ev: Event) -> Result<(), SimError> {
        match ev {
            Event::Resume(p) => {
                self.step_proc(p);
                Ok(())
            }
            Event::DiskRequest { disk, vpn } => self.on_disk_request(disk, vpn),
            Event::DiskReadReady { disk, vpn } => self.on_disk_read_ready(disk, vpn),
            Event::PageArrive { vpn } => self.on_page_arrive(vpn),
            Event::SwapWriteArrive { disk, vpn, from } => {
                self.on_swap_write_arrive(disk, vpn, from);
                Ok(())
            }
            Event::SwapAck { node, vpn } => self.on_swap_ack(node, vpn),
            Event::SwapOk { node, vpn, disk } => self.on_swap_ok(node, vpn, disk),
            Event::FlushCheck { disk, checks } => {
                self.on_flush_run(disk, checks);
                Ok(())
            }
            Event::NackRecheck { disk } => {
                self.on_nack_recheck(disk);
                Ok(())
            }
            Event::RingInsertDone { node, vpn } => self.on_ring_insert_done(node, vpn),
            Event::IfaceEnqueue { disk, ch, vpn } => {
                self.on_iface_enqueue(disk, ch, vpn);
                Ok(())
            }
            Event::DrainCheck { disk } => self.on_drain_check(disk),
            Event::DrainCopied {
                disk,
                ch,
                vpn,
                origin,
            } => {
                self.on_drain_copied(disk, ch, vpn, origin);
                Ok(())
            }
            Event::RingAck { origin, ch, vpn } => {
                self.on_ring_ack(origin, ch, vpn);
                Ok(())
            }
            Event::CancelMsg { disk, ch, vpn } => {
                self.on_cancel_msg(disk, ch, vpn);
                Ok(())
            }
            Event::RingChannelFail { ch } => self.on_ring_channel_fail(ch),
            Event::SwapTimeout { node, vpn, attempt } => {
                self.on_swap_timeout(node, vpn, attempt)
            }
            Event::SpecHint { disk, vpn, node } => {
                self.on_spec_hint(disk, vpn, node);
                Ok(())
            }
            Event::SpecCheck { disk } => {
                self.on_spec_check(disk);
                Ok(())
            }
        }
    }
}
