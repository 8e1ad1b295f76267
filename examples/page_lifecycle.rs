//! Follow one page through the NWCache protocol: fault from disk,
//! residency, eviction, the optical ring, the interface drain (or a
//! victim read), and the final ACKs — the complete §3.2 lifecycle,
//! printed as a timeline from the observer's events for that page.
//!
//! ```text
//! cargo run --release -p nw-examples --bin page_lifecycle [vpn] [scale]
//! ```

use nw_apps::AppId;
use nwcache::observe::{ObserveConfig, TraceData};
use nwcache::{Machine, MachineConfig, MachineKind, PrefetchMode};

/// Run sor on `cfg` with an observer attached; the footprint in pages
/// and what the observer recorded. The buffer holds every event of a
/// run at the default scale, where the default capacity would
/// overwrite the start of the timeline.
fn observe(cfg: MachineConfig) -> (u64, TraceData) {
    let mut machine = Machine::new(cfg, AppId::Sor);
    machine.enable_observer(ObserveConfig {
        trace_capacity: 1 << 20,
        ..ObserveConfig::default()
    });
    machine.run();
    let data = machine.take_observation().expect("observer attached");
    (machine.npages(), data)
}

/// Page `vpn`'s lifecycle from its events, one line per protocol step:
/// the pcycle, what happened and the time since the previous step.
fn timeline(data: &TraceData, vpn: u64) -> Vec<String> {
    let events: Vec<_> = data.page_events(vpn).collect();
    let mut lines = Vec::new();
    let mut last = 0;
    // Ring swap-outs not yet ACKed, and the channel of the latest one:
    // while a swap-out is on the ring, a disk admit is its drain, and a
    // disk NACK only makes the drain retry.
    let mut on_ring = 0u32;
    let mut channel = 0;
    for (i, e) in events.iter().enumerate() {
        let lane = e.track.index;
        let what = match e.name {
            "vm.fault.disk" => format!("processor {} faults; request sent to the disk", e.arg1),
            "vm.fault.ring" => {
                let snoop = events[i + 1..].iter().find(|s| s.name == "ring.snoop");
                let ch = snoop.expect("a ring fault snoops its channel").track.index;
                format!(
                    "processor {} faults; Ring bit set -> snooping channel {ch}",
                    e.arg1
                )
            }
            "vm.fault.disk_hit" | "vm.fault.disk_miss" | "vm.fault.ring_hit" => {
                format!("page data arrives in node {lane}'s memory")
            }
            "vm.evict" if e.arg1 != 0 => {
                format!("node {lane} evicts the page (dirty: swap-out begins)")
            }
            "vm.evict" => format!("node {lane} evicts the page (clean: frame freed)"),
            "ring.insert" => {
                on_ring += 1;
                channel = lane;
                continue;
            }
            "vm.swapout.ring" => format!("page fully serialized onto cache channel {channel}"),
            "disk.admit" if on_ring > 0 => {
                format!("interface copied the page into disk {lane}'s cache")
            }
            "ring.ack" => {
                on_ring -= 1;
                "origin ACKed: ring slot freed, Ring bit cleared".to_string()
            }
            "vm.swapout.std" => "controller ACKed the swap-out".to_string(),
            "disk.nack" if on_ring == 0 => "controller NACKed: waiting for an OK".to_string(),
            _ => continue,
        };
        // A VM span is a wait (a fault, a swap-out): its step is its end.
        let at = e.at + if e.name.starts_with("vm.") { e.dur } else { 0 };
        lines.push(format!("{at:>14}  {what}   (+{})", at.saturating_sub(last)));
        last = at;
    }
    lines
}

fn main() {
    let vpn: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    let scale: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.15);

    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, scale);
    let (npages, data) = observe(cfg);
    assert!(vpn < npages, "vpn {vpn} beyond footprint ({npages} pages)");

    println!("Lifecycle of page {vpn} (sor, NWCache machine, naive prefetching)\n");
    println!("{:>14}  event", "pcycles");
    let lines = timeline(&data, vpn);
    for line in &lines {
        println!("{line}");
    }
    if lines.is_empty() {
        println!("(the page was never touched at this scale — try another vpn)");
    }
    if data.dropped > 0 {
        println!(
            "({} early events were overwritten; the timeline may start late)",
            data.dropped
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_sim::ckpt::fnv1a;

    /// Every page's timeline, at scale 0.15, matches line for line what
    /// this example printed when it read the retired page tracer: the
    /// line counts and FNV-1a digests were recorded from that tracer.
    /// The standard machine's one-page disk caches make it NACK, so
    /// the two runs take all nine steps the tracer ever emitted.
    #[test]
    fn timelines_match_the_retired_tracer() {
        let nwcache = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.15);
        let mut standard =
            MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, 0.15);
        standard.disk_cache_pages = 1;
        let mut all = Vec::new();
        for (cfg, lines, digest) in [
            (nwcache, 4311, 0xe1a5_f330_b8ae_2dfc),
            (standard, 4013, 0xbdc9_6c51_a937_f3bd),
        ] {
            let (npages, data) = observe(cfg);
            assert_eq!(data.dropped, 0);
            let run: Vec<String> = (0..npages).flat_map(|v| timeline(&data, v)).collect();
            assert_eq!(run.len(), lines);
            assert_eq!(fnv1a(run.join("\n").as_bytes()), digest);
            all.extend(run);
        }
        for step in [
            "request sent to the disk",
            "Ring bit set",
            "arrives in node",
            "evicts the page",
            "serialized onto cache channel",
            "interface copied the page",
            "origin ACKed",
            "controller ACKed",
            "controller NACKed",
        ] {
            assert!(all.iter().any(|l| l.contains(step)), "no '{step}' step");
        }
    }
}
