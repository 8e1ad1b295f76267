//! Victim caching in action: the optical ring serves page faults for
//! recently swapped-out pages (the paper's Table 7 effect).
//!
//! Runs Gauss — the application with the strongest sharing and the
//! highest NWCache hit rate in the paper — and prints where each
//! class of fault was served from and at what latency, illustrating
//! why re-reading a victim from the ring (~ one ring round-trip) beats
//! a disk-controller-cache read across the mesh and crushes a
//! mechanical disk read.
//!
//! ```text
//! cargo run --release -p nw-examples --bin victim_caching [scale]
//! ```

use nw_apps::AppId;
use nwcache::{run_app, MachineConfig, MachineKind, PrefetchMode};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);

    println!("Victim caching demo (gauss, scale {scale})\n");
    for prefetch in [PrefetchMode::Naive, PrefetchMode::Optimal] {
        let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, scale);
        let m = run_app(&cfg, AppId::Gauss);
        println!("--- {prefetch:?} prefetching ---");
        println!(
            "page faults: {:>8}   served from ring: {:>8} ({:.1}%)",
            m.page_faults,
            m.ring_hits,
            m.ring_hit_rate()
        );
        println!(
            "fault latency   ring hit: {:>10.0} pcycles ({} faults)",
            m.fault_latency_ring.mean(),
            m.fault_latency_ring.count()
        );
        println!(
            "fault latency  disk hit : {:>10.0} pcycles ({} faults)",
            m.fault_latency_disk_hit.mean(),
            m.fault_latency_disk_hit.count()
        );
        println!(
            "fault latency  disk miss: {:>10.0} pcycles ({} faults)",
            m.fault_latency_disk_miss.mean(),
            m.fault_latency_disk_miss.count()
        );
        println!(
            "peak pages stored on the ring: {} (capacity {})\n",
            m.ring_peak_pages,
            cfg.nodes as usize * cfg.ring_slots_per_channel
        );
    }
    println!(
        "The ring hit latency is roughly one ring round-trip (52 us = \n\
         10400 pcycles) plus local bus transfers — no mesh crossing, no\n\
         disk involvement. That is the victim-caching benefit."
    );
}
