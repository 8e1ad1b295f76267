//! Scenario stream digests: FNV-1a over the binary `nwtrace-v1`
//! encoding of `Scenario::to_trace`, which holds every action of
//! every processor. The constants pin the generated streams, so a
//! generator change that moves one action fails here before it can
//! move a simulated cycle.
//!
//! The rows cover the two write-staging benchmark scenarios at 8 and
//! 64 processors, and a three-phase spec whose two Zipf phases differ
//! in working set and skew, so a phase handed another phase's
//! popularity table fails.
//!
//! Print the digests with
//!
//! ```text
//! cargo test -p nw-workload --test scenario_digests print_digests -- --ignored --nocapture
//! ```

use nw_sim::ckpt::fnv1a;
use nw_workload::Scenario;

const SPECS: [&str; 3] = [
    "zipf:0.9,ws=768,acc=2500,wf=0.5",
    "zipf:0.9,ws=6144,acc=1250,wf=0.5",
    "zipf:1.2,ws=96,acc=800,wf=0.2;seq:3,ws=64,acc=300,wf=0.9;zipf:0.6,ws=512,acc=900,wf=0.7,bar=2",
];

/// `(spec index, nprocs, seed, digest, actions)`, recorded.
const ROWS: [(usize, usize, u64, u64, u64); 12] = [
    (0, 8, 1, 0x4ab46798fbff1667, 40008),
    (0, 8, 7, 0xf9853c988d9aa516, 40008),
    (0, 64, 1, 0xf6b6f9e4b187c7af, 320064),
    (0, 64, 7, 0x11211acfd83a8e69, 320064),
    (1, 8, 1, 0x130f017f3970b02c, 20008),
    (1, 8, 7, 0x8f3c06062226ec5f, 20008),
    (1, 64, 1, 0xbad20ad9d3a3ec5d, 160064),
    (1, 64, 7, 0xa43599e0d3080a54, 160064),
    (2, 8, 1, 0xe6d391801daba1f0, 32032),
    (2, 8, 7, 0x454dc331f640e2f1, 32032),
    (2, 64, 1, 0x51513de41dd07be5, 256256),
    (2, 64, 7, 0xcab132c1e9f9dc62, 256256),
];

fn digest(spec: usize, nprocs: usize, seed: u64) -> (u64, u64) {
    let trace = Scenario::parse(SPECS[spec])
        .expect("spec parses")
        .to_trace(nprocs, seed);
    let actions = trace.procs.iter().map(|p| p.len() as u64).sum();
    (fnv1a(&trace.encode_binary()), actions)
}

#[test]
fn scenario_streams_match_recorded_digests() {
    for (spec, nprocs, seed, hash, actions) in ROWS {
        assert_eq!(
            digest(spec, nprocs, seed),
            (hash, actions),
            "spec {:?} at {nprocs} procs, seed {seed}",
            SPECS[spec]
        );
    }
}

#[test]
#[ignore]
fn print_digests() {
    for (spec, nprocs, seed, ..) in ROWS {
        let (h, n) = digest(spec, nprocs, seed);
        println!("    ({spec}, {nprocs}, {seed}, 0x{h:016x}, {n}),");
    }
}
