//! Scenario stream digests: FNV-1a over the binary `nwtrace-v1`
//! encoding of `Scenario::to_trace`, which holds every action of
//! every processor. The constants pin the generated streams, so a
//! generator change that moves one action fails here before it can
//! move a simulated cycle.
//!
//! The rows cover the two write-staging benchmark scenarios at 8 and
//! 64 processors, and a three-phase spec whose two Zipf phases differ
//! in working set and skew, so a phase handed another phase's
//! popularity table fails. The rest pin the generator's edge cases:
//! burst/idle gaps, several barriers per phase, a phase with more
//! barriers than accesses (its first three barriers all follow its
//! first access), and more processors than the working set has lines.
//!
//! Print the digests with
//!
//! ```text
//! cargo test -p nw-workload --test scenario_digests print_digests -- --ignored --nocapture
//! ```

use nw_sim::ckpt::fnv1a;
use nw_workload::Scenario;

const SPECS: [&str; 7] = [
    "zipf:0.9,ws=768,acc=2500,wf=0.5",
    "zipf:0.9,ws=6144,acc=1250,wf=0.5",
    "zipf:1.2,ws=96,acc=800,wf=0.2;seq:3,ws=64,acc=300,wf=0.9;zipf:0.6,ws=512,acc=900,wf=0.7,bar=2",
    "seq:2,ws=32,acc=700,wf=0.4,cpa=15,burst=64:9000;uniform,ws=48,acc=500,wf=0.6,cpa=0,burst=33:120",
    "zipf:1.0,ws=40,acc=999,wf=0.5,bar=7;uniform,ws=40,acc=500,wf=0.2,cpa=3,bar=4",
    "seq,ws=16,acc=3,wf=0.5,bar=5;uniform,ws=16,acc=40,bar=3",
    "seq:5,ws=1,acc=200,wf=0.5;uniform,ws=1,acc=50,wf=0.5",
];

/// `(spec index, nprocs, seed, digest, actions)`, recorded.
const ROWS: [(usize, usize, u64, u64, u64); 20] = [
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
    (3, 8, 1, 0x387ec009bd4ea140, 15416),
    (3, 8, 7, 0x6c432dbf9d5d57df, 15416),
    (4, 8, 1, 0x99cb084a52066f00, 24072),
    (4, 8, 7, 0x680ffa0b9f8da256, 24072),
    (5, 8, 1, 0x353796dab6426486, 752),
    (5, 8, 7, 0x02dd8f0e6fd32483, 752),
    (6, 100, 1, 0x2a1136db7105146a, 50200),
    (6, 100, 7, 0x5d9cb66ecd368a9d, 50200),
];

fn digest(spec: usize, nprocs: usize, seed: u64) -> (u64, u64) {
    let mut trace = Scenario::parse(SPECS[spec])
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
