//! Stream digests: every action of every processor's stream, folded
//! with FNV-1a, for each of the seven kernels and `synth` over a grid
//! of `(nprocs, scale, seed)`. The constants pin the exact reference
//! sequences, so any change to a generator that moves one action
//! fails here before it can move a simulated cycle.
//!
//! The full-scale 8-processor rows are `#[ignore]`d in debug builds;
//! run them with `cargo test --release -p nw-apps -- --ignored`.

use nw_apps::synth::{self, SynthConfig};
use nw_apps::{build, Action, AppBuild, AppId};

/// FNV-1a over the action stream: a per-processor marker, then each
/// action's kind byte and little-endian payload.
fn digest(b: AppBuild) -> (u64, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &x in bytes {
            h ^= x as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut actions = 0u64;
    for (p, stream) in b.streams.into_iter().enumerate() {
        fold(b"P");
        fold(&(p as u64).to_le_bytes());
        for a in stream {
            actions += 1;
            let (kind, v) = match a {
                Action::Compute(c) => (b'c', c as u64),
                Action::Read(l) => (b'r', l),
                Action::Write(l) => (b'w', l),
                Action::Barrier(id) => (b'b', id as u64),
            };
            fold(&[kind]);
            fold(&v.to_le_bytes());
        }
    }
    (h, actions)
}

/// The synthetic kernel at `scale`: a 2 MiB working set shrunk
/// linearly, with random redirects, mixed reads/writes and a stride.
fn synth_build(nprocs: usize, scale: f64, seed: u64) -> AppBuild {
    let cfg = SynthConfig {
        data_bytes: (2.0 * 1024.0 * 1024.0 * scale) as u64,
        stride_lines: 2,
        write_frac: 0.4,
        random_frac: 0.2,
        iters: 3,
        compute_per_line: 40,
    };
    synth::build(cfg, nprocs, seed)
}

fn build_named(app: &str, nprocs: usize, scale: f64, seed: u64) -> AppBuild {
    match AppId::from_name(app) {
        Some(id) => build(id, nprocs, scale, seed),
        None => {
            assert_eq!(app, "synth");
            synth_build(nprocs, scale, seed)
        }
    }
}

/// `(app, nprocs, scale, seed, digest, actions)`.
type Row = (&'static str, usize, f64, u64, u64, u64);

const ROWS: &[Row] = &[
    ("em3d", 1, 0.05, 0, 0x7270ddb652e78e2b, 244820),
    ("em3d", 1, 0.05, 7, 0x3ec61f5005caff47, 244820),
    ("em3d", 1, 0.25, 0, 0xcf1fb27cd216a4ff, 1228820),
    ("em3d", 1, 0.25, 7, 0x74bdf55b1010bb57, 1228820),
    ("em3d", 3, 0.05, 0, 0xe9592ce2cc7333f2, 244860),
    ("em3d", 3, 0.05, 7, 0x701959d49ebec682, 244860),
    ("em3d", 3, 0.25, 0, 0x39ff803af40ace9e, 1228860),
    ("em3d", 3, 0.25, 7, 0xc6612fa80c41a04e, 1228860),
    ("em3d", 8, 0.05, 0, 0x9d63886a6181457d, 244960),
    ("em3d", 8, 0.05, 7, 0x831fc90c7502e3fd, 244960),
    ("em3d", 8, 0.25, 0, 0x926a6cd9a05c87f1, 1228960),
    ("em3d", 8, 0.25, 7, 0x94ddf399c1bf1809, 1228960),
    ("fft", 1, 0.05, 0, 0x13ac3437fec5d09e, 27147),
    ("fft", 1, 0.05, 7, 0x13ac3437fec5d09e, 27147),
    ("fft", 1, 0.25, 0, 0xaec00a356d9043e6, 278542),
    ("fft", 1, 0.25, 7, 0xaec00a356d9043e6, 278542),
    ("fft", 3, 0.05, 0, 0x285f748b5b71e7c7, 27222),
    ("fft", 3, 0.05, 7, 0x285f748b5b71e7c7, 27222),
    ("fft", 3, 0.25, 0, 0xfb06e6dff1372d45, 278706),
    ("fft", 3, 0.25, 7, 0xfb06e6dff1372d45, 278706),
    ("fft", 8, 0.05, 0, 0x91fe10ef6062a3a5, 27224),
    ("fft", 8, 0.05, 7, 0x91fe10ef6062a3a5, 27224),
    ("fft", 8, 0.25, 0, 0x0347a47eaaf1780d, 278640),
    ("fft", 8, 0.25, 7, 0x0347a47eaaf1780d, 278640),
    ("gauss", 1, 0.05, 0, 0xf277ed12210cb100, 246291),
    ("gauss", 1, 0.05, 7, 0xf277ed12210cb100, 246291),
    ("gauss", 1, 0.25, 0, 0x8243243d88482e8f, 2511680),
    ("gauss", 1, 0.25, 7, 0x8243243d88482e8f, 2511680),
    ("gauss", 3, 0.05, 0, 0xd1c93dd7d0c4cb8f, 248655),
    ("gauss", 3, 0.05, 7, 0xd1c93dd7d0c4cb8f, 248655),
    ("gauss", 3, 0.25, 0, 0x305000c0395fe122, 2521152),
    ("gauss", 3, 0.25, 7, 0x305000c0395fe122, 2521152),
    ("gauss", 8, 0.05, 0, 0x7f3753e2c57328cd, 254565),
    ("gauss", 8, 0.05, 7, 0x7f3753e2c57328cd, 254565),
    ("gauss", 8, 0.25, 0, 0x8aab4055858a32d5, 2544832),
    ("gauss", 8, 0.25, 7, 0x8aab4055858a32d5, 2544832),
    ("lu", 1, 0.05, 0, 0xbc9a410e2761f1df, 30360),
    ("lu", 1, 0.05, 7, 0xbc9a410e2761f1df, 30360),
    ("lu", 1, 0.25, 0, 0xd1238a995aba4edf, 121368),
    ("lu", 1, 0.25, 7, 0xd1238a995aba4edf, 121368),
    ("lu", 3, 0.05, 0, 0xa6a6f9470f860c1e, 30408),
    ("lu", 3, 0.05, 7, 0xa6a6f9470f860c1e, 30408),
    ("lu", 3, 0.25, 0, 0x7ce02f6e4cb02e1e, 121416),
    ("lu", 3, 0.25, 7, 0x7ce02f6e4cb02e1e, 121416),
    ("lu", 8, 0.05, 0, 0xbbb2ae07879c7b25, 30528),
    ("lu", 8, 0.05, 7, 0xbbb2ae07879c7b25, 30528),
    ("lu", 8, 0.25, 0, 0x70d4c3cf796d13e5, 121536),
    ("lu", 8, 0.25, 7, 0x70d4c3cf796d13e5, 121536),
    ("mg", 1, 0.05, 0, 0x980569239289552e, 58090),
    ("mg", 1, 0.05, 7, 0x980569239289552e, 58090),
    ("mg", 1, 0.25, 0, 0xef38c75c6d9cc5bf, 791360),
    ("mg", 1, 0.25, 7, 0xef38c75c6d9cc5bf, 791360),
    ("mg", 3, 0.05, 0, 0x81e5f6cdec542fa9, 58270),
    ("mg", 3, 0.05, 7, 0x81e5f6cdec542fa9, 58270),
    ("mg", 3, 0.25, 0, 0x5637e2340802259a, 791680),
    ("mg", 3, 0.25, 7, 0x5637e2340802259a, 791680),
    ("mg", 8, 0.05, 0, 0x2a8f1450dbb5ed45, 58720),
    ("mg", 8, 0.05, 7, 0x2a8f1450dbb5ed45, 58720),
    ("mg", 8, 0.25, 0, 0x0166474084af690d, 792480),
    ("mg", 8, 0.25, 7, 0x0166474084af690d, 792480),
    ("radix", 1, 0.05, 0, 0x677b8994f2134821, 58953),
    ("radix", 1, 0.05, 7, 0x004302dd39659fd7, 58953),
    ("radix", 1, 0.25, 0, 0xaaa26f7a211b7945, 292425),
    ("radix", 1, 0.25, 7, 0x53485a9ea565499f, 292425),
    ("radix", 3, 0.05, 0, 0xa9a0090fc14d1a3c, 62445),
    ("radix", 3, 0.05, 7, 0x8d9f7e28175ecd76, 62445),
    ("radix", 3, 0.25, 0, 0x9e4580af176f7714, 295914),
    ("radix", 3, 0.25, 7, 0x629d628593f95056, 295914),
    ("radix", 8, 0.05, 0, 0x2df3e0440819bcbb, 84552),
    ("radix", 8, 0.05, 7, 0x155c16e681184781, 84552),
    ("radix", 8, 0.25, 0, 0x1b3336111532d1c7, 318024),
    ("radix", 8, 0.25, 7, 0x5bf73b432ba1ef65, 318024),
    ("sor", 1, 0.05, 0, 0xa54f8a8455db6886, 57210),
    ("sor", 1, 0.05, 7, 0xa54f8a8455db6886, 57210),
    ("sor", 1, 0.25, 0, 0xbc7f2d446db5693e, 256010),
    ("sor", 1, 0.25, 7, 0xbc7f2d446db5693e, 256010),
    ("sor", 3, 0.05, 0, 0xbc663345642d8369, 57230),
    ("sor", 3, 0.05, 7, 0xbc663345642d8369, 57230),
    ("sor", 3, 0.25, 0, 0x70a5b9fe12bc0d21, 256030),
    ("sor", 3, 0.25, 7, 0x70a5b9fe12bc0d21, 256030),
    ("sor", 8, 0.05, 0, 0x466f527a02bc60ad, 57280),
    ("sor", 8, 0.05, 7, 0x466f527a02bc60ad, 57280),
    ("sor", 8, 0.25, 0, 0x7c9187affc4cfb45, 256080),
    ("sor", 8, 0.25, 7, 0x7c9187affc4cfb45, 256080),
    ("synth", 1, 0.05, 0, 0x3ba1294e1a03159a, 4923),
    ("synth", 1, 0.05, 7, 0xff43b90605796fa3, 4923),
    ("synth", 1, 0.25, 0, 0x031c079803bc47e8, 24579),
    ("synth", 1, 0.25, 7, 0xf47a725653cce03a, 24579),
    ("synth", 3, 0.05, 0, 0x3d2328f28698e28d, 4929),
    ("synth", 3, 0.05, 7, 0x595ec560d665f015, 4929),
    ("synth", 3, 0.25, 0, 0xee9f209e503055d5, 24591),
    ("synth", 3, 0.25, 7, 0x7f5c0a7cd60130ab, 24591),
    ("synth", 8, 0.05, 0, 0x94ac5dc87a381c27, 4962),
    ("synth", 8, 0.05, 7, 0xd98f27ec0b0d2024, 4962),
    ("synth", 8, 0.25, 0, 0x748bad712c623ac3, 24600),
    ("synth", 8, 0.25, 7, 0x86cce84f83013faa, 24600),
];

const FULL_SCALE_ROWS: &[Row] = &[
    ("em3d", 8, 1.0, 0, 0x0fcbd740bee3e521, 4915360),
    ("fft", 8, 1.0, 0, 0xf7c5fae4903e1895, 1278080),
    ("gauss", 8, 1.0, 0, 0xc4efad3ab4c64fd5, 19984512),
    ("lu", 8, 1.0, 0, 0xb1986d35957e2537, 614496),
    ("mg", 8, 1.0, 0, 0x1cdcfaf54ff0c7b5, 3250800),
    ("radix", 8, 1.0, 0, 0x610ba352aafcb8ab, 1193544),
    ("sor", 8, 1.0, 0, 0x953cadda7b7ba185, 1024080),
    ("synth", 8, 1.0, 0, 0x6cdb3337a601e8f0, 98328),
];

fn check(rows: &[Row]) {
    let mut bad = Vec::new();
    for &(app, nprocs, scale, seed, want, want_n) in rows {
        let (got, n) = digest(build_named(app, nprocs, scale, seed));
        if (got, n) != (want, want_n) {
            bad.push(format!(
                "    (\"{app}\", {nprocs}, {scale:?}, {seed}, {got:#018x}, {n}),"
            ));
        }
    }
    assert!(bad.is_empty(), "stream digests moved:\n{}", bad.join("\n"));
}

#[test]
fn stream_digests_match_the_pinned_values() {
    check(ROWS);
}

#[test]
#[ignore = "full-scale streams; run in release"]
fn full_scale_stream_digests_match_the_pinned_values() {
    check(FULL_SCALE_ROWS);
}

#[test]
fn from_actions_replays_to_the_same_digest() {
    let (name, bytes, actions) = build(AppId::Gauss, 3, 0.05, 7).into_actions();
    let replay = digest(AppBuild::from_actions(name, bytes, actions));
    assert_eq!(replay, digest(build(AppId::Gauss, 3, 0.05, 7)));
    let row = ROWS
        .iter()
        .find(|r| (r.0, r.1, r.2, r.3) == ("gauss", 3, 0.05, 7))
        .expect("gauss row pinned");
    assert_eq!(replay, (row.4, row.5));
}
