//! Seeded mutation fuzz of both `nwtrace-v1` decoders. Each case
//! mutates a valid encoding (truncation, bit flips, a random span, or
//! a spliced-in huge number) and decodes it: the decoder must return
//! `Ok` or `Err`, never panic, and any `Ok` trace that validates must
//! replay through `Trace::replay` to exactly its decoded actions.

use nw_apps::{build, AppId};
use nw_sim::Pcg32;
use nw_workload::{Scenario, Trace};
use std::sync::Arc;

/// Mutated inputs per encoding and seed trace.
const CASES: u64 = 4000;

/// The two seed traces: a small recorded gauss and a generated zipf
/// scenario.
fn seeds() -> Vec<Trace> {
    let gauss = Trace::capture(build(AppId::Gauss, 2, 0.001, 3));
    let zipf = Scenario::parse("zipf:0.9,ws=16,acc=200,wf=0.4")
        .expect("zipf spec parses")
        .to_trace(3, 5);
    vec![gauss, zipf]
}

/// A number big enough to overflow a count, an operand or a length,
/// in the encoding's own form.
fn huge(rng: &mut Pcg32, binary: bool) -> Vec<u8> {
    let v = [1u64 << 24, 1 << 32, u32::MAX as u64 + 1, u64::MAX][rng.gen_below(4) as usize];
    if binary {
        let mut out = Vec::new();
        nw_sim::ckpt::put_varint(&mut out, v);
        out
    } else {
        v.to_string().into_bytes()
    }
}

/// Mutation `case` of `valid`.
fn mutated(valid: &[u8], binary: bool, case: u64) -> Vec<u8> {
    let mut rng = Pcg32::new(0x7ACE, case);
    let mut p = valid.to_vec();
    let at = rng.gen_below(p.len() as u32) as usize;
    match case % 4 {
        0 => p.truncate(at),
        1 => {
            for _ in 0..1 + rng.gen_below(3) {
                let i = rng.gen_below(p.len() as u32) as usize;
                p[i] ^= 1 << rng.gen_below(8);
            }
        }
        2 => {
            let end = (at + 1 + rng.gen_below(8) as usize).min(p.len());
            for b in &mut p[at..end] {
                *b = rng.next_u32() as u8;
            }
        }
        _ => {
            let end = (at + 1 + rng.gen_below(4) as usize).min(p.len());
            p.splice(at..end, huge(&mut rng, binary));
        }
    }
    p
}

fn fuzz(binary: bool) {
    let (mut ok, mut replayed) = (0, 0);
    for mut trace in seeds() {
        let valid = if binary {
            trace.encode_binary()
        } else {
            trace.encode_text().into_bytes()
        };
        assert_eq!(Trace::decode(&valid).as_ref(), Ok(&trace));
        for case in 0..CASES {
            let Ok(decoded) = Trace::decode(&mutated(&valid, binary, case)) else {
                continue;
            };
            ok += 1;
            if decoded.validate().is_err() {
                continue;
            }
            let (_, data_bytes, actions) = Arc::new(decoded.clone()).replay().into_actions();
            assert_eq!(data_bytes, decoded.data_bytes, "case {case}");
            assert_eq!(actions, decoded.procs, "case {case}");
            replayed += 1;
        }
    }
    // The loop must exercise both outcomes, not just the error paths.
    assert!(ok > 0 && replayed > 0, "ok {ok}, replayed {replayed}");
}

#[test]
fn binary_decoder_survives_mutation() {
    fuzz(true);
}

#[test]
fn text_decoder_survives_mutation() {
    fuzz(false);
}
