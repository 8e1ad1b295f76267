//! Seeded mutations of one checkpoint section, shared by the TLB and
//! directory decoder tests. Mirrors the flush-run mutation loop in
//! `nwcache`'s machine checkpoint tests: every mutated frame must end
//! in a structured error or a state that saves back consistently.

use nw_sim::ckpt::{fnv1a, put_varint, Ckpt, CkptError, CkptReader, CkptWriter, MAGIC, VERSION};
use nw_sim::Pcg32;

/// Section id the tests frame their payloads in.
pub(crate) const SECTION: u32 = 1;

/// Mutated frames each decoder test runs.
pub(crate) const CASES: u64 = 4000;

/// A container holding the one section `save` writes.
pub(crate) fn frame(save: impl FnOnce(&mut Ckpt) -> Result<(), CkptError>) -> Vec<u8> {
    let mut w = CkptWriter::new();
    Ckpt::Save(&mut w).section(SECTION, save).expect("saving cannot fail");
    w.finish()
}

/// The payload `save` writes into one section.
pub(crate) fn payload(save: impl FnOnce(&mut Ckpt) -> Result<(), CkptError>) -> Vec<u8> {
    let bytes = frame(save);
    let mut r = CkptReader::new(&bytes).expect("fresh container");
    let (_, p) = r.next_raw_section().expect("one section").expect("one section");
    p.to_vec()
}

/// Frame `payload` as a checksummed container whose section header
/// declares `len` payload bytes, so mutated bytes get past the
/// checksum and reach the decoder.
fn container(payload: &[u8], len: usize) -> Vec<u8> {
    let mut buf = MAGIC.to_vec();
    buf.push(VERSION);
    put_varint(&mut buf, SECTION as u64);
    put_varint(&mut buf, len as u64);
    buf.extend_from_slice(payload);
    let sum = fnv1a(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Mutation `case` of `valid`, framed: a truncation, bit flips, a
/// varint overflow, or a header claiming bytes the frame lacks. The
/// flag says whether the mutation must be rejected.
pub(crate) fn mutated(valid: &[u8], seed: u64, case: u64) -> (Vec<u8>, bool) {
    let mut rng = Pcg32::new(seed, case);
    let mut p = valid.to_vec();
    let mut len = p.len();
    let must_fail = match case % 4 {
        // Every decoder reads its whole structure, so any strict
        // prefix runs out of bytes.
        0 => {
            p.truncate(rng.gen_below(valid.len() as u32) as usize);
            len = p.len();
            true
        }
        1 => {
            for _ in 0..1 + rng.gen_below(3) {
                let i = rng.gen_below(p.len() as u32) as usize;
                p[i] ^= 1 << rng.gen_below(8);
            }
            false
        }
        // Every field is a varint, so a run of continuation bytes
        // spliced in anywhere overflows the field it lands in.
        2 => {
            let at = rng.gen_below(p.len() as u32) as usize;
            let run = 10 + rng.gen_below(4) as usize;
            p.splice(at..at + 1, std::iter::repeat_n(0xff, run));
            len = p.len();
            true
        }
        _ => {
            len += 1 + rng.gen_below(64) as usize;
            true
        }
    };
    (container(&p, len), must_fail)
}

/// Decode `bytes` as one section with `restore`.
pub(crate) fn decode(
    bytes: &[u8],
    restore: impl FnOnce(&mut Ckpt) -> Result<(), CkptError>,
) -> Result<(), CkptError> {
    let mut r = CkptReader::new(bytes)?;
    Ckpt::Load(&mut r).section(SECTION, restore)
}
