//! The workspace's one binary codec: the `nwckpt-v1` checkpoint
//! container, and the headerless payloads of `nwtrace-v1` binary
//! traces and `nwserve-v1` frames.
//!
//! Every scalar is a LEB128 varint (a record tag that must stay one
//! byte is [`Ckpt::u8`]), strings and byte strings are length-prefixed,
//! and malformed input (truncation, varint overflow, trailing bytes,
//! impossible values) is rejected with a [`CkptError`]. A headerless
//! writer or reader ([`CkptWriter::headerless`],
//! [`CkptReader::headerless`]) is exactly that: values, and sections
//! if the caller opens any, with no magic, version or checksum. The
//! `nwckpt-v1` container adds what a checkpoint needs:
//!
//! * **a magic / version header** — `NWCK` and [`VERSION`];
//! * **per-section length framing** — the file is a sequence of
//!   `(section id, byte length, payload)` records, so a reader can
//!   verify each subsystem consumed exactly its own bytes and a
//!   diff tool can align two files section by section;
//! * **a whole-file checksum** — FNV-1a 64 over everything before the
//!   trailing 8 checksum bytes, so a torn or bit-flipped file is
//!   rejected before any section is interpreted.
//!
//! The writer/reader pair here is deliberately dumb: it knows bytes,
//! varints and sections, nothing about machines, traces or frames.
//! [`Ckpt`] drives either of them through one field list: each
//! component, trace body and message defines a single visit next to
//! its fields that both saves and restores. `nwcache-core` owns the
//! checkpoint's section layout; an `nwserve-v1` frame is one section
//! whose id is the message's type tag.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// File magic for `nwckpt` checkpoints.
pub const MAGIC: [u8; 4] = *b"NWCK";
/// Frozen format version. Readers reject anything else.
pub const VERSION: u8 = 1;
/// Size of the trailing FNV-1a 64 checksum.
const CHECKSUM_BYTES: usize = 8;

/// Errors produced while decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The file does not start with the `NWCK` magic.
    BadMagic,
    /// The version byte is not the supported [`VERSION`].
    BadVersion {
        /// Version byte found in the file.
        found: u8,
        /// Version this reader supports.
        expected: u8,
    },
    /// The whole-file checksum does not match the contents.
    BadChecksum {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the body.
        computed: u64,
    },
    /// The input ended before a read completed.
    Truncated {
        /// Bytes the read wanted.
        wanted: usize,
        /// Offset at which the read started.
        offset: usize,
    },
    /// A varint ran past 64 bits.
    VarintOverflow {
        /// Offset of the offending varint.
        offset: usize,
    },
    /// A section header named an unexpected section id.
    SectionMismatch {
        /// Section id the reader expected.
        expected: u32,
        /// Section id found in the file.
        found: u32,
        /// Offset of the section header.
        offset: usize,
    },
    /// A section's payload length overruns the file body, or a reader
    /// crossed the end of the section it was decoding.
    SectionOverrun {
        /// Id of the offending section.
        section: u32,
        /// Offset where the overrun was detected.
        offset: usize,
    },
    /// A section reader finished with payload bytes left over, or the
    /// file has bytes after the last section.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        offset: usize,
    },
    /// A decoded value is structurally impossible (bad enum tag,
    /// count mismatch, ...).
    Invalid {
        /// Offset just after the offending value.
        offset: usize,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not an nwckpt file (bad magic)"),
            CkptError::BadVersion { found, expected } => {
                write!(f, "unsupported nwckpt version {found} (expected {expected})")
            }
            CkptError::BadChecksum { stored, computed } => write!(
                f,
                "checksum mismatch: file says {stored:#018x}, contents hash to {computed:#018x}"
            ),
            CkptError::Truncated { wanted, offset } => {
                write!(f, "input ends early: wanted {wanted} bytes at offset {offset}")
            }
            CkptError::VarintOverflow { offset } => {
                write!(f, "varint overflow at offset {offset}")
            }
            CkptError::SectionMismatch {
                expected,
                found,
                offset,
            } => write!(
                f,
                "expected section {expected}, found section {found} at offset {offset}"
            ),
            CkptError::SectionOverrun { section, offset } => {
                write!(f, "section {section} overruns its frame at offset {offset}")
            }
            CkptError::TrailingBytes { offset } => {
                write!(f, "unconsumed bytes starting at offset {offset}")
            }
            CkptError::Invalid { offset, what } => {
                write!(f, "invalid data at offset {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializer for an `nwckpt-v1` file or a headerless payload.
///
/// In a checkpoint all data lives inside sections: open one with
/// [`begin_section`](CkptWriter::begin_section), emit values, close it
/// with [`end_section`](CkptWriter::end_section), and call
/// [`finish`](CkptWriter::finish) to obtain the checksummed bytes.
#[derive(Debug)]
pub struct CkptWriter {
    buf: Vec<u8>,
    section: Option<u32>,
    payload: Vec<u8>,
    /// A checkpoint: header written, checksum appended at `finish`,
    /// values only inside sections.
    container: bool,
}

impl Default for CkptWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl CkptWriter {
    /// A checkpoint writer with the magic/version header already
    /// emitted.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        CkptWriter {
            buf,
            section: None,
            payload: Vec::new(),
            container: true,
        }
    }

    /// A writer of a bare payload: no magic, version or checksum, and
    /// values may stand outside sections. [`finish`](Self::finish)
    /// returns exactly what was written.
    pub fn headerless() -> Self {
        CkptWriter {
            buf: Vec::new(),
            section: None,
            payload: Vec::new(),
            container: false,
        }
    }

    /// Open section `id`. Panics if a section is already open —
    /// sections never nest.
    pub fn begin_section(&mut self, id: u32) {
        assert!(self.section.is_none(), "section {id} opened inside another");
        self.section = Some(id);
        self.payload.clear();
    }

    /// Close the open section, framing its payload with id + length.
    pub fn end_section(&mut self) {
        let id = self.section.take().expect("no section open");
        put_varint(&mut self.buf, id as u64);
        put_varint(&mut self.buf, self.payload.len() as u64);
        self.buf.extend_from_slice(&self.payload);
    }

    fn out(&mut self) -> &mut Vec<u8> {
        if self.section.is_some() {
            return &mut self.payload;
        }
        assert!(!self.container, "checkpoint value outside a section");
        &mut self.buf
    }

    /// Emit one raw byte: a record tag that must stay one byte.
    pub fn u8(&mut self, v: u8) {
        self.out().push(v);
    }

    /// Emit bytes as they are, with no length prefix (a format's own
    /// magic).
    pub fn raw(&mut self, v: &[u8]) {
        self.out().extend_from_slice(v);
    }

    /// Emit a `u64` as a LEB128 varint.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        let out = self.out();
        put_varint(out, v);
    }

    /// Emit a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.u64(v as u64);
    }

    /// Emit a `usize`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Emit a `bool` as one varint (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u64(v as u64);
    }

    /// Emit an `f64` via its IEEE-754 bit pattern (bit-exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Emit a `u128` as two `u64` halves (low, high).
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// Emit a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.raw(v);
    }

    /// Emit a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// The complete byte image: a checkpoint is sealed with its
    /// FNV-1a 64 checksum, a headerless payload returned as written.
    pub fn finish(self) -> Vec<u8> {
        assert!(self.section.is_none(), "unfinished section at finish()");
        let mut buf = self.buf;
        if self.container {
            let sum = fnv1a(&buf);
            buf.extend_from_slice(&sum.to_le_bytes());
        }
        buf
    }
}

/// Deserializer for an `nwckpt-v1` file or a headerless payload.
///
/// [`new`](CkptReader::new) verifies magic, version and checksum;
/// sections are then consumed in order with
/// [`begin_section`](CkptReader::begin_section) /
/// [`end_section`](CkptReader::end_section), and
/// [`finish`](CkptReader::finish) asserts nothing is left over.
#[derive(Debug)]
pub struct CkptReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// End of the file body (start of the trailing checksum).
    body_end: usize,
    /// End of the open section's payload; `body_end` outside sections.
    limit: usize,
    section: Option<u32>,
}

impl<'a> CkptReader<'a> {
    /// Validate the container (magic, version, checksum) and position
    /// the reader at the first section.
    pub fn new(buf: &'a [u8]) -> Result<Self, CkptError> {
        if buf.len() < MAGIC.len() + 1 + CHECKSUM_BYTES {
            return Err(CkptError::Truncated {
                wanted: MAGIC.len() + 1 + CHECKSUM_BYTES,
                offset: 0,
            });
        }
        if buf[..4] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = buf[4];
        if version != VERSION {
            return Err(CkptError::BadVersion {
                found: version,
                expected: VERSION,
            });
        }
        let body_end = buf.len() - CHECKSUM_BYTES;
        let stored = u64::from_le_bytes(buf[body_end..].try_into().expect("8 bytes"));
        let computed = fnv1a(&buf[..body_end]);
        if stored != computed {
            return Err(CkptError::BadChecksum { stored, computed });
        }
        Ok(CkptReader {
            buf,
            pos: MAGIC.len() + 1,
            body_end,
            limit: body_end,
            section: None,
        })
    }

    /// A reader of a bare payload: every byte of `buf` is data, read
    /// from offset 0, with no header or checksum to verify.
    pub fn headerless(buf: &'a [u8]) -> Self {
        CkptReader {
            buf,
            pos: 0,
            body_end: buf.len(),
            limit: buf.len(),
            section: None,
        }
    }

    /// Current byte offset (for error context).
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if n > self.limit - self.pos {
            return Err(if self.limit == self.body_end {
                CkptError::Truncated {
                    wanted: n,
                    offset: self.pos,
                }
            } else {
                CkptError::SectionOverrun {
                    section: self.section.unwrap_or(0),
                    offset: self.pos,
                }
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read `n` bytes as they are (a format's own magic).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        self.take(n)
    }

    /// Read one raw byte.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Read a LEB128 varint. Running out of bytes inside a section is a
    /// [`CkptError::SectionOverrun`], outside one a truncation.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        read_varint(&self.buf[..self.limit], &mut self.pos).map_err(|e| match e {
            CkptError::Truncated { .. } if self.limit != self.body_end => CkptError::SectionOverrun {
                section: self.section.unwrap_or(0),
                offset: self.pos,
            },
            e => e,
        })
    }

    /// Read a `u32`, rejecting values that do not fit.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| CkptError::Invalid {
            offset: self.pos,
            what: format!("u32 out of range: {v}"),
        })
    }

    /// Read a `usize`.
    pub fn usize(&mut self) -> Result<usize, CkptError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CkptError::Invalid {
            offset: self.pos,
            what: format!("usize out of range: {v}"),
        })
    }

    /// Read a `bool` (0/1).
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CkptError::Invalid {
                offset: self.pos,
                what: format!("bool tag {v}"),
            }),
        }
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u128` from two `u64` halves.
    pub fn u128(&mut self) -> Result<u128, CkptError> {
        let lo = self.u64()? as u128;
        let hi = self.u64()? as u128;
        Ok(lo | (hi << 64))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CkptError> {
        let start = self.pos;
        let raw = self.bytes()?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| CkptError::Invalid {
                offset: start,
                what: "string is not UTF-8".into(),
            })
    }

    /// Open the next section, requiring its id to be `expect`.
    pub fn begin_section(&mut self, expect: u32) -> Result<(), CkptError> {
        assert!(self.section.is_none(), "section {expect} opened inside another");
        let offset = self.pos;
        let id = self.u32()?;
        if id != expect {
            return Err(CkptError::SectionMismatch {
                expected: expect,
                found: id,
                offset,
            });
        }
        let len = self.usize()?;
        if len > self.body_end - self.pos {
            return Err(CkptError::SectionOverrun {
                section: id,
                offset: self.pos,
            });
        }
        self.section = Some(id);
        self.limit = self.pos + len;
        Ok(())
    }

    /// Close the open section, requiring its payload to be exactly
    /// consumed.
    pub fn end_section(&mut self) -> Result<(), CkptError> {
        self.section.take().expect("no section open");
        if self.pos != self.limit {
            return Err(CkptError::TrailingBytes { offset: self.pos });
        }
        self.limit = self.body_end;
        Ok(())
    }

    /// Bytes remaining in the open section's payload, or in the whole
    /// input outside a section. Formats that append optional trailing
    /// fields to a section (newer writers only emit them when
    /// non-default) use this to decide whether to consume them — old
    /// checkpoints simply have none left.
    pub fn remaining(&self) -> usize {
        self.limit - self.pos
    }

    /// Discard the rest of the open section's payload: how a reader
    /// drops a section whose contents nothing uses any more.
    pub fn skip_rest(&mut self) {
        assert!(self.section.is_some(), "skip_rest outside a section");
        self.pos = self.limit;
    }

    /// Read the next raw section header + payload without interpreting
    /// it (used by the structural validator and the diff tool).
    /// Returns `None` at the end of the body.
    pub fn next_raw_section(&mut self) -> Result<Option<(u32, &'a [u8])>, CkptError> {
        assert!(self.section.is_none(), "raw scan inside a section");
        if self.pos == self.body_end {
            return Ok(None);
        }
        let id = self.u32()?;
        let len = self.usize()?;
        if len > self.body_end - self.pos {
            return Err(CkptError::SectionOverrun {
                section: id,
                offset: self.pos,
            });
        }
        let payload = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(Some((id, payload)))
    }

    /// Assert the whole body was consumed.
    pub fn finish(self) -> Result<(), CkptError> {
        assert!(self.section.is_none(), "unfinished section at finish()");
        if self.pos != self.body_end {
            return Err(CkptError::TrailingBytes { offset: self.pos });
        }
        Ok(())
    }
}

/// One pass over a component's checkpointed state, in either
/// direction. A component lists its fields once, in
/// `fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError>`: on
/// [`Ckpt::Save`] every call writes its field, on [`Ckpt::Load`] it
/// overwrites the field from the file, so the two directions cannot
/// drift apart. Saving borrows the state `&mut` only because both
/// directions walk the same list; it never changes a value and never
/// fails.
#[derive(Debug)]
pub enum Ckpt<'a, 'b> {
    /// Write every field.
    Save(&'a mut CkptWriter),
    /// Overwrite every field from the file.
    Load(&'a mut CkptReader<'b>),
}

macro_rules! scalars {
    ($($name:ident),*) => {$(
        #[doc = concat!("A `", stringify!($name), "` field.")]
        #[inline]
        pub fn $name(&mut self, v: &mut $name) -> Result<(), CkptError> {
            match self {
                Ckpt::Save(w) => w.$name(*v),
                Ckpt::Load(r) => *v = r.$name()?,
            }
            Ok(())
        }
    )*};
}

impl Ckpt<'_, '_> {
    scalars!(u64, u32, usize, bool, f64, u128, u8);

    /// A UTF-8 string field.
    pub fn str(&mut self, v: &mut String) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.str(v),
            Ckpt::Load(r) => *v = r.str()?,
        }
        Ok(())
    }

    /// Whether this pass overwrites the fields it visits.
    pub fn loading(&self) -> bool {
        matches!(self, Ckpt::Load(_))
    }

    /// Input bytes left in the open section (or outside one, the
    /// whole input) while loading; 0 while saving.
    pub fn remaining(&self) -> usize {
        match self {
            Ckpt::Save(_) => 0,
            Ckpt::Load(r) => r.remaining(),
        }
    }

    /// A [`CkptError::Invalid`] at the current read offset.
    pub fn invalid(&self, what: impl Into<String>) -> CkptError {
        CkptError::Invalid {
            offset: match self {
                Ckpt::Save(_) => 0,
                Ckpt::Load(r) => r.offset(),
            },
            what: what.into(),
        }
    }

    /// Section `id`, holding exactly what `f` visits.
    pub fn section(
        &mut self,
        id: u32,
        f: impl FnOnce(&mut Self) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        match self {
            Ckpt::Save(w) => w.begin_section(id),
            Ckpt::Load(r) => r.begin_section(id)?,
        }
        f(self)?;
        match self {
            Ckpt::Save(w) => w.end_section(),
            Ckpt::Load(r) => r.end_section()?,
        }
        Ok(())
    }

    /// A fixed-geometry slice: its length, then every item. The
    /// receiver's length is construction config, so a restore must
    /// find exactly that many.
    pub fn each<T>(
        &mut self,
        items: &mut [T],
        what: &str,
        mut f: impl FnMut(&mut Self, &mut T) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        let mut n = items.len();
        self.usize(&mut n)?;
        if n != items.len() {
            return Err(self.invalid(format!("checkpoint has {n} {what}, machine has {}", items.len())));
        }
        items.iter_mut().try_for_each(|t| f(self, t))
    }

    /// A sequence of at most `max` items, each taking at least
    /// `min_bytes` (>= 1) of the file: its length, then every item in
    /// order. A restore rejects a longer sequence and reserves room
    /// only for as many items as the section's bytes can hold.
    pub fn list<S, T>(
        &mut self,
        seq: &mut S,
        max: usize,
        min_bytes: usize,
        what: &str,
        mut f: impl FnMut(&mut Self, &mut T) -> Result<(), CkptError>,
    ) -> Result<(), CkptError>
    where
        S: Default + From<Vec<T>>,
        Vec<T>: From<S>,
        for<'x> &'x mut S: IntoIterator<Item = &'x mut T>,
        T: Default,
    {
        let mut n = (&mut *seq).into_iter().count();
        self.usize(&mut n)?;
        if !self.loading() {
            return seq.into_iter().try_for_each(|t| f(self, t));
        }
        if n > max {
            return Err(self.invalid(format!("{n} {what} exceed the capacity of {max}")));
        }
        // Refill the receiver's own buffer, keeping its capacity.
        let mut items = Vec::from(std::mem::take(seq));
        items.clear();
        items.reserve(capped(n, self.remaining(), min_bytes));
        for _ in 0..n {
            let mut t = T::default();
            f(self, &mut t)?;
            items.push(t);
        }
        *seq = S::from(items);
        Ok(())
    }

    /// A hash map, saved in ascending key order so equal maps save to
    /// equal bytes. A restore rejects a repeated key.
    pub fn map<K, V>(
        &mut self,
        m: &mut HashMap<K, V>,
        what: &str,
        mut f: impl FnMut(&mut Self, &mut K, &mut V) -> Result<(), CkptError>,
    ) -> Result<(), CkptError>
    where
        K: Copy + Ord + Hash + Debug + Default,
        V: Default,
    {
        let mut keys: Vec<K> = m.keys().copied().collect();
        keys.sort_unstable();
        let mut n = keys.len();
        self.usize(&mut n)?;
        if !self.loading() {
            return keys.into_iter().try_for_each(|k| {
                let v = m.get_mut(&k).expect("listed key");
                f(self, &mut { k }, v)
            });
        }
        m.clear();
        for _ in 0..n {
            let (mut k, mut v) = (K::default(), V::default());
            f(self, &mut k, &mut v)?;
            if m.insert(k, v).is_some() {
                return Err(self.invalid(format!("{what} repeats key {k:?}")));
            }
        }
        Ok(())
    }

    /// A field-less enum value, saved as its index in `variants`.
    pub fn choice<T: Copy + PartialEq>(
        &mut self,
        v: &mut T,
        variants: &[T],
        what: &str,
    ) -> Result<(), CkptError> {
        let tag = match self {
            Ckpt::Save(_) => variants.iter().position(|x| x == v).expect("value is a listed variant") as u32,
            Ckpt::Load(_) => 0,
        };
        self.variant(v, tag, |tag| variants.get(tag as usize).copied(), what)?;
        Ok(())
    }

    /// The `tag` of an enum whose variants carry fields; the caller
    /// then visits the fields of whatever variant `v` holds. A restore
    /// replaces `v` with `blank(tag)`, the variant with zeroed fields.
    /// Returns the tag saved or read.
    pub fn variant<T>(
        &mut self,
        v: &mut T,
        tag: u32,
        blank: impl FnOnce(u32) -> Option<T>,
        what: &str,
    ) -> Result<u32, CkptError> {
        let mut tag = tag;
        self.u32(&mut tag)?;
        if self.loading() {
            *v = blank(tag).ok_or_else(|| self.invalid(format!("unknown {what} tag {tag}")))?;
        }
        Ok(tag)
    }

    /// An optional value: a presence flag, then the value itself. A
    /// restore hands `f` the `blank` to overwrite.
    pub fn opt<T>(
        &mut self,
        v: &mut Option<T>,
        blank: T,
        f: impl FnOnce(&mut Self, &mut T) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        let mut some = v.is_some();
        self.bool(&mut some)?;
        if self.loading() {
            *v = some.then_some(blank);
        }
        match v {
            Some(x) => f(self, x),
            None => Ok(()),
        }
    }
}

/// How many of `count` declared items to reserve room for, when each
/// takes at least `min_bytes` of the `remaining` input: a corrupt
/// count can make a decoder fail, never over-allocate.
pub fn capped(count: usize, remaining: usize, min_bytes: usize) -> usize {
    count.min(remaining / min_bytes)
}

/// LEB128-encode `v` into `out`.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Decode one LEB128 varint from `buf` starting at `*pos`, advancing
/// `*pos`. Standalone helper for tools that walk raw section payloads
/// (the checkpoint diff) without a full [`CkptReader`].
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CkptError> {
    let start = *pos;
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if *pos >= buf.len() {
            return Err(CkptError::Truncated {
                wanted: 1,
                offset: *pos,
            });
        }
        let byte = buf[*pos];
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CkptError::VarintOverflow { offset: start });
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

pub use crate::atomic_write::write_atomic;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.begin_section(1);
        w.u64(0);
        w.u64(300);
        w.u128(u128::MAX - 5);
        w.f64(0.25);
        w.str("hello");
        w.end_section();
        w.begin_section(2);
        w.bool(true);
        w.end_section();
        w.finish()
    }

    #[test]
    fn round_trip() {
        let bytes = sample();
        let mut r = CkptReader::new(&bytes).unwrap();
        r.begin_section(1).unwrap();
        assert_eq!(r.u64().unwrap(), 0);
        assert_eq!(r.u64().unwrap(), 300);
        assert_eq!(r.u128().unwrap(), u128::MAX - 5);
        assert_eq!(r.f64().unwrap(), 0.25);
        assert_eq!(r.str().unwrap(), "hello");
        r.end_section().unwrap();
        r.begin_section(2).unwrap();
        assert!(r.bool().unwrap());
        r.end_section().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert_eq!(CkptReader::new(&bytes).unwrap_err(), CkptError::BadMagic);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut w = CkptWriter::new();
        w.begin_section(1);
        w.u64(9);
        w.end_section();
        let mut bytes = w.finish();
        // Patch the version byte and re-seal the checksum so only the
        // version check can fire.
        bytes[4] = 99;
        let body_end = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            CkptReader::new(&bytes).unwrap_err(),
            CkptError::BadVersion {
                found: 99,
                expected: VERSION
            }
        );
    }

    #[test]
    fn rejects_bit_flip_via_checksum() {
        let mut bytes = sample();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            CkptReader::new(&bytes).unwrap_err(),
            CkptError::BadChecksum { .. }
        ));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = sample();
        for cut in [0, 3, 5, bytes.len() - 9, bytes.len() - 1] {
            let err = CkptReader::new(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CkptError::Truncated { .. } | CkptError::BadChecksum { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_section_mismatch_and_overrun() {
        let bytes = sample();
        let mut r = CkptReader::new(&bytes).unwrap();
        assert!(matches!(
            r.begin_section(7).unwrap_err(),
            CkptError::SectionMismatch {
                expected: 7,
                found: 1,
                ..
            }
        ));
        // Under-consuming a section is caught at end_section.
        let mut r = CkptReader::new(&bytes).unwrap();
        r.begin_section(1).unwrap();
        assert!(matches!(
            r.end_section().unwrap_err(),
            CkptError::TrailingBytes { .. }
        ));
        // Over-consuming is caught as a section overrun.
        let mut r = CkptReader::new(&bytes).unwrap();
        r.begin_section(2).unwrap_err(); // wrong id, section 1 is first
    }

    #[test]
    fn lengths_near_u64_max_are_errors_not_overflows() {
        // A string length, then a section length, of u64::MAX.
        let mut w = CkptWriter::new();
        w.begin_section(1);
        w.u64(u64::MAX);
        w.end_section();
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        r.begin_section(1).unwrap();
        assert!(r.str().is_err());

        let mut body = MAGIC.to_vec();
        body.push(VERSION);
        put_varint(&mut body, 1);
        put_varint(&mut body, u64::MAX);
        let sum = fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        let overrun = |e| matches!(e, Err(CkptError::SectionOverrun { .. }));
        assert!(overrun(CkptReader::new(&body).unwrap().begin_section(1)));
        let mut r = CkptReader::new(&body).unwrap();
        assert!(overrun(r.next_raw_section().map(|_| ())));
    }

    #[test]
    fn raw_section_scan_sees_all_sections() {
        let bytes = sample();
        let mut r = CkptReader::new(&bytes).unwrap();
        let (id1, p1) = r.next_raw_section().unwrap().unwrap();
        let (id2, p2) = r.next_raw_section().unwrap().unwrap();
        assert_eq!((id1, id2), (1, 2));
        assert!(!p1.is_empty() && !p2.is_empty());
        assert_eq!(r.next_raw_section().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn varint_overflow_rejected() {
        let mut w = CkptWriter::new();
        w.begin_section(1);
        w.end_section();
        let mut bytes = w.finish();
        // Replace the (empty) section with a 10-byte varint of all
        // continuation bits — overflow. Rebuild: header + section id 1,
        // len 10, payload, checksum.
        bytes.truncate(5);
        put_varint(&mut bytes, 1);
        put_varint(&mut bytes, 10);
        bytes.extend_from_slice(&[0xff; 10]);
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        let mut r = CkptReader::new(&bytes).unwrap();
        r.begin_section(1).unwrap();
        assert!(matches!(
            r.u64().unwrap_err(),
            CkptError::VarintOverflow { .. }
        ));
    }

    type Res = Result<(), CkptError>;

    /// A container whose section 1 holds what `f` saves.
    fn save(f: impl FnOnce(&mut Ckpt) -> Res) -> Vec<u8> {
        let mut w = CkptWriter::new();
        Ckpt::Save(&mut w).section(1, f).expect("saving cannot fail");
        w.finish()
    }

    /// Load section 1 of `bytes` with `f`, requiring it to consume
    /// the whole file.
    fn load(bytes: &[u8], f: impl FnOnce(&mut Ckpt) -> Res) -> Res {
        let mut r = CkptReader::new(bytes)?;
        Ckpt::Load(&mut r).section(1, f)?;
        r.finish()
    }

    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    enum Color {
        #[default]
        Red,
        Blue,
    }

    #[derive(Debug, Default, PartialEq)]
    struct Sample {
        n: u64,
        id: u32,
        len: usize,
        flag: bool,
        ratio: f64,
        wide: u128,
        name: String,
        peak: Option<u64>,
        fixed: Vec<u64>,
        queue: std::collections::VecDeque<(u32, u64)>,
        index: HashMap<u64, u32>,
        color: Color,
    }

    impl Sample {
        fn ckpt(&mut self, c: &mut Ckpt) -> Res {
            c.u64(&mut self.n)?;
            c.u32(&mut self.id)?;
            c.usize(&mut self.len)?;
            c.bool(&mut self.flag)?;
            c.f64(&mut self.ratio)?;
            c.u128(&mut self.wide)?;
            c.str(&mut self.name)?;
            c.opt(&mut self.peak, 0, Ckpt::u64)?;
            c.each(&mut self.fixed, "fixed slots", Ckpt::u64)?;
            c.list(&mut self.queue, 4, 2, "queued pairs", |c, (a, b)| {
                c.u32(a)?;
                c.u64(b)
            })?;
            c.map(&mut self.index, "index", |c, k, v| {
                c.u64(k)?;
                c.u32(v)
            })?;
            c.choice(&mut self.color, &[Color::Red, Color::Blue], "color")
        }
    }

    fn blank() -> Sample {
        Sample {
            fixed: vec![0; 3],
            ..Sample::default()
        }
    }

    #[test]
    fn ckpt_helpers_round_trip() {
        let mut a = Sample {
            n: u64::MAX,
            id: 7,
            len: 300,
            flag: true,
            ratio: 0.25,
            wide: u128::MAX - 5,
            name: "hello".into(),
            peak: Some(9),
            fixed: vec![1, 2, 3],
            queue: [(1, 10), (2, 20)].into(),
            index: [(5, 50), (1, 10), (3, 30)].into(),
            color: Color::Blue,
        };
        let bytes = save(|c| a.ckpt(c));
        let mut b = blank();
        b.peak = Some(1);
        b.queue.push_back((9, 9));
        b.index.insert(8, 8);
        load(&bytes, |c| b.ckpt(c)).expect("round trip");
        assert_eq!(a, b);
        assert_eq!(save(|c| b.ckpt(c)), bytes);
        // Maps save in key order, whatever their insertion order.
        let mut c = blank();
        c.index = [(3, 30), (1, 10), (5, 50)].into();
        let mut d = blank();
        d.index = [(1, 10), (5, 50), (3, 30)].into();
        assert_eq!(save(|k| c.ckpt(k)), save(|k| d.ckpt(k)));
    }

    fn invalid(res: Res, needle: &str) {
        match res {
            Err(CkptError::Invalid { what, .. }) => assert!(what.contains(needle), "{what}"),
            other => panic!("expected Invalid({needle}), got {other:?}"),
        }
    }

    #[test]
    fn each_rejects_a_count_mismatch() {
        let bytes = save(|c| c.each(&mut [1u64, 2], "slots", Ckpt::u64));
        let mut three = [0u64; 3];
        invalid(load(&bytes, |c| c.each(&mut three, "slots", Ckpt::u64)), "2 slots, machine has 3");
        let mut two = [0u64; 2];
        load(&bytes, |c| c.each(&mut two, "slots", Ckpt::u64)).expect("same geometry");
        assert_eq!(two, [1, 2]);
    }

    #[test]
    fn list_rejects_too_long_and_reserves_nothing_for_a_huge_count() {
        let bytes = save(|c| c.list(&mut vec![1u64, 2, 3], usize::MAX, 1, "items", Ckpt::u64));
        let mut v: Vec<u64> = Vec::new();
        invalid(load(&bytes, |c| c.list(&mut v, 2, 1, "items", Ckpt::u64)), "3 items exceed the capacity of 2");
        load(&bytes, |c| c.list(&mut v, 3, 1, "items", Ckpt::u64)).expect("within bound");
        assert_eq!(v, [1, 2, 3]);
        // A 2^40 count in a section holding nothing else: the decode
        // runs out of bytes instead of first reserving 2^40 entries.
        let bytes = save(|c| c.usize(&mut (1 << 40)));
        let mut v: Vec<u128> = Vec::new();
        let res = load(&bytes, |c| c.list(&mut v, usize::MAX, 1, "items", Ckpt::u128));
        assert!(matches!(res, Err(CkptError::Truncated { .. })), "{res:?}");
        assert!(v.is_empty());
    }

    #[test]
    fn map_rejects_a_repeated_key() {
        // Two entries with key 4, written by hand.
        let bytes = save(|c| {
            for mut v in [2u64, 4, 40, 4, 41] {
                c.u64(&mut v)?;
            }
            Ok(())
        });
        let mut m: HashMap<u64, u64> = HashMap::new();
        let res = load(&bytes, |c| {
            c.map(&mut m, "pages", |c, k, v| {
                c.u64(k)?;
                c.u64(v)
            })
        });
        invalid(res, "pages repeats key 4");
    }

    #[test]
    fn choice_rejects_an_unknown_tag() {
        let variants = [Color::Red, Color::Blue];
        let bytes = save(|c| c.u32(&mut 2));
        let mut v = Color::Red;
        invalid(load(&bytes, |c| c.choice(&mut v, &variants, "color")), "unknown color tag 2");
        let bytes = save(|c| c.u32(&mut 1));
        load(&bytes, |c| c.choice(&mut v, &variants, "color")).expect("known tag");
        assert_eq!(v, Color::Blue);
    }

    #[test]
    fn headerless_payload_is_exactly_its_values() {
        let mut w = CkptWriter::headerless();
        w.raw(b"AB");
        w.u8(0xfe);
        w.u64(300);
        w.begin_section(7);
        w.str("hi");
        w.end_section();
        let bytes = w.finish();
        assert_eq!(bytes, [b'A', b'B', 0xfe, 0xac, 0x02, 7, 3, 2, b'h', b'i']);
        let mut r = CkptReader::headerless(&bytes);
        assert_eq!(r.raw(2).unwrap(), b"AB");
        assert_eq!(r.u8().unwrap(), 0xfe);
        assert_eq!(r.u64().unwrap(), 300);
        assert_eq!(r.remaining(), 5);
        r.begin_section(7).unwrap();
        assert_eq!(r.str().unwrap(), "hi");
        r.end_section().unwrap();
        r.finish().unwrap();
        // Running out is a truncation, and unread bytes are trailing.
        let mut r = CkptReader::headerless(&bytes[..3]);
        r.raw(3).unwrap();
        assert!(matches!(r.u64(), Err(CkptError::Truncated { offset: 3, .. })));
        let mut r = CkptReader::headerless(&bytes);
        r.raw(2).unwrap();
        assert_eq!(r.finish(), Err(CkptError::TrailingBytes { offset: 2 }));
    }

    #[test]
    fn standalone_varint_helpers_agree() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

}
