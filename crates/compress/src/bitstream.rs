//! Bit-granular stream writer/reader used by every codec in this crate.
//!
//! Bits are packed MSB-first within each byte, which mirrors how a hardware
//! shifter would serialise variable-length codewords onto a bus and keeps
//! the packed streams byte-comparable across codecs.
//!
//! # Performance
//!
//! Both halves work a machine word at a time instead of bit-by-bit:
//!
//! * [`BitWriter`] stages bits in a 64-bit accumulator and appends them
//!   straight to the caller's `Vec<u8>`: each flush stores the
//!   left-aligned staging word whole (one unconditional 8-byte append)
//!   and truncates back to the completed bytes, so the only branch per
//!   write is the `Vec`'s own capacity check. Encoders that reserve their
//!   output once (bytes needed plus 8 bytes of flush slack) never grow
//!   it, and the engine's per-block loop encodes into its chunk buffer
//!   with no per-block payload allocation.
//! * [`BitReader`] services any `read`/`peek` from a single 16-byte
//!   big-endian window load, so a 64-bit field costs one shift and mask
//!   regardless of alignment.
//! * [`BitWriter::append`] byte-copies the source stream when the writer
//!   is byte-aligned and falls back to 57-bit word chunks otherwise.
//!
//! The hot-path argument checks in [`BitWriter::write`] are
//! `debug_assert!`s: release builds trust the codecs (every call site
//! masks its value to `width` bits), debug builds and the test suite keep
//! the guard rails.

/// Append-only bit writer over a caller-owned byte buffer.
///
/// The stream starts at the buffer's current end; bytes already in it
/// are left untouched. [`finish`](Self::finish) flushes the last partial
/// byte (zero-padded) and returns the stream's bit length, after which
/// the buffer holds exactly the stream's `len_bits.div_ceil(8)` bytes
/// past the old end.
///
/// ```
/// use slc_compress::bitstream::{BitWriter, BitReader};
///
/// let mut bytes = Vec::new();
/// let mut w = BitWriter::new(&mut bytes);
/// w.write(0b101, 3);
/// w.write(0xABCD, 16);
/// let len = w.finish();
/// assert_eq!(len, 19);
/// let mut r = BitReader::new(&bytes, len);
/// assert_eq!(r.read(3), 0b101);
/// assert_eq!(r.read(16), 0xABCD);
/// ```
#[derive(Debug)]
pub struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    /// `out.len()` when the writer was created: where the stream starts.
    start: usize,
    /// Staging word: the low `acc_bits` bits are pending output, MSB-first
    /// (the oldest pending bit is the highest of the `acc_bits`).
    acc: u64,
    /// Number of valid bits in `acc` (always `< 8` between calls).
    acc_bits: u32,
}

impl<'a> BitWriter<'a> {
    /// Creates a writer that appends to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        let start = out.len();
        Self { out, start, acc: 0, acc_bits: 0 }
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> u32 {
        ((self.out.len() - self.start) * 8) as u32 + self.acc_bits
    }

    /// Appends the `width` low-order bits of `value`, MSB first.
    ///
    /// # Invariants
    ///
    /// `width` must be `<= 64` and `value` must fit in `width` bits; both
    /// are checked with `debug_assert!` only, since every codec call site
    /// masks its values. Note that for `width == 64` every `u64` fits, so
    /// the value check applies only to `width < 64` (`(1u64 << 64)` would
    /// overflow — the guard must never be written as a single shift).
    /// Release builds additionally mask in [`push`](Self::push), so a
    /// contract violation corrupts at most its own field, never the
    /// already-staged bits.
    #[inline]
    pub fn write(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64, "width {width} exceeds 64");
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value {value:#x} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        if width > 57 {
            // The staging word can hold at most 7 carried bits + 57 new
            // ones; split wide fields once instead of checking per byte.
            let low = width - 32;
            self.push(value >> low, 32);
            self.push(value, low);
        } else {
            self.push(value, width);
        }
    }

    /// Stages `width <= 57` bits and flushes every complete byte.
    #[inline]
    fn push(&mut self, value: u64, width: u32) {
        // One cheap mask keeps an out-of-contract value from clobbering
        // the staged bits of earlier writes.
        let value = value & (u64::MAX >> (64 - width));
        let total = self.acc_bits + width; // <= 7 + 57 = 64
        let acc = (self.acc << width) | value;
        let keep = total % 8;
        // Append the whole left-aligned staging word unconditionally and
        // cut back to the complete bytes; the slack bytes are rewritten
        // by the next flush.
        let done = self.out.len() + (total / 8) as usize;
        self.out.extend_from_slice(&(acc << (64 - total)).to_be_bytes());
        self.out.truncate(done);
        self.acc = if keep == 0 { 0 } else { acc & ((1u64 << keep) - 1) };
        self.acc_bits = keep;
    }

    /// Appends the first `bits` bits of another packed stream.
    pub fn append(&mut self, bytes: &[u8], bits: u32) {
        debug_assert!(bytes.len() * 8 >= bits as usize);
        if bits == 0 {
            return;
        }
        if self.acc_bits == 0 {
            // Byte-aligned: whole bytes copy verbatim, the tail is staged.
            let whole = (bits / 8) as usize;
            self.out.extend_from_slice(&bytes[..whole]);
            let tail = bits % 8;
            if tail > 0 {
                self.acc = (bytes[whole] >> (8 - tail)) as u64;
                self.acc_bits = tail;
            }
        } else {
            // Misaligned: copy in 56-bit chunks through the normal
            // write path.
            let mut r = BitReader::new(bytes, bits);
            let mut remaining = bits;
            while remaining > 0 {
                let take = remaining.min(56);
                self.write(r.read(take), take);
                remaining -= take;
            }
        }
    }

    /// Flushes the last partial byte (zero-padded) and returns the
    /// stream's length in bits.
    pub fn finish(self) -> u32 {
        let len_bits = self.len_bits();
        if self.acc_bits > 0 {
            self.out.push((self.acc << (8 - self.acc_bits)) as u8);
        }
        len_bits
    }
}

/// Sequential bit reader over a packed stream produced by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    len_bits: u32,
    pos: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`, of which only `len_bits` bits are valid.
    pub fn new(bytes: &'a [u8], len_bits: u32) -> Self {
        debug_assert!(bytes.len() * 8 >= len_bits as usize);
        Self { bytes, len_bits, pos: 0 }
    }

    /// Current read position in bits.
    pub fn position(&self) -> u32 {
        self.pos
    }

    /// Moves the read cursor to an absolute bit offset.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is beyond the valid stream length.
    pub fn seek(&mut self, pos: u32) {
        // slc-lint: allow(assert): corrupt-stream guard, documented and kept in release builds
        assert!(pos <= self.len_bits, "seek to {pos} beyond stream of {} bits", self.len_bits);
        self.pos = pos;
    }

    /// Number of unread bits.
    pub fn remaining(&self) -> u32 {
        self.len_bits - self.pos
    }

    /// Loads `width <= 64` bits starting at bit `pos`; bytes past the end
    /// of the slice read as zero.
    ///
    /// Fast path: `offset + width <= 64` (always true for `width <= 57`)
    /// is one 8-byte big-endian load plus a shift; only wider misaligned
    /// reads pay for a 16-byte window.
    #[inline]
    fn window(&self, pos: u32, width: u32) -> u64 {
        let start = (pos / 8) as usize;
        let offset = pos % 8;
        let span = offset + width;
        if span <= 64 {
            let word = if start + 8 <= self.bytes.len() {
                let mut w = [0u8; 8];
                w.copy_from_slice(&self.bytes[start..start + 8]);
                u64::from_be_bytes(w)
            } else {
                let mut buf = [0u8; 8];
                let avail = self.bytes.len() - start;
                buf[..avail].copy_from_slice(&self.bytes[start..]);
                u64::from_be_bytes(buf)
            };
            let shifted = word >> (64 - span);
            if width == 64 {
                shifted
            } else {
                shifted & ((1u64 << width) - 1)
            }
        } else {
            let mut buf = [0u8; 16];
            let end = self.bytes.len().min(start + 16);
            buf[..end - start].copy_from_slice(&self.bytes[start..end]);
            let window = u128::from_be_bytes(buf);
            // offset <= 7 and width <= 64, so the shift is >= 57 and the
            // result fits in 64 bits after masking.
            let shifted = (window >> (128 - span)) as u64;
            if width == 64 {
                shifted
            } else {
                shifted & ((1u64 << width) - 1)
            }
        }
    }

    /// Reads `width` bits MSB-first.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `width` bits remain (corrupt-stream guard, kept
    /// in release builds).
    pub fn read(&mut self, width: u32) -> u64 {
        // Width is a compile-time constant at every call site; only the
        // remaining-bits check depends on (possibly corrupt) stream data.
        debug_assert!(width <= 64);
        // slc-lint: allow(assert): corrupt-stream guard, documented and kept in release builds
        assert!(
            self.remaining() >= width,
            "read of {width} bits with only {} remaining",
            self.remaining()
        );
        if width == 0 {
            return 0;
        }
        let out = self.window(self.pos, width);
        self.pos += width;
        out
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> bool {
        self.read(1) == 1
    }

    /// Peeks up to `width` bits without advancing, zero-padding past the end.
    ///
    /// This is the lookup-window primitive a table-driven Huffman decoder
    /// uses: near the end of the stream the window is padded with zeros.
    pub fn peek_padded(&self, width: u32) -> u64 {
        // Width is a compile-time constant at every call site.
        debug_assert!(width <= 57, "peek window limited to 57 bits");
        if width == 0 {
            return 0;
        }
        // Bits past `len_bits` must read as zero even when the backing
        // slice carries data there, so load only the valid span and pad.
        let take = width.min(self.remaining());
        if take == 0 {
            return 0;
        }
        self.window(self.pos, take) << (width - take)
    }

    /// Advances the cursor by `width` bits (used together with
    /// [`peek_padded`](Self::peek_padded)).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `width` bits remain.
    pub fn skip(&mut self, width: u32) {
        // slc-lint: allow(assert): corrupt-stream guard, documented and kept in release builds
        assert!(self.remaining() >= width);
        self.pos += width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mask(v: u64, w: u32) -> u64 {
        if w == 64 {
            v
        } else {
            v & ((1u64 << w) - 1)
        }
    }

    /// Packs `fields` into a fresh buffer.
    fn pack(fields: &[(u64, u32)]) -> (Vec<u8>, u32) {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        for &(v, width) in fields {
            w.write(v, width);
        }
        let len = w.finish();
        (bytes, len)
    }

    #[test]
    fn roundtrip_mixed_widths() {
        let (bytes, len) = pack(&[(1, 1), (0, 2), (0b1011, 4), (0xdead_beef, 32), (0x3ff, 10)]);
        assert_eq!(len, 49);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read(1), 1);
        assert_eq!(r.read(2), 0);
        assert_eq!(r.read(4), 0b1011);
        assert_eq!(r.read(32), 0xdead_beef);
        assert_eq!(r.read(10), 0x3ff);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn zero_width_writes_are_noops() {
        let (bytes, len) = pack(&[(0, 0), (0b11, 2), (0, 0)]);
        assert_eq!(len, 2);
        assert_eq!(bytes, vec![0b1100_0000]);
    }

    #[test]
    fn full_width_64_bit_writes_roundtrip() {
        let (bytes, len) = pack(&[(1, 1), (u64::MAX, 64), (0, 64), (0x0123_4567_89ab_cdef, 64)]);
        assert_eq!(len, 193);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read(1), 1);
        assert_eq!(r.read(64), u64::MAX);
        assert_eq!(r.read(64), 0);
        assert_eq!(r.read(64), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn peek_padded_pads_with_zeros() {
        let (bytes, len) = pack(&[(0b1, 1)]);
        let r = BitReader::new(&bytes, len);
        assert_eq!(r.peek_padded(4), 0b1000);
    }

    #[test]
    fn peek_padded_ignores_slack_bytes_past_len() {
        // The backing slice carries set bits beyond len_bits; the padded
        // window must still read them as zero.
        let bytes = [0xffu8, 0xff];
        let r = BitReader::new(&bytes, 3);
        assert_eq!(r.peek_padded(8), 0b1110_0000);
    }

    #[test]
    fn append_concatenates_streams() {
        let (bb, blen) = pack(&[(0x1234, 16)]);
        let mut bytes = Vec::new();
        let mut a = BitWriter::new(&mut bytes);
        a.write(0b101, 3);
        a.append(&bb, blen);
        let len = a.finish();
        assert_eq!(len, 19);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read(3), 0b101);
        assert_eq!(r.read(16), 0x1234);
    }

    #[test]
    fn append_aligned_takes_byte_copy_path() {
        let (bb, blen) = pack(&[(0x12345, 20)]);
        let mut bytes = Vec::new();
        let mut a = BitWriter::new(&mut bytes);
        a.write(0xAB, 8);
        a.append(&bb, blen);
        let len = a.finish();
        assert_eq!(len, 28);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read(8), 0xAB);
        assert_eq!(r.read(20), 0x12345);
    }

    #[test]
    fn seek_rewinds() {
        let (bytes, len) = pack(&[(0xAA, 8)]);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read(8), 0xAA);
        r.seek(4);
        assert_eq!(r.read(4), 0xA);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not fit")]
    fn write_rejects_oversized_value() {
        pack(&[(4, 2)]);
    }

    #[test]
    #[should_panic(expected = "remaining")]
    fn read_past_end_panics() {
        let (bytes, len) = pack(&[(1, 1)]);
        let mut r = BitReader::new(&bytes, len);
        let _ = r.read(2);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(fields in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..64)) {
            let fields: Vec<(u64, u32)> = fields.iter().map(|&(v, w)| (mask(v, w), w)).collect();
            let total: u32 = fields.iter().map(|&(_, w)| w).sum();
            let (bytes, len) = pack(&fields);
            prop_assert_eq!(len, total);
            prop_assert_eq!(bytes.len(), total.div_ceil(8) as usize, "no flush slack survives");
            let mut r = BitReader::new(&bytes, len);
            for (v, width) in fields {
                prop_assert_eq!(r.read(width), v);
            }
        }

        #[test]
        fn prop_peek_matches_read(data in proptest::collection::vec(any::<u8>(), 1..32), win in 1u32..32) {
            let len = (data.len() * 8) as u32;
            let mut r = BitReader::new(&data, len);
            let peeked = r.peek_padded(win.min(57));
            let take = win.min(len);
            let read = r.read(take) << (win - take);
            prop_assert_eq!(peeked, read);
        }

        #[test]
        fn prop_writes_after_a_prefix_leave_it_intact(
            prefix in proptest::collection::vec(any::<u8>(), 1..24),
            fields in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..48),
        ) {
            // A writer appending to a non-empty buffer must leave the
            // existing bytes alone and emit exactly the stream it would
            // write into an empty one.
            let fields: Vec<(u64, u32)> = fields.iter().map(|&(v, w)| (mask(v, w), w)).collect();
            let (expect_bytes, expect_len) = pack(&fields);
            let mut bytes = prefix.clone();
            let mut w = BitWriter::new(&mut bytes);
            for &(v, width) in &fields {
                w.write(v, width);
            }
            prop_assert_eq!(w.len_bits(), expect_len);
            let len = w.finish();
            prop_assert_eq!(len, expect_len);
            prop_assert_eq!(&bytes[..prefix.len()], &prefix[..]);
            prop_assert_eq!(&bytes[prefix.len()..], &expect_bytes[..]);
        }

        #[test]
        fn prop_append_matches_inline_writes(head in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..8),
                                             tail in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..8)) {
            let head: Vec<(u64, u32)> = head.iter().map(|&(v, w)| (mask(v, w), w)).collect();
            let tail: Vec<(u64, u32)> = tail.iter().map(|&(v, w)| (mask(v, w), w)).collect();
            // Reference: everything written inline.
            let (expect_bytes, expect_len) = pack(&[head.clone(), tail.clone()].concat());
            // Candidate: tail serialised separately and appended.
            let (bb, blen) = pack(&tail);
            let mut bytes = Vec::new();
            let mut a = BitWriter::new(&mut bytes);
            for &(v, w) in &head {
                a.write(v, w);
            }
            a.append(&bb, blen);
            let len = a.finish();
            prop_assert_eq!(len, expect_len);
            prop_assert_eq!(bytes, expect_bytes);
        }
    }
}
