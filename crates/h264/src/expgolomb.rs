//! Bit-level I/O and Exp-Golomb entropy codes.
//!
//! H.264 headers use unsigned (`ue`) and signed (`se`) Exp-Golomb codes;
//! the paper's "Variable Length Decoder" block is this module.

use crate::CodecError;

/// MSB-first bit writer.
///
/// # Example
///
/// ```
/// use h264::expgolomb::{BitReader, BitWriter};
/// # fn main() -> Result<(), h264::CodecError> {
/// let mut w = BitWriter::new();
/// w.write_ue(5);
/// w.write_se(-3);
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_ue()?, 5);
/// assert_eq!(r.read_se()?, -3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_pos: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the lowest `n` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics when `n > 32`.
    pub fn write_bits(&mut self, value: u32, n: u8) {
        assert!(n <= 32, "at most 32 bits per call");
        for i in (0..n).rev() {
            let bit = (value >> i) & 1;
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.len() - 1;
            self.bytes[last] |= (bit as u8) << (7 - self.bit_pos);
            self.bit_pos = (self.bit_pos + 1) % 8;
        }
    }

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u32::from(bit), 1);
    }

    /// Writes an unsigned Exp-Golomb code.
    pub fn write_ue(&mut self, value: u32) {
        let code = value + 1;
        let len = 32 - code.leading_zeros() as u8; // bits in code
        self.write_bits(0, len - 1); // prefix zeros
        self.write_bits(code, len);
    }

    /// Writes a signed Exp-Golomb code (H.264 mapping:
    /// `k>0 → 2k-1`, `k<=0 → -2k`).
    pub fn write_se(&mut self, value: i32) {
        let mapped = if value > 0 {
            (value as u32) * 2 - 1
        } else {
            (-value as u32) * 2
        };
        self.write_ue(mapped);
    }

    /// Pads with zero bits to the next byte boundary and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.bit_pos == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.bit_pos as usize
        }
    }
}

/// MSB-first bit reader with a consumed-bit counter (the parser's activity
/// metric).
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bits consumed so far.
    pub fn bits_read(&self) -> usize {
        self.pos
    }

    /// Bits left to read.
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BitstreamExhausted`] at end of data, carrying
    /// the bit position where the stream ran dry — reads past the end are
    /// always a typed error, never silent zero-fill.
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        if self.pos >= self.bytes.len() * 8 {
            return Err(CodecError::BitstreamExhausted { bit_pos: self.pos });
        }
        let byte = self.bytes[self.pos / 8];
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    /// Reads `n` bits MSB-first.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BitstreamExhausted`] when fewer remain.
    pub fn read_bits(&mut self, n: u8) -> Result<u32, CodecError> {
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | u32::from(self.read_bit()?);
        }
        Ok(v)
    }

    /// Reads an unsigned Exp-Golomb code.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BitstreamExhausted`] on truncation and
    /// [`CodecError::InvalidSyntax`] for a prefix longer than 31 bits.
    pub fn read_ue(&mut self) -> Result<u32, CodecError> {
        // Word at a time: with eight bytes readable from the current byte,
        // the window holds at least 57 unread bits, so a code with at most
        // 28 prefix zeros (2z + 1 <= 57 bits) lies wholly inside it.
        if let Some(word) = self.bytes[self.pos / 8..].first_chunk::<8>() {
            let window = u64::from_be_bytes(*word) << (self.pos % 8);
            let zeros = window.leading_zeros();
            if zeros <= 28 {
                let len = 2 * zeros + 1;
                self.pos += len as usize;
                return Ok((window >> (64 - len)) as u32 - 1);
            }
        }
        // Bit at a time near the end of the data and for longer prefixes,
        // which also yields the exact truncation and prefix errors.
        let mut zeros = 0u8;
        while !self.read_bit()? {
            zeros += 1;
            if zeros > 31 {
                return Err(CodecError::InvalidSyntax("exp-golomb prefix too long"));
            }
        }
        let suffix = self.read_bits(zeros)?;
        Ok((1u32 << zeros) - 1 + suffix)
    }

    /// Reads a signed Exp-Golomb code.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BitReader::read_ue`].
    pub fn read_se(&mut self) -> Result<i32, CodecError> {
        let v = self.read_ue()?;
        if v % 2 == 1 {
            Ok(v.div_ceil(2) as i32)
        } else {
            Ok(-((v / 2) as i32))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ue_round_trip_small_and_large() {
        let values = [0u32, 1, 2, 3, 7, 8, 100, 1023, 65_535];
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_ue(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_ue().unwrap(), v);
        }
    }

    #[test]
    fn se_round_trip() {
        let values = [0i32, 1, -1, 2, -2, 17, -100, 4000, -4000];
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_se(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_se().unwrap(), v);
        }
    }

    #[test]
    fn canonical_ue_encodings() {
        // ue(0) = "1", ue(1) = "010", ue(2) = "011".
        let mut w = BitWriter::new();
        w.write_ue(0);
        w.write_ue(1);
        w.write_ue(2);
        // bits: 1 010 011 -> 1010011x -> 0xA6 with trailing zero padding
        assert_eq!(w.into_bytes(), vec![0b1010_0110]);
    }

    #[test]
    fn raw_bits_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0xFF, 8);
        w.write_bit(true);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bit().unwrap());
    }

    #[test]
    fn truncated_stream_detected() {
        let mut r = BitReader::new(&[0b0000_0000]); // all prefix zeros
        assert!(r.read_ue().is_err());
        let mut r = BitReader::new(&[]);
        assert_eq!(
            r.read_bit(),
            Err(CodecError::BitstreamExhausted { bit_pos: 0 })
        );
    }

    #[test]
    fn exhaustion_at_exact_byte_boundary() {
        // 8 good bits, then the very next read must fail with the exact
        // position — not zero-fill, not wrap.
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.remaining_bits(), 0);
        assert_eq!(
            r.read_bit(),
            Err(CodecError::BitstreamExhausted { bit_pos: 8 })
        );
        // The failed read must not advance the position.
        assert_eq!(r.bits_read(), 8);
        assert_eq!(
            r.read_bit(),
            Err(CodecError::BitstreamExhausted { bit_pos: 8 })
        );
    }

    #[test]
    fn multibit_read_straddling_the_end_errors() {
        // 12 bits available; a 13-bit read must fail partway with the
        // position of the first missing bit.
        let mut r = BitReader::new(&[0xAB, 0xCD]);
        assert_eq!(r.read_bits(4).unwrap(), 0xA);
        assert_eq!(
            r.read_bits(13),
            Err(CodecError::BitstreamExhausted { bit_pos: 16 })
        );
    }

    #[test]
    fn ue_truncated_at_every_prefix_cut() {
        // ue(127) = 0000000 1 0000000 (15 bits). Cutting the buffer at any
        // byte boundary shorter than the full code must yield a typed
        // truncation error, never a bogus value.
        let mut w = BitWriter::new();
        w.write_ue(127);
        let bytes = w.into_bytes();
        assert!(bytes.len() >= 2);
        for cut in 0..bytes.len() - 1 {
            let mut r = BitReader::new(&bytes[..cut]);
            let err = r.read_ue().expect_err("cut stream must error");
            assert!(err.is_truncation(), "cut {cut}: {err:?}");
        }
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_ue().unwrap(), 127);
    }

    #[test]
    fn se_truncation_is_typed() {
        let mut w = BitWriter::new();
        w.write_se(-4000);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes[..1]);
        assert!(r.read_se().expect_err("truncated se").is_truncation());
    }

    #[test]
    fn bits_read_counts() {
        let mut w = BitWriter::new();
        w.write_ue(3); // 00100 -> 5 bits
        assert_eq!(w.bit_len(), 5);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.read_ue().unwrap();
        assert_eq!(r.bits_read(), 5);
    }
}
