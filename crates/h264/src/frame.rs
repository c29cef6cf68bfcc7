//! Frame representation and macroblock geometry.

use crate::CodecError;

/// Macroblock edge length in pixels.
pub const MB_SIZE: usize = 16;
/// Transform block edge length in pixels.
pub const BLOCK_SIZE: usize = 4;
/// 4×4 blocks per macroblock row/column.
pub const BLOCKS_PER_MB: usize = MB_SIZE / BLOCK_SIZE;

/// A luma-plane video frame (the codec's documented luma-only
/// simplification; see the crate docs).
///
/// # Example
///
/// ```
/// use h264::Frame;
/// # fn main() -> Result<(), h264::CodecError> {
/// let f = Frame::new(64, 48)?;
/// assert_eq!((f.width(), f.height()), (64, 48));
/// assert_eq!(f.data().len(), 64 * 48);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Frame {
    /// Creates a black frame. Dimensions must be non-zero multiples of the
    /// macroblock size (16).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadDimensions`] otherwise.
    pub fn new(width: usize, height: usize) -> Result<Self, CodecError> {
        if width == 0
            || height == 0
            || !width.is_multiple_of(MB_SIZE)
            || !height.is_multiple_of(MB_SIZE)
        {
            return Err(CodecError::BadDimensions { width, height });
        }
        Ok(Self {
            width,
            height,
            data: vec![0; width * height],
        })
    }

    /// Wraps existing pixel data.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadDimensions`] when dimensions are invalid or
    /// do not match the buffer length.
    pub fn from_data(width: usize, height: usize, data: Vec<u8>) -> Result<Self, CodecError> {
        if width == 0
            || height == 0
            || !width.is_multiple_of(MB_SIZE)
            || !height.is_multiple_of(MB_SIZE)
            || data.len() != width * height
        {
            return Err(CodecError::BadDimensions { width, height });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw pixel buffer (row-major).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw pixel buffer.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Pixel at `(x, y)`, clamping coordinates to the frame (the clamp is
    /// what prediction at frame borders needs).
    pub fn pixel_clamped(&self, x: isize, y: isize) -> u8 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds (internal callers guarantee bounds).
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.width + x]
    }

    /// Sets pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set_pixel(&mut self, x: usize, y: usize, value: u8) {
        self.data[y * self.width + x] = value;
    }

    /// Copies a 4×4 block with top-left corner `(x, y)` into `out`.
    pub fn read_block(&self, x: usize, y: usize, out: &mut [i32; 16]) {
        for by in 0..BLOCK_SIZE {
            let row = &self.data[(y + by) * self.width + x..][..BLOCK_SIZE];
            for (out, &p) in out[by * BLOCK_SIZE..][..BLOCK_SIZE].iter_mut().zip(row) {
                *out = i32::from(p);
            }
        }
    }

    /// Writes a 4×4 block (clamping values into `0..=255`).
    pub fn write_block(&mut self, x: usize, y: usize, block: &[i32; 16]) {
        for by in 0..BLOCK_SIZE {
            let row = &mut self.data[(y + by) * self.width + x..][..BLOCK_SIZE];
            for (out, &v) in row.iter_mut().zip(&block[by * BLOCK_SIZE..][..BLOCK_SIZE]) {
                *out = v.clamp(0, 255) as u8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_unaligned_dimensions() {
        assert!(Frame::new(0, 16).is_err());
        assert!(Frame::new(17, 16).is_err());
        assert!(Frame::new(16, 20).is_err());
        assert!(Frame::from_data(16, 16, vec![0; 100]).is_err());
    }

    #[test]
    fn pixel_round_trip() {
        let mut f = Frame::new(16, 16).unwrap();
        f.set_pixel(3, 5, 200);
        assert_eq!(f.pixel(3, 5), 200);
    }

    #[test]
    fn clamped_access_at_borders() {
        let mut f = Frame::new(16, 16).unwrap();
        f.set_pixel(0, 0, 42);
        assert_eq!(f.pixel_clamped(-5, -5), 42);
        f.set_pixel(15, 15, 77);
        assert_eq!(f.pixel_clamped(100, 100), 77);
    }

    #[test]
    fn block_round_trip_with_clamping() {
        let mut f = Frame::new(16, 16).unwrap();
        let mut block = [0i32; 16];
        for (i, b) in block.iter_mut().enumerate() {
            *b = i as i32 * 20 - 40; // some negative, some > 255
        }
        f.write_block(4, 4, &block);
        let mut back = [0i32; 16];
        f.read_block(4, 4, &mut back);
        for (i, &v) in back.iter().enumerate() {
            assert_eq!(v, (i as i32 * 20 - 40).clamp(0, 255));
        }
    }
}
