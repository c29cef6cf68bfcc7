//! Overlapping frame segmentation of a signal.

use crate::DspError;

/// Iterator over overlapping frames of a signal.
///
/// Created by [`Frames::new`]. Frames shorter than `frame_len` at the end of
/// the signal are dropped (standard practice for feature extraction — a
/// partial frame would bias spectral estimates).
///
/// # Example
///
/// ```
/// use dsp::Frames;
/// # fn main() -> Result<(), dsp::DspError> {
/// let signal: Vec<f32> = (0..10).map(|i| i as f32).collect();
/// let frames: Vec<&[f32]> = Frames::new(&signal, 4, 2)?.collect();
/// assert_eq!(frames.len(), 4);
/// assert_eq!(frames[1], &[2.0, 3.0, 4.0, 5.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    signal: &'a [f32],
    frame_len: usize,
    hop: usize,
    pos: usize,
}

impl<'a> Frames<'a> {
    /// Creates a frame iterator with the given frame length and hop size.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when `frame_len` or `hop` is
    /// zero.
    pub fn new(signal: &'a [f32], frame_len: usize, hop: usize) -> Result<Self, DspError> {
        if frame_len == 0 {
            return Err(DspError::InvalidParameter {
                name: "frame_len",
                reason: "must be non-zero",
            });
        }
        if hop == 0 {
            return Err(DspError::InvalidParameter {
                name: "hop",
                reason: "must be non-zero",
            });
        }
        Ok(Self {
            signal,
            frame_len,
            hop,
            pos: 0,
        })
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [f32];

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos + self.frame_len > self.signal.len() {
            return None;
        }
        let frame = &self.signal[self.pos..self.pos + self.frame_len];
        self.pos += self.hop;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = if self.pos + self.frame_len > self.signal.len() {
            0
        } else {
            (self.signal.len() - self.pos - self.frame_len) / self.hop + 1
        };
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Frames<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_parameters() {
        let s = [1.0f32; 8];
        assert!(Frames::new(&s, 0, 1).is_err());
        assert!(Frames::new(&s, 4, 0).is_err());
    }

    #[test]
    fn short_signal_yields_nothing() {
        let s = [1.0f32; 3];
        let mut it = Frames::new(&s, 4, 2).unwrap();
        assert_eq!(it.next(), None);
        assert_eq!(it.len(), 0);
    }

    #[test]
    fn exact_fit_yields_one_frame() {
        let s = [1.0f32, 2.0, 3.0, 4.0];
        let frames: Vec<_> = Frames::new(&s, 4, 4).unwrap().collect();
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn non_overlapping() {
        let s: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let frames: Vec<_> = Frames::new(&s, 2, 2).unwrap().collect();
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[3], &[6.0, 7.0]);
    }

    #[test]
    fn count_matches_iteration() {
        let s: Vec<f32> = vec![0.0; 100];
        for (fl, hop) in [(10, 5), (16, 16), (7, 3), (100, 1)] {
            let it = Frames::new(&s, fl, hop).unwrap();
            assert_eq!(it.len(), it.clone().count(), "fl={fl} hop={hop}");
        }
    }

    #[test]
    fn size_hint_is_exact() {
        let s: Vec<f32> = vec![0.0; 50];
        let mut it = Frames::new(&s, 10, 4).unwrap();
        let mut expected = it.clone().count();
        while let (lo, Some(hi)) = it.size_hint() {
            assert_eq!(lo, hi);
            assert_eq!(lo, expected);
            if it.next().is_none() {
                break;
            }
            expected -= 1;
        }
    }
}
