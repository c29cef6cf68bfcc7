//! Reusable inference workspace.
//!
//! [`Scratch`] is a small buffer pool threaded through the scratch-based
//! forward path ([`crate::model::Sequential::forward_with`]). Layers acquire
//! temporaries from the pool and release them when done; once every buffer in
//! rotation has grown to the largest size the model needs, a steady-state
//! forward pass performs **zero heap allocations** (verified by the counting
//! allocator tests in `crates/alloc-counter`).
//!
//! [`Shape`] is a `Copy` stand-in for the `Vec<usize>` shapes the tensor API
//! uses, so shape bookkeeping along the scratch path is allocation-free too.

use crate::NnError;

/// Maximum rank the scratch path supports (the classifier models use 1-D
/// vectors and 2-D `[channels/time, ...]` maps).
const MAX_RANK: usize = 3;

/// A copyable tensor shape of rank 1..=3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Rank-1 shape `[n]`.
    pub fn d1(n: usize) -> Self {
        Self {
            dims: [n, 0, 0],
            rank: 1,
        }
    }

    /// Rank-2 shape `[a, b]`.
    pub fn d2(a: usize, b: usize) -> Self {
        Self {
            dims: [a, b, 0],
            rank: 2,
        }
    }

    /// Builds a shape from a slice.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] for an empty slice or rank
    /// above 3.
    pub fn from_slice(shape: &[usize]) -> Result<Self, NnError> {
        if shape.is_empty() || shape.len() > MAX_RANK {
            return Err(NnError::InvalidParameter {
                name: "shape",
                reason: "scratch shapes must have rank 1..=3",
            });
        }
        let mut dims = [0usize; MAX_RANK];
        dims[..shape.len()].copy_from_slice(shape);
        Ok(Self {
            dims,
            rank: shape.len() as u8,
        })
    }

    /// The dimensions as a slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.as_slice().iter().product()
    }

    /// `true` when any dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A pool of reusable `f32` buffers plus the model-output slot.
///
/// `acquire` hands out the smallest pooled buffer whose capacity fits the
/// request (growing it in place when none fits), `release` returns a buffer
/// to the pool. Buffer capacities only ever grow, so after a few warm-up
/// passes through a fixed model the pool reaches a fixed point and no call
/// allocates.
///
/// Int8 inference temporaries live in a **separate** `i8` pool
/// ([`Scratch::acquire_i8`]/[`Scratch::release_i8`]): quantized activation
/// buffers are typically much smaller than the f32 activations, and letting
/// them compete in one best-fit pool would steal the tight-fitting f32
/// buffers and re-grow them every window. Keeping the element types apart
/// makes mixed f32/i8 sessions reach the same zero-allocation fixed point
/// as pure-f32 ones (verified by `crates/alloc-counter`).
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Vec<f32>>,
    pool_i8: Vec<Vec<i8>>,
    out: Vec<f32>,
    alloc_events: u64,
    reuse_events: u64,
}

impl Scratch {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows a zeroed buffer of exactly `len` elements from the pool,
    /// preferring the smallest pooled buffer that already has the capacity.
    pub fn acquire(&mut self, len: usize) -> Vec<f32> {
        let mut best: Option<usize> = None;
        for (i, b) in self.pool.iter().enumerate() {
            if b.capacity() >= len && best.is_none_or(|j| b.capacity() < self.pool[j].capacity()) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                self.reuse_events += 1;
                let mut v = self.pool.swap_remove(i);
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => {
                self.alloc_events += 1;
                vec![0.0; len]
            }
        }
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn release(&mut self, buf: Vec<f32>) {
        self.pool.push(buf);
    }

    /// Borrows a zeroed `i8` buffer of exactly `len` elements from the
    /// int8 pool, preferring the smallest pooled buffer that already has
    /// the capacity. Same best-fit discipline (and the same alloc/reuse
    /// counters) as [`Scratch::acquire`], but over a pool that never mixes
    /// with the f32 buffers.
    pub fn acquire_i8(&mut self, len: usize) -> Vec<i8> {
        let mut best: Option<usize> = None;
        for (i, b) in self.pool_i8.iter().enumerate() {
            if b.capacity() >= len && best.is_none_or(|j| b.capacity() < self.pool_i8[j].capacity())
            {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                self.reuse_events += 1;
                let mut v = self.pool_i8.swap_remove(i);
                v.clear();
                v.resize(len, 0);
                v
            }
            None => {
                self.alloc_events += 1;
                vec![0; len]
            }
        }
    }

    /// Returns an `i8` buffer to the int8 pool for later reuse.
    pub fn release_i8(&mut self, buf: Vec<i8>) {
        self.pool_i8.push(buf);
    }

    /// Installs `v` as the output slot, recycling the previous output into
    /// the pool, and returns a view of it.
    pub(crate) fn install_out(&mut self, v: Vec<f32>) -> &[f32] {
        let old = std::mem::replace(&mut self.out, v);
        self.pool.push(old);
        &self.out
    }

    /// The most recent model output written by `forward_with`.
    pub fn out(&self) -> &[f32] {
        &self.out
    }

    /// Mutable view of the output slot (softmax-in-place).
    pub(crate) fn out_mut(&mut self) -> &mut [f32] {
        &mut self.out
    }

    /// Number of `acquire` calls that had to allocate a fresh buffer.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// Number of `acquire` calls satisfied from the pool.
    pub fn reuse_events(&self) -> u64 {
        self.reuse_events
    }

    /// Bytes currently held by the pools and the output slot (capacity, not
    /// length — this is what the allocator actually retains). The runtime's
    /// classify stage (`affect-rt`'s `ClassifyStep::step`) reads it after
    /// every window and charges any growth to the memory budget; the walk
    /// sums a handful of capacities. The
    /// int8 kernels' `i32` sums live in stack tiles, not in a pool, so the
    /// two pools here are all an arena holds.
    pub fn pooled_bytes(&self) -> usize {
        let f32_bytes: usize = self
            .pool
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<f32>())
            .sum();
        let i8_bytes: usize = self.pool_i8.iter().map(|b| b.capacity()).sum();
        f32_bytes + i8_bytes + self.out.capacity() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_round_trips() {
        let s = Shape::from_slice(&[3, 4]).unwrap();
        assert_eq!(s.as_slice(), &[3, 4]);
        assert_eq!(s.len(), 12);
        assert_eq!(s, Shape::d2(3, 4));
        assert_eq!(Shape::d1(5).as_slice(), &[5]);
        assert!(Shape::from_slice(&[]).is_err());
        assert!(Shape::from_slice(&[1, 2, 3, 4]).is_err());
    }

    #[test]
    fn acquire_reuses_released_buffers() {
        let mut s = Scratch::new();
        let a = s.acquire(16);
        assert_eq!(s.alloc_events(), 1);
        s.release(a);
        let b = s.acquire(8);
        assert_eq!(s.reuse_events(), 1);
        assert_eq!(s.alloc_events(), 1);
        assert_eq!(b.len(), 8);
        assert!(b.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn acquire_prefers_tightest_fit() {
        let mut s = Scratch::new();
        let big = s.acquire(64);
        let small = s.acquire(8);
        s.release(big);
        s.release(small);
        let got = s.acquire(8);
        assert!(got.capacity() < 64, "should pick the 8-cap buffer");
        s.release(got);
        let got = s.acquire(32);
        assert!(got.capacity() >= 64, "only the big buffer fits");
    }

    #[test]
    fn i8_pool_is_disjoint_from_f32_pool() {
        let mut s = Scratch::new();
        // Seed the f32 pool with a tight-fitting buffer.
        let f = s.acquire(64);
        s.release(f);
        assert_eq!((s.alloc_events(), s.reuse_events()), (1, 0));
        // i8 acquires must not consume (or re-grow) the f32 buffer.
        let q = s.acquire_i8(64);
        assert_eq!(s.alloc_events(), 2, "first i8 acquire is a fresh buffer");
        s.release_i8(q);
        let q = s.acquire_i8(32);
        assert_eq!(s.reuse_events(), 1, "second i8 acquire reuses the i8 pool");
        assert!(q.iter().all(|&x| x == 0));
        s.release_i8(q);
        // The f32 buffer is still there, untouched by the i8 traffic.
        let f = s.acquire(64);
        assert_eq!(s.alloc_events(), 2);
        assert_eq!(s.reuse_events(), 2);
        s.release(f);
    }

    #[test]
    fn mixed_f32_i8_reaches_alloc_free_fixed_point() {
        let mut s = Scratch::new();
        for _ in 0..3 {
            let a = s.acquire(48);
            let q = s.acquire_i8(48);
            let b = s.acquire(26);
            s.release(a);
            s.release_i8(q);
            s.release(b);
        }
        let (allocs, reuses) = (s.alloc_events(), s.reuse_events());
        for _ in 0..10 {
            let a = s.acquire(48);
            let q = s.acquire_i8(48);
            let b = s.acquire(26);
            s.release(a);
            s.release_i8(q);
            s.release(b);
        }
        assert_eq!(s.alloc_events(), allocs);
        assert_eq!(s.reuse_events() - reuses, 30);
    }

    #[test]
    fn pool_reaches_alloc_free_fixed_point() {
        let mut s = Scratch::new();
        for _ in 0..3 {
            let a = s.acquire(26);
            let b = s.acquire(48);
            s.release(a);
            s.release(b);
        }
        let (allocs, reuses) = (s.alloc_events(), s.reuse_events());
        for _ in 0..10 {
            let a = s.acquire(26);
            let b = s.acquire(48);
            s.release(a);
            s.release(b);
        }
        assert_eq!(s.alloc_events(), allocs);
        assert_eq!(s.reuse_events() - reuses, 20);
    }
}
