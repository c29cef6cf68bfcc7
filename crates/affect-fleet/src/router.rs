//! The session router: consistent hashing with virtual nodes.
//!
//! Placement must satisfy three properties at fleet scale:
//!
//! 1. **Determinism** — the shard owning a session key is a pure function
//!    of `(shard ids, replicas, key)`. No RNG state, no registration
//!    order: removing a shard and re-adding it reproduces the *identical*
//!    ring, so a fleet restarted from its config routes every session to
//!    the same place (proven by a test).
//! 2. **Minimal disruption** — removing one shard only moves the keys it
//!    owned; every other key keeps its shard. That is the consistent-hash
//!    contract, and the reason the router is a hash ring rather than
//!    `key % shards` (where removing one shard reshuffles almost
//!    everything).
//! 3. **Uniformity** — each shard materializes as `replicas` virtual
//!    points on a `u64` ring, so load spreads evenly even with a handful
//!    of shards (property-tested against a max/min load-ratio bound).
//!
//! The hash is the same three-round SplitMix64 mix the chaos layer uses —
//! bijective per round, so distinct `(shard, replica)` pairs never
//! collide more than any 64-bit hash would.

/// Identifies one runtime shard of a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub usize);

impl ShardId {
    /// The shard's index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One step of the SplitMix64 output function (identical to
/// `affect_fault::decision_hash`'s core, duplicated here so the router
/// does not pull the chaos crate into every fleet build).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash of a `(shard, replica)` virtual node onto the ring.
fn point_of(shard: usize, replica: usize) -> u64 {
    mix(
        mix(0x5249_4e47 ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(replica as u64),
    )
}

/// Hash of a session key onto the ring.
fn key_point(key: u64) -> u64 {
    mix(key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x004b_4559)
}

/// A consistent-hash ring over the fleet's shards.
#[derive(Debug, Clone)]
pub struct HashRing {
    replicas: usize,
    /// Sorted `(point, shard)` pairs — the materialized ring.
    points: Vec<(u64, ShardId)>,
    shards: Vec<ShardId>,
}

impl HashRing {
    /// An empty ring where each shard will materialize as `replicas`
    /// virtual nodes (min 1).
    pub fn new(replicas: usize) -> Self {
        Self {
            replicas: replicas.max(1),
            points: Vec::new(),
            shards: Vec::new(),
        }
    }

    /// A ring pre-populated with shards `0..shards`.
    pub fn with_shards(shards: usize, replicas: usize) -> Self {
        let mut ring = Self::new(replicas);
        for s in 0..shards {
            ring.add_shard(ShardId(s));
        }
        ring
    }

    /// Number of shards on the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` when no shard has been added.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shards currently on the ring, in id order.
    pub fn shards(&self) -> &[ShardId] {
        &self.shards
    }

    /// Virtual nodes per shard.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Adds a shard, materializing its virtual nodes. Idempotent: adding a
    /// shard already present is a no-op, so the ring stays a pure function
    /// of the shard *set*.
    pub fn add_shard(&mut self, shard: ShardId) {
        if self.shards.contains(&shard) {
            return;
        }
        self.shards.push(shard);
        self.shards.sort();
        for replica in 0..self.replicas {
            self.points.push((point_of(shard.0, replica), shard));
        }
        // Ties broken by shard id so the ring is order-independent even in
        // the (astronomically unlikely) event of a point collision.
        self.points.sort();
    }

    /// Removes a shard and all its virtual nodes. Keys it owned move to
    /// their next clockwise neighbour; every other key keeps its shard.
    pub fn remove_shard(&mut self, shard: ShardId) {
        self.shards.retain(|&s| s != shard);
        self.points.retain(|&(_, s)| s != shard);
    }

    /// Routes a session key to its owning shard: the first virtual node
    /// clockwise of the key's point (wrapping past the top of the ring).
    ///
    /// # Panics
    ///
    /// Panics on an empty ring — routing with zero shards is a
    /// configuration error, not a runtime condition.
    pub fn route(&self, key: u64) -> ShardId {
        assert!(!self.points.is_empty(), "routing on an empty ring");
        let p = key_point(key);
        match self.points.binary_search(&(p, ShardId(usize::MAX))) {
            // `Err(i)` is the insertion point: the first ring point > p
            // (ShardId::MAX makes equal-point entries sort before the
            // probe, so an exact point hit also lands here).
            Ok(i) => self.points[i].1,
            Err(i) if i < self.points.len() => self.points[i].1,
            Err(_) => self.points[0].1, // wrap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = HashRing::with_shards(4, 64);
        for key in 0..1_000u64 {
            let a = ring.route(key);
            let b = ring.route(key);
            assert_eq!(a, b);
            assert!(a.index() < 4);
        }
    }

    #[test]
    fn ring_is_a_pure_function_of_the_shard_set() {
        let forward = HashRing::with_shards(5, 32);
        let mut reversed = HashRing::new(32);
        for s in (0..5).rev() {
            reversed.add_shard(ShardId(s));
        }
        for key in 0..2_000u64 {
            assert_eq!(forward.route(key), reversed.route(key));
        }
    }

    #[test]
    fn removing_a_shard_only_moves_its_keys() {
        let full = HashRing::with_shards(8, 64);
        let mut reduced = full.clone();
        reduced.remove_shard(ShardId(3));
        let mut moved = 0u32;
        for key in 0..4_000u64 {
            let before = full.route(key);
            let after = reduced.route(key);
            if before == ShardId(3) {
                assert_ne!(after, ShardId(3));
                moved += 1;
            } else {
                assert_eq!(before, after, "key {key} moved without cause");
            }
        }
        assert!(moved > 0, "shard 3 owned nothing?");
    }

    #[test]
    fn add_is_idempotent() {
        let mut ring = HashRing::with_shards(3, 16);
        let baseline: Vec<_> = (0..500).map(|k| ring.route(k)).collect();
        ring.add_shard(ShardId(1));
        let after: Vec<_> = (0..500).map(|k| ring.route(k)).collect();
        assert_eq!(baseline, after);
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn empty_ring_panics() {
        HashRing::new(8).route(1);
    }
}
