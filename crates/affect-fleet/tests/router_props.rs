//! Property tests for the consistent-hash router: placement uniformity
//! and deterministic rebalancing.

use affect_fleet::{HashRing, ShardId};
use proptest::prelude::*;

proptest! {
    /// Placement is uniform enough to run a fleet on: with 128 virtual
    /// nodes per shard and a key population much larger than the shard
    /// count, no shard carries more than 4x the lightest shard's load.
    /// (Perfect uniformity would be a ratio of 1; consistent hashing
    /// trades some balance for minimal disruption, and virtual nodes buy
    /// most of it back.)
    #[test]
    fn placement_is_roughly_uniform(
        shards in 2usize..12,
        key_base in 0u64..1_000_000,
    ) {
        let ring = HashRing::with_shards(shards, 128);
        let mut load = vec![0usize; shards];
        for k in 0..4_096u64 {
            load[ring.route(key_base.wrapping_add(k * 7919)).0] += 1;
        }
        let max = *load.iter().max().unwrap();
        let min = *load.iter().min().unwrap();
        prop_assert!(min > 0, "a shard owns nothing: {load:?}");
        prop_assert!(
            max <= min * 4,
            "load skew too high (max {max}, min {min}): {load:?}"
        );
    }

    /// Removing a shard and re-adding it restores the exact prior
    /// placement for every key: the ring is a pure function of the shard
    /// set, so rebalancing is deterministic.
    #[test]
    fn remove_then_readd_rebalances_identically(
        shards in 2usize..10,
        victim in 0usize..10,
        key_base in 0u64..1_000_000,
    ) {
        let victim = ShardId(victim % shards);
        let original = HashRing::with_shards(shards, 64);
        let mut churned = original.clone();
        churned.remove_shard(victim);
        churned.add_shard(victim);
        for k in 0..2_048u64 {
            let key = key_base.wrapping_add(k * 104_729);
            prop_assert_eq!(original.route(key), churned.route(key));
        }
    }

    /// While a shard is out, only its keys move (minimal disruption), and
    /// its displaced load spreads over the survivors rather than piling
    /// onto one neighbour.
    #[test]
    fn removal_disrupts_only_the_victims_keys(
        shards in 3usize..10,
        victim in 0usize..10,
    ) {
        let victim = ShardId(victim % shards);
        let full = HashRing::with_shards(shards, 64);
        let mut reduced = full.clone();
        reduced.remove_shard(victim);
        let mut inherited = vec![0usize; shards];
        for key in 0..4_096u64 {
            let before = full.route(key);
            let after = reduced.route(key);
            if before == victim {
                prop_assert_ne!(after, victim);
                inherited[after.index()] += 1;
            } else {
                prop_assert_eq!(before, after);
            }
        }
        let moved: usize = inherited.iter().sum();
        prop_assert!(moved > 0, "victim owned nothing");
        // Displaced keys land on more than one survivor (virtual nodes
        // interleave shards around the ring).
        let recipients = inherited.iter().filter(|&&n| n > 0).count();
        prop_assert!(
            recipients >= 2,
            "all {moved} displaced keys went to one shard: {inherited:?}"
        );
    }
}
