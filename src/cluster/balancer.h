#ifndef STIX_CLUSTER_BALANCER_H_
#define STIX_CLUSTER_BALANCER_H_

#include <optional>

#include "cluster/chunk.h"
#include "cluster/zones.h"
#include "common/rng.h"

namespace stix::cluster {

/// A proposed chunk migration.
struct Migration {
  size_t chunk_index;
  int to_shard;
};

/// Migrate only when the donor has at least this many more movable chunks
/// than the recipient (MongoDB's migration threshold, scaled down).
inline constexpr int kImbalanceThreshold = 2;

/// The zone pinning a chunk, or -1 when no zone touches it. A chunk is
/// pinned by the first zone its [min, max) range *overlaps* — not merely
/// the zone of its min key — so a chunk straddling a zone boundary (zones
/// set after data split the chunks, or restored layouts) is still pinned
/// and still counts as violating when it sits on the wrong shard.
int ZoneForChunk(const std::vector<ZoneRange>& zones, const Chunk& chunk);

/// Pure balancer policy (the decision half of MongoDB's Balancer; the
/// cluster applies the moves). Priorities, in order:
///  1. zone violations — a chunk whose pinning zone (see ZoneForChunk)
///     disagrees with the shard it sits on;
///  2. plain imbalance — move a *movable* (zone-free) chunk from the shard
///     with the most movable chunks to the shard with the fewest, once the
///     gap reaches kImbalanceThreshold.
///     Counts, donor/recipient choice and the threshold all consider only
///     movable chunks: pinned chunks can never be moved to fix the
///     imbalance they create, and counting them both stalled the balancer
///     (donor with a pinned surplus, nothing movable) and hid real movable
///     imbalance elsewhere. With no zones every chunk is movable and this
///     degenerates to plain chunk counts.
///     The moved chunk is a random movable one, or with `weigh_by_points`
///     the donor's *heaviest* movable chunk (by Chunk::points). Bucketed
///     collections weigh by points: chunks with equal document counts can
///     differ by orders of magnitude in logical points (buckets seal at
///     different fills), so data — not bucket documents — evens out. The
///     trigger (chunk-count threshold) is the same either way.
/// Returns nullopt when balanced. Randomness comes from the caller's seeded
/// Rng (it also breaks ties among equally heavy chunks), so placements are
/// reproducible.
std::optional<Migration> PickNextMigration(const ChunkManager& chunks,
                                           int num_shards,
                                           const std::vector<ZoneRange>& zones,
                                           bool weigh_by_points, Rng* rng);

}  // namespace stix::cluster

#endif  // STIX_CLUSTER_BALANCER_H_
