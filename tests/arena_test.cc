// Property tests for the pool/arena layer (src/util/arena.h) that the
// serving stack's per-key state rests on.
//
// Strategy: seeded random interleavings of the operations the serving
// path actually performs — pmr-container allocate/free churn against a
// ShardPool, scratch Alloc/Reset cycles, and the release a window
// rotation performs (drop every container, then the pool, and start over
// on a fresh one) — with every handed-out byte stamped and re-checked, so
// a use-after-reset or overlap shows up as a data mismatch here and as a
// hard fault under the ASan CI job (which runs this test with
// detect_leaks=1 and the scalar kernels).
// The counter invariants pin the accounting the pool gauges read: live
// returns to zero when containers die, and a pool keeps its chunks until
// it is destroyed.
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <memory_resource>  // kvec-lint: allow(pool-discipline) tests the wrapper against the raw default resource
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/arena.h"
#include "util/rng.h"

namespace kvec {
namespace {

TEST(CountingResourceTest, MetersLiveBytesBlocksAndHighWater) {
  CountingResource counter(std::pmr::get_default_resource());
  void* a = counter.allocate(100, 8);
  void* b = counter.allocate(28, 4);
  EXPECT_EQ(counter.bytes_live(), 128u);
  EXPECT_EQ(counter.blocks_live(), 2u);
  EXPECT_EQ(counter.bytes_high_water(), 128u);
  counter.deallocate(a, 100, 8);
  EXPECT_EQ(counter.bytes_live(), 28u);
  EXPECT_EQ(counter.blocks_live(), 1u);
  EXPECT_EQ(counter.bytes_high_water(), 128u);  // high water is sticky
  counter.deallocate(b, 28, 4);
  EXPECT_EQ(counter.bytes_live(), 0u);
  EXPECT_EQ(counter.blocks_live(), 0u);
  EXPECT_EQ(counter.allocation_count(), 2u);
  // Identity-equal only: two counters over the same upstream must not
  // compare equal, or pmr would let containers swap buffers across them.
  CountingResource other(std::pmr::get_default_resource());
  EXPECT_TRUE(counter.is_equal(counter));
  EXPECT_FALSE(counter.is_equal(other));
}

TEST(ShardPoolTest, LiveReturnsToZeroWhenContainersDie) {
  ShardPool pool;
  // Meters what the containers request from the pool.
  CountingResource live(pool.resource());
  {
    std::pmr::unordered_map<int, std::pmr::vector<int>> map(&live);
    for (int i = 0; i < 1000; ++i) {
      auto& vec = map[i];  // uses-allocator: vector lands in the pool too
      vec.assign(i % 17 + 1, i);
    }
    EXPECT_GT(live.bytes_live(), 0u);
    EXPECT_GE(pool.bytes_resident(), live.bytes_live());
  }
  EXPECT_EQ(live.bytes_live(), 0u);
  // The pool caches the freed nodes: resident stays up until the pool is
  // destroyed, which is why a window rotation releases a large one.
  EXPECT_GT(pool.bytes_resident(), 0u);
  EXPECT_GT(pool.blocks_resident(), 0u);
}

TEST(ShardPoolTest, ChurnKeepsResidencyBoundedByRecycling) {
  ShardPool pool;
  std::pmr::map<int, std::pmr::vector<int>> map(pool.resource());
  // Steady-state churn at a fixed live size: insert/erase storms must
  // recycle pool nodes, not grow residency per cycle.
  for (int i = 0; i < 200; ++i) map[i].assign(8, i);
  const size_t resident_after_warmup = pool.bytes_resident();
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int i = 0; i < 200; ++i) map.erase(i);
    for (int i = 0; i < 200; ++i) map[i].assign(8, i);
  }
  // Identical-size recycling should cost little beyond the warm-up
  // footprint (2x allows pool bucketing slack, far below 50 cycles' worth).
  EXPECT_LE(pool.bytes_resident(), 2 * resident_after_warmup);
}

TEST(ScratchArenaTest, AlignmentUsedBytesAndHighWater) {
  ScratchArena arena;
  float* f = arena.AllocArray<float>(100);
  double* d = arena.AllocArray<double>(10);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(f) % alignof(float), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
  EXPECT_GE(arena.used_bytes(), 100 * sizeof(float) + 10 * sizeof(double));
  const size_t peak = arena.used_bytes();
  arena.Reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_GE(arena.high_water(), peak);
  // Post-reset the arena must satisfy the previous peak from one block.
  char* big = arena.AllocArray<char>(peak);
  std::memset(big, 0x5a, peak);
  EXPECT_EQ(arena.reserved_bytes(), arena.reserved_bytes());  // readable
}

TEST(ScratchArenaTest, GrowthPlateausAtHighWater) {
  ScratchArena arena;
  for (int cycle = 0; cycle < 20; ++cycle) {
    arena.AllocArray<float>(4096);
    arena.AllocArray<float>(1024);
    arena.Reset();
  }
  const size_t plateau = arena.reserved_bytes();
  for (int cycle = 0; cycle < 20; ++cycle) {
    arena.AllocArray<float>(4096);
    arena.AllocArray<float>(1024);
    arena.Reset();
  }
  EXPECT_EQ(arena.reserved_bytes(), plateau);  // steady state: no growth
}

// ---- Seeded interleaving properties. ----

// One simulated per-key record: a pmr vector in the pool, stamped with a
// key-derived pattern that is re-verified before every mutation and at
// teardown. Any allocator bug that overlaps or recycles live storage
// breaks the stamp.
using PoolMap = std::pmr::unordered_map<int, std::pmr::vector<uint32_t>>;

uint32_t StampFor(int key, size_t index) {
  return static_cast<uint32_t>(key) * 2654435761u +
         static_cast<uint32_t>(index) * 40503u + 0x9e37u;
}

void FillStamped(int key, std::pmr::vector<uint32_t>* vec, size_t size) {
  vec->resize(size);
  for (size_t i = 0; i < size; ++i) (*vec)[i] = StampFor(key, i);
}

void ExpectStamped(int key, const std::pmr::vector<uint32_t>& vec,
                   const std::string& context) {
  for (size_t i = 0; i < vec.size(); ++i) {
    ASSERT_EQ(vec[i], StampFor(key, i))
        << context << " key " << key << " index " << i;
  }
}

void RunPoolInterleaving(uint64_t seed) {
  Rng rng(seed);
  auto pool = std::make_unique<ShardPool>();
  auto map = std::make_unique<PoolMap>(pool->resource());
  const std::string context = "seed " + std::to_string(seed);

  int next_key = 0;
  for (int step = 0; step < 3000; ++step) {
    const int op = rng.NextInt(100);
    if (op < 45 || map->empty()) {
      // Insert (or grow) a key with a stamped payload of random size.
      const int key = rng.NextBernoulli(0.7) || map->empty()
                          ? next_key++
                          : rng.NextInt(next_key);
      FillStamped(key, &(*map)[key], static_cast<size_t>(rng.NextInt(64)) + 1);
    } else if (op < 80) {
      // Erase a random live key — after verifying its stamp.
      auto it = map->begin();
      std::advance(it, rng.NextInt(static_cast<int>(map->size())));
      ExpectStamped(it->first, it->second, context);
      map->erase(it);
    } else if (op < 95) {
      // Shrink/regrow a live key in place.
      auto it = map->begin();
      std::advance(it, rng.NextInt(static_cast<int>(map->size())));
      ExpectStamped(it->first, it->second, context);
      FillStamped(it->first, &it->second,
                  static_cast<size_t>(rng.NextInt(96)) + 1);
    } else {
      // Release, as a window rotation does: verify every stamp, drop the
      // containers, then the pool they allocated from, and start over.
      for (const auto& [key, vec] : *map) ExpectStamped(key, vec, context);
      auto fresh_pool = std::make_unique<ShardPool>();
      map = std::make_unique<PoolMap>(fresh_pool->resource());
      pool = std::move(fresh_pool);
    }
  }

  for (const auto& [key, vec] : *map) ExpectStamped(key, vec, context);
}

TEST(ArenaPropertyTest, PoolInterleavingsSeed1) { RunPoolInterleaving(1); }
TEST(ArenaPropertyTest, PoolInterleavingsSeed2) { RunPoolInterleaving(2); }
TEST(ArenaPropertyTest, PoolInterleavingsSeed3) { RunPoolInterleaving(3); }

void RunScratchInterleaving(uint64_t seed) {
  Rng rng(seed);
  ScratchArena arena;
  const std::string context = "seed " + std::to_string(seed);

  for (int cycle = 0; cycle < 200; ++cycle) {
    // A "microbatch": several allocations, all stamped, all verified at
    // the end of the cycle — writes to one panel must never bleed into
    // another, including across the main-block/overflow boundary.
    std::vector<std::pair<uint32_t*, size_t>> panels;
    const int num_panels = rng.NextInt(8) + 1;
    for (int p = 0; p < num_panels; ++p) {
      // Sizes straddle the growth threshold so some cycles overflow.
      const size_t count = static_cast<size_t>(rng.NextInt(5000)) + 1;
      uint32_t* panel = arena.AllocArray<uint32_t>(count);
      for (size_t i = 0; i < count; ++i) {
        panel[i] = StampFor(p + cycle * 31, i);
      }
      panels.emplace_back(panel, count);
    }
    for (int p = 0; p < num_panels; ++p) {
      for (size_t i = 0; i < panels[p].second; ++i) {
        ASSERT_EQ(panels[p].first[i], StampFor(p + cycle * 31, i))
            << context << " cycle " << cycle << " panel " << p;
      }
    }
    ASSERT_GE(arena.high_water(), arena.used_bytes()) << context;
    arena.Reset();
    ASSERT_EQ(arena.used_bytes(), 0u) << context;
  }
}

TEST(ArenaPropertyTest, ScratchInterleavingsSeed1) { RunScratchInterleaving(7); }
TEST(ArenaPropertyTest, ScratchInterleavingsSeed2) { RunScratchInterleaving(8); }

TEST(ArenaPropertyTest, NestedPmrContainersPropagateIntoThePool) {
  // The serving stack leans on uses-allocator construction: map nodes,
  // nested vectors, and set nodes must ALL land in the pool — a nested
  // container silently falling back to the default resource would outlive
  // the pool a rotation releases. Everything below allocates; live bytes
  // must cover it.
  ShardPool pool;
  CountingResource live(pool.resource());
  std::pmr::unordered_map<int, std::pmr::vector<int>> map(&live);
  std::pmr::set<std::pair<int64_t, int>> set(&live);
  std::pmr::map<int, std::pmr::map<int, int>> nested(&live);
  for (int i = 0; i < 100; ++i) {
    map[i].assign(32, i);
    set.insert({i, i});
    nested[i][i * 2] = i;
  }
  // 100 vectors of 32 ints alone exceed 12800 bytes; if nesting leaked to
  // the default resource, live would sit far below this.
  EXPECT_GT(live.bytes_live(), 100u * 32u * sizeof(int));
}

}  // namespace
}  // namespace kvec
