// OnlineClassifier::DecideObserved makes no heap allocation once a key has
// its fusion-state slot: the fusion step, the halting policy and the
// classifier run on raw rows and engine-owned scratch.
//
// This binary replaces the global operator new/delete with counting
// versions, so it holds only tests that count allocations.
#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "core/online.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};

// Counts one allocation; returns nullptr when malloc fails.
void* CountedAlloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  // kvec-lint: allow-next(pool-discipline) the replaced global allocator itself
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocOrThrow(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// kvec-lint: allow-next(pool-discipline) the replaced global allocator itself
void Release(void* p) noexcept { std::free(p); }

}  // namespace

// Every unaligned form is replaced, nothrow ones included, so that no block
// is freed by a different allocator than the one that made it (ASan checks).
// kvec-lint: allow-next(naked-new) replacing the global allocator to count
void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
// kvec-lint: allow-next(naked-new) replacing the global allocator to count
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
// kvec-lint: allow-next(naked-new) replacing the global allocator to count
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
// kvec-lint: allow-next(naked-new) replacing the global allocator to count
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
// kvec-lint: allow-next(naked-new) replacing the global allocator to count
void operator delete(void* p) noexcept { Release(p); }
// kvec-lint: allow-next(naked-new) replacing the global allocator to count
void operator delete[](void* p) noexcept { Release(p); }
// kvec-lint: allow-next(naked-new) replacing the global allocator to count
void operator delete(void* p, std::size_t) noexcept { Release(p); }
// kvec-lint: allow-next(naked-new) replacing the global allocator to count
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
// kvec-lint: allow-next(naked-new) replacing the global allocator to count
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
// kvec-lint: allow-next(naked-new) replacing the global allocator to count
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}

namespace kvec {
namespace {

// Counts the allocations `fn` makes on this thread's behalf.
template <typename Fn>
long AllocationsDuring(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

Dataset StreamDataset() {
  TrafficGeneratorConfig config;
  config.num_classes = 3;
  config.concurrency = 8;
  config.avg_flow_length = 12.0;
  config.min_flow_length = 6;
  TrafficGenerator generator(config);
  return GenerateDataset(generator, {2, 1, 4}, /*seed=*/41);
}

// Biases the halting policy towards continuing, so most keys fuse several
// items before they halt. The policy's bias is the [1, 1] parameter that
// MainParameters lists before the classifier's weight and bias.
void BiasTowardsContinuing(KvecModel* model) {
  std::vector<Tensor> params = model->MainParameters();
  ASSERT_GE(params.size(), 3u);
  Tensor policy_bias = params[params.size() - 3];
  ASSERT_EQ(policy_bias.rows(), 1);
  ASSERT_EQ(policy_bias.cols(), 1);
  policy_bias.data()[0] = -2.0f;
}

class OnlineAllocTest
    : public ::testing::TestWithParam<KvecConfig::FusionKind> {};

TEST_P(OnlineAllocTest, DecideAllocatesNothingAfterAKeysFirstItem) {
  Dataset dataset = StreamDataset();
  KvecConfig config = KvecConfig::ForSpec(dataset.spec);
  config.embed_dim = 8;
  config.state_dim = 8;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 8;
  config.fusion = GetParam();
  KvecModel model(config);
  BiasTowardsContinuing(&model);
  OnlineClassifier online(model);
  ASSERT_EQ(AllocationsDuring([] {}), 0);  // the counter itself is quiet

  const int embed = online.embed_dim();
  std::vector<float> rows;
  int counted = 0;
  int continued = 0;  // decisions that fused and did not halt
  for (const TangledSequence& episode : dataset.test) {
    std::set<int> seen;
    const std::vector<Item>& items = episode.items;
    online.EncodeBatch(items.data(), static_cast<int>(items.size()), &rows);
    for (size_t i = 0; i < items.size(); ++i) {
      const int key = items[i].key;
      const float* row = rows.data() + i * embed;
      if (seen.insert(key).second) {
        online.DecideObserved(key, row);  // may grow the state slab
        continue;
      }
      OnlineDecision decision;
      const long allocations = AllocationsDuring(
          [&] { decision = online.DecideObserved(key, row); });
      EXPECT_EQ(allocations, 0)
          << "key " << key << " item " << decision.observed_items;
      ++counted;
      if (!decision.already_halted && !decision.halted_now) ++continued;
    }
    // Forced classification of the still-open keys reuses the same scratch.
    for (int key : seen) {
      if (online.IsHalted(key)) continue;
      double confidence = 0.0;
      EXPECT_EQ(AllocationsDuring(
                    [&] { online.ForceClassify(key, &confidence); }),
                0);
    }
  }
  EXPECT_GT(counted, 0);
  EXPECT_GT(continued, 0);
}

INSTANTIATE_TEST_SUITE_P(AllModes, OnlineAllocTest,
                         ::testing::Values(KvecConfig::FusionKind::kLstm,
                                           KvecConfig::FusionKind::kSum,
                                           KvecConfig::FusionKind::kMean,
                                           KvecConfig::FusionKind::kLast));

}  // namespace
}  // namespace kvec
