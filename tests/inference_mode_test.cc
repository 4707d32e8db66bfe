// InferenceMode: ops inside the guard must produce plain leaves (no
// parents, no backward_fn, requires_grad off) and the serving stack
// (OnlineClassifier behind StreamServer::Push) must build zero graph nodes
// for an entire stream.
#include <vector>

#include "core/stream_server.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace kvec {
namespace {

Tensor RandomGradTensor(int rows, int cols, Rng& rng) {
  Tensor t = Tensor::Zeros(rows, cols, /*requires_grad=*/true);
  for (float& v : t.data()) v = static_cast<float>(rng.NextGaussian());
  return t;
}

bool IsTapelessLeaf(const Tensor& t) {
  return !t.requires_grad() && t.impl()->parents.empty() &&
         !t.impl()->backward_fn;
}

TEST(InferenceModeTest, OpsInsideGuardRecordNothing) {
  Rng rng(7);
  Tensor a = RandomGradTensor(3, 4, rng);
  Tensor w = RandomGradTensor(4, 4, rng);
  const uint64_t nodes_before = internal::GraphNodesRecorded();
  {
    InferenceMode guard;
    Tensor h = ops::Relu(ops::MatMul(a, w));
    Tensor s = ops::Softmax(ops::MatMulTransposeB(h, h));
    Tensor out = ops::SumAll(ops::Mul(s, s));
    EXPECT_TRUE(IsTapelessLeaf(h));
    EXPECT_TRUE(IsTapelessLeaf(s));
    EXPECT_TRUE(IsTapelessLeaf(out));
  }
  EXPECT_EQ(internal::GraphNodesRecorded(), nodes_before);
  // The tape resumes once the guard dies.
  Tensor tracked = ops::MatMul(a, w);
  EXPECT_TRUE(tracked.requires_grad());
  EXPECT_GT(internal::GraphNodesRecorded(), nodes_before);
}

TEST(InferenceModeTest, GuardNests) {
  Rng rng(8);
  Tensor a = RandomGradTensor(2, 2, rng);
  InferenceMode outer;
  {
    InferenceMode inner;
    EXPECT_TRUE(IsTapelessLeaf(ops::Tanh(a)));
  }
  // Still inside the outer guard.
  EXPECT_TRUE(InferenceMode::Enabled());
  EXPECT_TRUE(IsTapelessLeaf(ops::Tanh(a)));
}

// End-to-end: a trained model served through StreamServer::Push processes a
// whole episode without creating a single autograd node, even though every
// model parameter has requires_grad == true. This is the zero-tape serving
// guarantee the latency story rests on — no Detach() garbage collection,
// no per-item graph churn.
TEST(InferenceModeTest, StreamServerPushBuildsZeroTape) {
  TrafficGeneratorConfig generator_config;
  generator_config.num_classes = 2;
  generator_config.concurrency = 3;
  generator_config.avg_flow_length = 10.0;
  generator_config.min_flow_length = 5;
  TrafficGenerator generator(generator_config);
  Dataset dataset = GenerateDataset(generator, {8, 1, 2}, /*seed=*/17);
  KvecConfig config = KvecConfig::ForSpec(dataset.spec);
  config.embed_dim = 12;
  config.state_dim = 16;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 16;
  config.epochs = 1;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  trainer.Train(dataset.train);

  // Sanity: the model's parameters do require gradients, so any op reading
  // them outside the guard WOULD record nodes.
  std::vector<Tensor> parameters;
  model.CollectParameters(&parameters);
  ASSERT_FALSE(parameters.empty());
  for (const Tensor& parameter : parameters) {
    EXPECT_TRUE(parameter.requires_grad());
  }

  StreamServer server(model, {});
  const uint64_t nodes_before = internal::GraphNodesRecorded();
  int events_seen = 0;
  for (const TangledSequence& episode : dataset.test) {
    for (const Item& item : episode.items) {
      events_seen += static_cast<int>(server.Observe(item).size());
    }
  }
  events_seen += static_cast<int>(server.Flush().size());
  EXPECT_GT(events_seen, 0);
  EXPECT_EQ(internal::GraphNodesRecorded(), nodes_before)
      << "serving built autograd tape nodes";
}

}  // namespace
}  // namespace kvec
