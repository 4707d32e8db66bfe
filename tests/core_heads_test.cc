#include "core/heads.h"

#include <cmath>

#include "core/model.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace kvec {
namespace {

TEST(EctlPolicyTest, OutputsProbability) {
  Rng rng(1);
  EctlPolicy policy(8, rng);
  for (int i = 0; i < 20; ++i) {
    Tensor state = nn::NormalInit(1, 8, 3.0f, rng);
    float p = policy.HaltProbability(state).ScalarValue();
    EXPECT_GT(p, 0.0f);
    EXPECT_LT(p, 1.0f);
  }
}

TEST(EctlPolicyTest, ParameterCountIsLinear) {
  Rng rng(2);
  EctlPolicy policy(16, rng);
  EXPECT_EQ(policy.ParameterCount(), 16 + 1);  // w and b
}

TEST(BaselineNetworkTest, ScalarOutput) {
  Rng rng(3);
  BaselineNetwork baseline(8, 12, rng);
  Tensor state = nn::NormalInit(1, 8, 1.0f, rng);
  Tensor value = baseline.Forward(state);
  EXPECT_EQ(value.rows(), 1);
  EXPECT_EQ(value.cols(), 1);
}

TEST(SequenceClassifierTest, LogitsShape) {
  Rng rng(4);
  SequenceClassifier classifier(8, 5, rng);
  Tensor state = nn::NormalInit(1, 8, 1.0f, rng);
  Tensor logits = classifier.Logits(state);
  EXPECT_EQ(logits.cols(), 5);
  EXPECT_EQ(classifier.num_classes(), 5);
}

DatasetSpec TinySpec() {
  TrafficGeneratorConfig config;
  config.num_classes = 3;
  return TrafficGenerator(config).spec();
}

TEST(KvecModelTest, ParameterPartition) {
  KvecConfig config = KvecConfig::ForSpec(TinySpec());
  config.embed_dim = 8;
  config.state_dim = 8;
  config.num_blocks = 1;
  KvecModel model(config);
  std::vector<Tensor> all = model.Parameters();
  std::vector<Tensor> main = model.MainParameters();
  std::vector<Tensor> baseline = model.BaselineParameters();
  EXPECT_EQ(all.size(), main.size() + baseline.size());
  EXPECT_FALSE(baseline.empty());
}

TEST(KvecModelTest, SaveLoadRoundTrip) {
  KvecConfig config = KvecConfig::ForSpec(TinySpec());
  config.embed_dim = 8;
  config.state_dim = 8;
  config.num_blocks = 1;
  config.seed = 5;
  KvecModel a(config);
  config.seed = 99;  // different init
  KvecModel b(config);

  BinaryWriter writer;
  a.SaveParameters(&writer);
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(b.LoadParameters(&reader));
  std::vector<Tensor> pa = a.Parameters();
  std::vector<Tensor> pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].data(), pb[i].data()) << "parameter " << i;
  }
}

TEST(KvecModelTest, LoadRejectsWrongArchitecture) {
  KvecConfig config = KvecConfig::ForSpec(TinySpec());
  config.embed_dim = 8;
  config.num_blocks = 1;
  KvecModel a(config);
  config.embed_dim = 12;
  KvecModel b(config);
  BinaryWriter writer;
  a.SaveParameters(&writer);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(b.LoadParameters(&reader));
}

TEST(KvecModelTest, LoadRejectsTruncatedStream) {
  KvecConfig config = KvecConfig::ForSpec(TinySpec());
  config.num_blocks = 1;
  KvecModel model(config);
  BinaryWriter writer;
  model.SaveParameters(&writer);
  const std::string bytes = writer.buffer();
  BinaryReader reader(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(model.LoadParameters(&reader));
}

TEST(KvecModelTest, DeterministicInitGivenSeed) {
  KvecConfig config = KvecConfig::ForSpec(TinySpec());
  config.num_blocks = 1;
  config.seed = 1234;
  KvecModel a(config);
  KvecModel b(config);
  std::vector<Tensor> pa = a.Parameters();
  std::vector<Tensor> pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].data(), pb[i].data());
  }
}

}  // namespace
}  // namespace kvec
