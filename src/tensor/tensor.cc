#include "tensor/tensor.h"

#include <atomic>
#include <limits>
#include <unordered_set>

#include "util/check.h"

namespace kvec {
namespace {

thread_local int t_inference_depth = 0;
std::atomic<uint64_t> g_graph_nodes_recorded{0};

}  // namespace

InferenceMode::InferenceMode() { ++t_inference_depth; }
InferenceMode::~InferenceMode() { --t_inference_depth; }
bool InferenceMode::Enabled() { return t_inference_depth > 0; }

void TensorImpl::EnsureGrad() {
  if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
}

Tensor Tensor::Zeros(int rows, int cols, bool requires_grad) {
  return Full(rows, cols, 0.0f, requires_grad);
}

Tensor Tensor::Full(int rows, int cols, float value, bool requires_grad) {
  KVEC_CHECK_GT(rows, 0);
  KVEC_CHECK_GT(cols, 0);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data.assign(static_cast<size_t>(rows) * cols, value);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::FromData(int rows, int cols, std::vector<float> data,
                        bool requires_grad) {
  KVEC_CHECK_GT(rows, 0);
  KVEC_CHECK_GT(cols, 0);
  KVEC_CHECK_EQ(data.size(), static_cast<size_t>(rows) * cols);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data = std::move(data);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromData(1, 1, {value}, requires_grad);
}

int Tensor::rows() const {
  KVEC_CHECK(defined());
  return impl_->rows;
}

int Tensor::cols() const {
  KVEC_CHECK(defined());
  return impl_->cols;
}

bool Tensor::requires_grad() const {
  KVEC_CHECK(defined());
  return impl_->requires_grad;
}

float Tensor::At(int row, int col) const {
  KVEC_CHECK(defined());
  KVEC_CHECK_GE(row, 0);
  KVEC_CHECK_LT(row, impl_->rows);
  KVEC_CHECK_GE(col, 0);
  KVEC_CHECK_LT(col, impl_->cols);
  return impl_->data[static_cast<size_t>(row) * impl_->cols + col];
}

void Tensor::Set(int row, int col, float value) {
  KVEC_CHECK(defined());
  KVEC_CHECK_GE(row, 0);
  KVEC_CHECK_LT(row, impl_->rows);
  KVEC_CHECK_GE(col, 0);
  KVEC_CHECK_LT(col, impl_->cols);
  impl_->data[static_cast<size_t>(row) * impl_->cols + col] = value;
}

float Tensor::ScalarValue() const {
  KVEC_CHECK(defined());
  KVEC_CHECK_EQ(size(), 1) << "ScalarValue on a non-scalar tensor";
  return impl_->data[0];
}

std::vector<float>& Tensor::data() {
  KVEC_CHECK(defined());
  return impl_->data;
}

const std::vector<float>& Tensor::data() const {
  KVEC_CHECK(defined());
  return impl_->data;
}

const std::vector<float>& Tensor::grad() const {
  KVEC_CHECK(defined());
  impl_->EnsureGrad();
  return impl_->grad;
}

Tensor Tensor::Clone() const {
  KVEC_CHECK(defined());
  return FromData(rows(), cols(), impl_->data, impl_->requires_grad);
}

Tensor Tensor::Detach() const {
  KVEC_CHECK(defined());
  return FromData(rows(), cols(), impl_->data, /*requires_grad=*/false);
}

void Tensor::ZeroGrad() {
  KVEC_CHECK(defined());
  impl_->grad.assign(impl_->data.size(), 0.0f);
}

void Tensor::Backward() {
  KVEC_CHECK(defined());
  KVEC_CHECK_EQ(size(), 1) << "Backward must start from a scalar loss";
  KVEC_CHECK(impl_->requires_grad)
      << "Backward on a tensor that does not require grad";

  // Topological order via iterative DFS (post-order).
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({impl_.get(), 0});
  visited.insert(impl_.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      TensorImpl* parent = frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  impl_->EnsureGrad();
  impl_->grad[0] += 1.0f;

  // `order` is post-order (leaves first); walk it backwards so each node's
  // gradient is complete before being propagated to its parents.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn) node->backward_fn();
  }
}

namespace internal {

Tensor MakeOpOutput(int rows, int cols,
                    std::vector<std::shared_ptr<TensorImpl>> parents,
                    bool requires_grad) {
  KVEC_CHECK_GT(rows, 0);
  KVEC_CHECK_GT(cols, 0);
  requires_grad = requires_grad && !InferenceMode::Enabled();
  // Op outputs are written in full by the caller (ops that accumulate zero
  // the buffer themselves). Debug builds poison the fresh buffer so an op
  // that fails to overwrite its whole output surfaces as NaNs instead of
  // silently reading zeros.
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
#ifdef NDEBUG
  impl->data.resize(static_cast<size_t>(rows) * cols);
#else
  impl->data.assign(static_cast<size_t>(rows) * cols,
                    std::numeric_limits<float>::quiet_NaN());
#endif
  impl->requires_grad = requires_grad;
  Tensor out(std::move(impl));
  if (requires_grad) {
    out.impl()->parents = std::move(parents);
    out.impl()->EnsureGrad();
    g_graph_nodes_recorded.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

uint64_t GraphNodesRecorded() {
  return g_graph_nodes_recorded.load(std::memory_order_relaxed);
}

}  // namespace internal
}  // namespace kvec
