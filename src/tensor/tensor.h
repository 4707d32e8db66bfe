// A small dense 2-D float tensor with reverse-mode automatic
// differentiation.
//
// This is the computational substrate for the whole library: the paper's
// model (masked self-attention encoder, LSTM-style fusion, REINFORCE policy)
// is expressed entirely in terms of the operators in `tensor/ops.h`, each of
// which records a node on an implicit tape so that `Tensor::Backward()` can
// propagate gradients to every parameter.
//
// Design notes:
//  * Tensors are 2-D, row-major, float32. Vectors are [1, n] matrices and
//    scalars are [1, 1]; this keeps shape logic trivial and is all the model
//    needs.
//  * `Tensor` is a cheap shared handle (shared_ptr to the implementation).
//    Copying a Tensor aliases storage; `Clone()` deep-copies.
//  * Gradients are accumulated (`+=`) so a value used twice receives both
//    contributions; call `ZeroGrad()` between steps (optimizers do this).
//  * The graph is retained by parent pointers from outputs to inputs, so a
//    forward pass keeps its intermediates alive until the outputs go out of
//    scope. Use `Detach()` to cut the graph (e.g., streaming inference).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace kvec {

struct TensorImpl {
  TensorImpl() = default;

  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  int rows = 0;
  int cols = 0;
  std::vector<float> data;
  std::vector<float> grad;  // allocated lazily; same layout as `data`
  bool requires_grad = false;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  // Propagates `grad` of this node into the parents' `grad`.
  std::function<void()> backward_fn;

  void EnsureGrad();
};

// RAII guard that disables autograd tape construction on this thread: while
// at least one InferenceMode is alive, every op produces a plain leaf tensor
// (requires_grad == false, no parents, no backward_fn) regardless of its
// inputs. The serving path (OnlineClassifier / StreamServer) runs under this
// guard so a stream of items builds zero graph nodes — no retroactive
// Detach() needed. Guards nest; the tape resumes when the outermost one
// dies.
class InferenceMode {
 public:
  InferenceMode();
  ~InferenceMode();

  InferenceMode(const InferenceMode&) = delete;
  InferenceMode& operator=(const InferenceMode&) = delete;

  // True when the current thread is inside at least one InferenceMode.
  static bool Enabled();
};

class Tensor {
 public:
  // An empty (undefined) tensor; most APIs reject it.
  Tensor() = default;

  // ---- Factory functions ----
  static Tensor Zeros(int rows, int cols, bool requires_grad = false);
  static Tensor Full(int rows, int cols, float value,
                     bool requires_grad = false);
  static Tensor FromData(int rows, int cols, std::vector<float> data,
                         bool requires_grad = false);
  static Tensor Scalar(float value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  int rows() const;
  int cols() const;
  int size() const { return rows() * cols(); }
  bool requires_grad() const;

  // Element access (bounds-checked); primarily for tests and glue code.
  float At(int row, int col) const;
  void Set(int row, int col, float value);
  float ScalarValue() const;  // requires a [1,1] tensor

  std::vector<float>& data();
  const std::vector<float>& data() const;
  const std::vector<float>& grad() const;

  // Deep copy of values; the copy is a graph leaf.
  Tensor Clone() const;

  // Same values, no graph history, not requiring grad.
  Tensor Detach() const;

  // Runs reverse-mode autodiff from this scalar ([1,1]) tensor. Gradients
  // accumulate into every reachable tensor with requires_grad == true.
  void Backward();

  // Zeroes this tensor's gradient buffer (if any).
  void ZeroGrad();

  std::shared_ptr<TensorImpl> impl() const { return impl_; }
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<TensorImpl> impl_;
};

namespace internal {

// Creates an op output node. `parents` are recorded only when gradients are
// required so inference builds no graph. The request is ignored (plain leaf
// returned) under InferenceMode.
Tensor MakeOpOutput(int rows, int cols,
                    std::vector<std::shared_ptr<TensorImpl>> parents,
                    bool requires_grad);

// Process-wide count of graph nodes recorded so far (op outputs that kept
// parents + a backward hook). Monotonic; take a delta around a code region
// to assert it built zero tape (see inference_mode_test.cc).
uint64_t GraphNodesRecorded();

}  // namespace internal
}  // namespace kvec

