#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace kvec {
namespace ops {
namespace {

using internal::MakeOpOutput;

// True when the op should record a tape node: some input needs gradients and
// the thread is not inside an InferenceMode guard.
bool AnyRequiresGrad(std::initializer_list<const Tensor*> tensors) {
  if (InferenceMode::Enabled()) return false;
  for (const Tensor* t : tensors) {
    if (t->requires_grad()) return true;
  }
  return false;
}

// Row-parallel helper for softmax/layernorm-shaped loops: fn(r0, r1) must
// process rows [r0, r1) independently. Small matrices run inline with no
// dispatch overhead (ParallelForThreshold is templated on fn).
template <typename Fn>
void ForEachRowBlock(int rows, int cols, Fn&& fn) {
  const int grain = std::max(1, (1 << 13) / std::max(1, cols));
  ParallelForThreshold(static_cast<long long>(rows) * cols,
                       /*work_threshold=*/1 << 14, rows, grain,
                       std::forward<Fn>(fn));
}

// Span-parallel helper for large elementwise loops.
template <typename Fn>
void ForEachSpan(size_t size, Fn&& fn) {
  ParallelForThreshold(static_cast<long long>(size),
                       /*work_threshold=*/1 << 15, static_cast<int>(size),
                       /*grain=*/1 << 14, std::forward<Fn>(fn));
}

// Row-wise softmax of `scores` (+ optional additive constant mask) shared by
// Softmax / MaskedSoftmax / LogSoftmax forward passes.
void SoftmaxForward(const std::vector<float>& scores, const float* mask,
                    int rows, int cols, std::vector<float>& out) {
  const float* in = scores.data();
  float* out_base = out.data();
  ForEachRowBlock(rows, cols, [=](int r0, int r1) {
    for (int r = r0; r < r1; ++r) {
      const float* in_row = in + static_cast<size_t>(r) * cols;
      const float* mask_row =
          mask ? mask + static_cast<size_t>(r) * cols : nullptr;
      float* out_row = out_base + static_cast<size_t>(r) * cols;
      float max_value = -std::numeric_limits<float>::infinity();
      for (int c = 0; c < cols; ++c) {
        float v = in_row[c] + (mask_row ? mask_row[c] : 0.0f);
        out_row[c] = v;
        max_value = std::max(max_value, v);
      }
      float total = 0.0f;
      for (int c = 0; c < cols; ++c) {
        out_row[c] = std::exp(out_row[c] - max_value);
        total += out_row[c];
      }
      KVEC_CHECK_GT(total, 0.0f) << "softmax over a fully masked row";
      const float inv_total = 1.0f / total;
      for (int c = 0; c < cols; ++c) out_row[c] *= inv_total;
    }
  });
}

// dX for a softmax output Y with upstream dY: dx = y .* (dy - sum(dy .* y)).
void SoftmaxBackwardRow(const float* y, const float* dy, int cols, float* dx) {
  float dot = 0.0f;
  for (int c = 0; c < cols; ++c) dot += dy[c] * y[c];
  for (int c = 0; c < cols; ++c) dx[c] += y[c] * (dy[c] - dot);
}

// Whole-matrix softmax backward shared by Softmax / MaskedSoftmax.
void SoftmaxBackwardAll(TensorImpl* ia, TensorImpl* io, int m, int n) {
  ia->EnsureGrad();
  const float* y = io->data.data();
  const float* dy = io->grad.data();
  float* dx = ia->grad.data();
  ForEachRowBlock(m, n, [=](int r0, int r1) {
    for (int r = r0; r < r1; ++r) {
      SoftmaxBackwardRow(y + static_cast<size_t>(r) * n,
                         dy + static_cast<size_t>(r) * n, n,
                         dx + static_cast<size_t>(r) * n);
    }
  });
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  KVEC_CHECK_EQ(a.cols(), b.rows()) << "MatMul shape mismatch";
  const int m = a.rows(), k = a.cols(), n = b.cols();
  bool needs_grad = AnyRequiresGrad({&a, &b});
  Tensor out = MakeOpOutput(m, n, {a.impl(), b.impl()}, needs_grad);
  kernels::GemmNN(a.data().data(), b.data().data(), out.data().data(), m, k, n,
                  /*accumulate=*/false);
  if (needs_grad) {
    auto ia = a.impl(), ib = b.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, ib, io, m, k, n]() {
      const float* dy = io->grad.data();
      if (ia->requires_grad) {
        ia->EnsureGrad();
        // dA += dY B^T
        kernels::GemmNT(dy, ib->data.data(), ia->grad.data(), m, n, k,
                        /*accumulate=*/true);
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        // dB += A^T dY
        kernels::GemmTN(ia->data.data(), dy, ib->grad.data(), k, m, n,
                        /*accumulate=*/true);
      }
    };
  }
  return out;
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  KVEC_CHECK_EQ(a.cols(), b.cols()) << "MatMulTransposeB shape mismatch";
  const int m = a.rows(), k = a.cols(), n = b.rows();
  bool needs_grad = AnyRequiresGrad({&a, &b});
  Tensor out = MakeOpOutput(m, n, {a.impl(), b.impl()}, needs_grad);
  kernels::GemmNT(a.data().data(), b.data().data(), out.data().data(), m, k, n,
                  /*accumulate=*/false);
  if (needs_grad) {
    auto ia = a.impl(), ib = b.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, ib, io, m, k, n]() {
      const float* dy = io->grad.data();
      if (ia->requires_grad) {
        ia->EnsureGrad();
        // dA += dY B
        kernels::GemmNN(dy, ib->data.data(), ia->grad.data(), m, n, k,
                        /*accumulate=*/true);
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        // dB += dY^T A
        kernels::GemmTN(dy, ia->data.data(), ib->grad.data(), n, m, k,
                        /*accumulate=*/true);
      }
    };
  }
  return out;
}

Tensor LinearForward(const Tensor& x, const Tensor& weight,
                     const Tensor& bias) {
  KVEC_CHECK_EQ(x.cols(), weight.rows()) << "LinearForward shape mismatch";
  const int m = x.rows(), k = x.cols(), n = weight.cols();
  const bool has_bias = bias.defined();
  if (has_bias) {
    KVEC_CHECK_EQ(bias.rows(), 1);
    KVEC_CHECK_EQ(bias.cols(), n);
  }
  bool needs_grad = has_bias ? AnyRequiresGrad({&x, &weight, &bias})
                             : AnyRequiresGrad({&x, &weight});
  std::vector<std::shared_ptr<TensorImpl>> parents = {x.impl(), weight.impl()};
  if (has_bias) parents.push_back(bias.impl());
  Tensor out = MakeOpOutput(m, n, std::move(parents), needs_grad);
  kernels::GemmNN(x.data().data(), weight.data().data(), out.data().data(), m,
                  k, n, /*accumulate=*/false);
  if (has_bias) {
    kernels::AddBiasRows(out.data().data(), bias.data().data(), m, n);
  }
  if (needs_grad) {
    auto ix = x.impl(), iw = weight.impl();
    auto ib = has_bias ? bias.impl() : nullptr;
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ix, iw, ib, io, m, k, n]() {
      const float* dy = io->grad.data();
      if (ix->requires_grad) {
        ix->EnsureGrad();
        // dX += dY W^T
        kernels::GemmNT(dy, iw->data.data(), ix->grad.data(), m, n, k,
                        /*accumulate=*/true);
      }
      if (iw->requires_grad) {
        iw->EnsureGrad();
        // dW += X^T dY
        kernels::GemmTN(ix->data.data(), dy, iw->grad.data(), k, m, n,
                        /*accumulate=*/true);
      }
      if (ib != nullptr && ib->requires_grad) {
        ib->EnsureGrad();
        for (int i = 0; i < m; ++i) {
          const float* dy_row = dy + static_cast<size_t>(i) * n;
          for (int j = 0; j < n; ++j) ib->grad[j] += dy_row[j];
        }
      }
    };
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  bool needs_grad = AnyRequiresGrad({&a});
  Tensor out = MakeOpOutput(n, m, {a.impl()}, needs_grad);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) out.Set(j, i, a.At(i, j));
  }
  if (needs_grad) {
    auto ia = a.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, io, m, n]() {
      ia->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          ia->grad[static_cast<size_t>(i) * n + j] +=
              io->grad[static_cast<size_t>(j) * m + i];
        }
      }
    };
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  KVEC_CHECK_EQ(a.rows(), b.rows());
  KVEC_CHECK_EQ(a.cols(), b.cols());
  bool needs_grad = AnyRequiresGrad({&a, &b});
  Tensor out =
      MakeOpOutput(a.rows(), a.cols(), {a.impl(), b.impl()}, needs_grad);
  for (int i = 0; i < a.size(); ++i) {
    out.data()[i] = a.data()[i] + b.data()[i];
  }
  if (needs_grad) {
    auto ia = a.impl(), ib = b.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, ib, io]() {
      if (ia->requires_grad) {
        ia->EnsureGrad();
        for (size_t i = 0; i < io->grad.size(); ++i) {
          ia->grad[i] += io->grad[i];
        }
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (size_t i = 0; i < io->grad.size(); ++i) {
          ib->grad[i] += io->grad[i];
        }
      }
    };
  }
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  KVEC_CHECK_EQ(a.rows(), b.rows());
  KVEC_CHECK_EQ(a.cols(), b.cols());
  bool needs_grad = AnyRequiresGrad({&a, &b});
  Tensor out =
      MakeOpOutput(a.rows(), a.cols(), {a.impl(), b.impl()}, needs_grad);
  for (int i = 0; i < a.size(); ++i) {
    out.data()[i] = a.data()[i] - b.data()[i];
  }
  if (needs_grad) {
    auto ia = a.impl(), ib = b.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, ib, io]() {
      if (ia->requires_grad) {
        ia->EnsureGrad();
        for (size_t i = 0; i < io->grad.size(); ++i) {
          ia->grad[i] += io->grad[i];
        }
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (size_t i = 0; i < io->grad.size(); ++i) {
          ib->grad[i] -= io->grad[i];
        }
      }
    };
  }
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  KVEC_CHECK_EQ(a.rows(), b.rows());
  KVEC_CHECK_EQ(a.cols(), b.cols());
  bool needs_grad = AnyRequiresGrad({&a, &b});
  Tensor out =
      MakeOpOutput(a.rows(), a.cols(), {a.impl(), b.impl()}, needs_grad);
  for (int i = 0; i < a.size(); ++i) {
    out.data()[i] = a.data()[i] * b.data()[i];
  }
  if (needs_grad) {
    auto ia = a.impl(), ib = b.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, ib, io]() {
      if (ia->requires_grad) {
        ia->EnsureGrad();
        for (size_t i = 0; i < io->grad.size(); ++i) {
          ia->grad[i] += io->grad[i] * ib->data[i];
        }
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (size_t i = 0; i < io->grad.size(); ++i) {
          ib->grad[i] += io->grad[i] * ia->data[i];
        }
      }
    };
  }
  return out;
}

Tensor AddRow(const Tensor& a, const Tensor& bias) {
  KVEC_CHECK_EQ(bias.rows(), 1);
  KVEC_CHECK_EQ(a.cols(), bias.cols());
  const int m = a.rows(), n = a.cols();
  bool needs_grad = AnyRequiresGrad({&a, &bias});
  Tensor out = MakeOpOutput(m, n, {a.impl(), bias.impl()}, needs_grad);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      out.data()[static_cast<size_t>(i) * n + j] =
          a.data()[static_cast<size_t>(i) * n + j] + bias.data()[j];
    }
  }
  if (needs_grad) {
    auto ia = a.impl(), ib = bias.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, ib, io, m, n]() {
      if (ia->requires_grad) {
        ia->EnsureGrad();
        for (size_t i = 0; i < io->grad.size(); ++i) {
          ia->grad[i] += io->grad[i];
        }
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) {
            ib->grad[j] += io->grad[static_cast<size_t>(i) * n + j];
          }
        }
      }
    };
  }
  return out;
}

Tensor Affine(const Tensor& a, float scale, float shift) {
  bool needs_grad = AnyRequiresGrad({&a});
  Tensor out = MakeOpOutput(a.rows(), a.cols(), {a.impl()}, needs_grad);
  for (int i = 0; i < a.size(); ++i) {
    out.data()[i] = kernels::Affine(a.data()[i], scale, shift);
  }
  if (needs_grad) {
    auto ia = a.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, io, scale]() {
      ia->EnsureGrad();
      for (size_t i = 0; i < io->grad.size(); ++i) {
        ia->grad[i] += scale * io->grad[i];
      }
    };
  }
  return out;
}

Tensor AddN(const std::vector<Tensor>& tensors) {
  KVEC_CHECK(!tensors.empty());
  const int m = tensors[0].rows(), n = tensors[0].cols();
  bool needs_grad = false;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  parents.reserve(tensors.size());
  for (const Tensor& t : tensors) {
    KVEC_CHECK_EQ(t.rows(), m);
    KVEC_CHECK_EQ(t.cols(), n);
    needs_grad = needs_grad || t.requires_grad();
    parents.push_back(t.impl());
  }
  // MakeOpOutput masks needs_grad under InferenceMode; out.requires_grad()
  // is the single authority on whether to attach a backward hook.
  Tensor out = MakeOpOutput(m, n, parents, needs_grad);
  std::copy(tensors[0].data().begin(), tensors[0].data().end(),
            out.data().begin());  // initialises the uninit op output
  for (size_t t = 1; t < tensors.size(); ++t) {
    const float* pt = tensors[t].data().data();
    float* po = out.data().data();
    for (int i = 0; i < tensors[t].size(); ++i) po[i] += pt[i];
  }
  if (out.requires_grad()) {
    TensorImpl* io = out.impl().get();
    auto impls = out.impl()->parents;
    out.impl()->backward_fn = [io, impls]() {
      for (const auto& parent : impls) {
        if (!parent->requires_grad) continue;
        parent->EnsureGrad();
        for (size_t i = 0; i < io->grad.size(); ++i) {
          parent->grad[i] += io->grad[i];
        }
      }
    };
  }
  return out;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  KVEC_CHECK_EQ(a.rows(), b.rows());
  const int m = a.rows(), na = a.cols(), nb = b.cols();
  bool needs_grad = AnyRequiresGrad({&a, &b});
  Tensor out = MakeOpOutput(m, na + nb, {a.impl(), b.impl()}, needs_grad);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < na; ++j) out.Set(i, j, a.At(i, j));
    for (int j = 0; j < nb; ++j) out.Set(i, na + j, b.At(i, j));
  }
  if (needs_grad) {
    auto ia = a.impl(), ib = b.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, ib, io, m, na, nb]() {
      const int n = na + nb;
      if (ia->requires_grad) {
        ia->EnsureGrad();
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < na; ++j) {
            ia->grad[static_cast<size_t>(i) * na + j] +=
                io->grad[static_cast<size_t>(i) * n + j];
          }
        }
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < nb; ++j) {
            ib->grad[static_cast<size_t>(i) * nb + j] +=
                io->grad[static_cast<size_t>(i) * n + na + j];
          }
        }
      }
    };
  }
  return out;
}

Tensor ConcatColsN(const std::vector<Tensor>& parts) {
  KVEC_CHECK(!parts.empty());
  if (parts.size() == 1) return parts[0];
  const int m = parts[0].rows();
  int total_cols = 0;
  bool needs_grad = false;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  parents.reserve(parts.size());
  for (const Tensor& part : parts) {
    KVEC_CHECK_EQ(part.rows(), m);
    total_cols += part.cols();
    needs_grad = needs_grad || part.requires_grad();
    parents.push_back(part.impl());
  }
  Tensor out = MakeOpOutput(m, total_cols, parents, needs_grad);
  {
    float* po = out.data().data();
    int offset = 0;
    for (const Tensor& part : parts) {
      const int w = part.cols();
      const float* pp = part.data().data();
      for (int i = 0; i < m; ++i) {
        std::copy(pp + static_cast<size_t>(i) * w,
                  pp + static_cast<size_t>(i + 1) * w,
                  po + static_cast<size_t>(i) * total_cols + offset);
      }
      offset += w;
    }
  }
  if (out.requires_grad()) {
    TensorImpl* io = out.impl().get();
    auto impls = out.impl()->parents;
    out.impl()->backward_fn = [io, impls, m, total_cols]() {
      int offset = 0;
      for (const auto& parent : impls) {
        const int w = parent->cols;
        if (parent->requires_grad) {
          parent->EnsureGrad();
          for (int i = 0; i < m; ++i) {
            const float* dy =
                io->grad.data() + static_cast<size_t>(i) * total_cols + offset;
            float* dp = parent->grad.data() + static_cast<size_t>(i) * w;
            for (int j = 0; j < w; ++j) dp[j] += dy[j];
          }
        }
        offset += w;
      }
    };
  }
  return out;
}

Tensor FusedMulAdd(const Tensor& a, const Tensor& b, const Tensor& c,
                   const Tensor& d) {
  const int m = a.rows(), n = a.cols();
  for (const Tensor* t : {&b, &c, &d}) {
    KVEC_CHECK_EQ(t->rows(), m);
    KVEC_CHECK_EQ(t->cols(), n);
  }
  bool needs_grad = AnyRequiresGrad({&a, &b, &c, &d});
  Tensor out = MakeOpOutput(
      m, n, {a.impl(), b.impl(), c.impl(), d.impl()}, needs_grad);
  {
    const float* pa = a.data().data();
    const float* pb = b.data().data();
    const float* pc = c.data().data();
    const float* pd = d.data().data();
    float* po = out.data().data();
    for (int i = 0; i < a.size(); ++i) {
      po[i] = kernels::FusedMulAdd(pa[i], pb[i], pc[i], pd[i]);
    }
  }
  if (needs_grad) {
    auto ia = a.impl(), ib = b.impl(), ic = c.impl(), id = d.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, ib, ic, id, io]() {
      const float* dy = io->grad.data();
      const size_t size = io->grad.size();
      auto accumulate = [&](TensorImpl* target, TensorImpl* factor) {
        if (!target->requires_grad) return;
        target->EnsureGrad();
        for (size_t i = 0; i < size; ++i) {
          target->grad[i] += dy[i] * factor->data[i];
        }
      };
      accumulate(ia.get(), ib.get());
      accumulate(ib.get(), ia.get());
      accumulate(ic.get(), id.get());
      accumulate(id.get(), ic.get());
    };
  }
  return out;
}

Tensor MulTanh(const Tensor& a, const Tensor& b) {
  KVEC_CHECK_EQ(a.rows(), b.rows());
  KVEC_CHECK_EQ(a.cols(), b.cols());
  bool needs_grad = AnyRequiresGrad({&a, &b});
  Tensor out =
      MakeOpOutput(a.rows(), a.cols(), {a.impl(), b.impl()}, needs_grad);
  // tanh(b) is cached for the backward pass only when one is coming;
  // inference computes it in-place with no side allocation.
  std::shared_ptr<std::vector<float>> tanh_b;
  if (needs_grad) tanh_b = std::make_shared<std::vector<float>>(a.size());
  {
    const float* pa = a.data().data();
    const float* pb = b.data().data();
    float* po = out.data().data();
    for (int i = 0; i < a.size(); ++i) {
      float t;
      po[i] = kernels::MulTanh(pa[i], pb[i], &t);
      if (tanh_b) (*tanh_b)[i] = t;
    }
  }
  if (needs_grad) {
    auto ia = a.impl(), ib = b.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, ib, io, tanh_b]() {
      const float* dy = io->grad.data();
      if (ia->requires_grad) {
        ia->EnsureGrad();
        for (size_t i = 0; i < io->grad.size(); ++i) {
          ia->grad[i] += dy[i] * (*tanh_b)[i];
        }
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (size_t i = 0; i < io->grad.size(); ++i) {
          const float t = (*tanh_b)[i];
          ib->grad[i] += dy[i] * ia->data[i] * (1.0f - t * t);
        }
      }
    };
  }
  return out;
}

Tensor StackRows(const std::vector<Tensor>& rows) {
  KVEC_CHECK(!rows.empty());
  const int n = rows[0].cols();
  bool needs_grad = false;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  parents.reserve(rows.size());
  for (const Tensor& row : rows) {
    KVEC_CHECK_EQ(row.rows(), 1);
    KVEC_CHECK_EQ(row.cols(), n);
    needs_grad = needs_grad || row.requires_grad();
    parents.push_back(row.impl());
  }
  const int m = static_cast<int>(rows.size());
  Tensor out = MakeOpOutput(m, n, parents, needs_grad);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) out.Set(i, j, rows[i].At(0, j));
  }
  if (out.requires_grad()) {
    TensorImpl* io = out.impl().get();
    auto impls = out.impl()->parents;
    out.impl()->backward_fn = [io, impls, n]() {
      for (size_t i = 0; i < impls.size(); ++i) {
        if (!impls[i]->requires_grad) continue;
        impls[i]->EnsureGrad();
        for (int j = 0; j < n; ++j) {
          impls[i]->grad[j] += io->grad[i * n + j];
        }
      }
    };
  }
  return out;
}

Tensor SliceRow(const Tensor& a, int row) { return SliceRows(a, row, row + 1); }

Tensor SliceRows(const Tensor& a, int begin, int end) {
  KVEC_CHECK_GE(begin, 0);
  KVEC_CHECK_LT(begin, end);
  KVEC_CHECK_LE(end, a.rows());
  const int n = a.cols(), m = end - begin;
  bool needs_grad = AnyRequiresGrad({&a});
  Tensor out = MakeOpOutput(m, n, {a.impl()}, needs_grad);
  std::copy(a.data().begin() + static_cast<size_t>(begin) * n,
            a.data().begin() + static_cast<size_t>(end) * n,
            out.data().begin());
  if (needs_grad) {
    auto ia = a.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, io, begin, m, n]() {
      ia->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          ia->grad[static_cast<size_t>(begin + i) * n + j] +=
              io->grad[static_cast<size_t>(i) * n + j];
        }
      }
    };
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int begin, int end) {
  KVEC_CHECK_GE(begin, 0);
  KVEC_CHECK_LT(begin, end);
  KVEC_CHECK_LE(end, a.cols());
  const int m = a.rows(), n = a.cols(), w = end - begin;
  bool needs_grad = AnyRequiresGrad({&a});
  Tensor out = MakeOpOutput(m, w, {a.impl()}, needs_grad);
  for (int i = 0; i < m; ++i) {
    std::copy(a.data().begin() + static_cast<size_t>(i) * n + begin,
              a.data().begin() + static_cast<size_t>(i) * n + end,
              out.data().begin() + static_cast<size_t>(i) * w);
  }
  if (needs_grad) {
    auto ia = a.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, io, begin, m, n, w]() {
      ia->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < w; ++j) {
          ia->grad[static_cast<size_t>(i) * n + begin + j] +=
              io->grad[static_cast<size_t>(i) * w + j];
        }
      }
    };
  }
  return out;
}

namespace {

template <typename Fwd, typename Bwd>
Tensor ElementwiseOp(const Tensor& a, Fwd forward, Bwd backward_from_output) {
  bool needs_grad = AnyRequiresGrad({&a});
  Tensor out = MakeOpOutput(a.rows(), a.cols(), {a.impl()}, needs_grad);
  {
    const float* pa = a.data().data();
    float* po = out.data().data();
    ForEachSpan(a.data().size(), [=](int i0, int i1) {
      for (int i = i0; i < i1; ++i) po[i] = forward(pa[i]);
    });
  }
  if (needs_grad) {
    auto ia = a.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, io, backward_from_output]() {
      ia->EnsureGrad();
      const float* dy = io->grad.data();
      const float* y = io->data.data();
      const float* x = ia->data.data();
      float* dx = ia->grad.data();
      ForEachSpan(io->grad.size(), [=](int i0, int i1) {
        for (int i = i0; i < i1; ++i) {
          dx[i] += dy[i] * backward_from_output(y[i], x[i]);
        }
      });
    };
  }
  return out;
}

}  // namespace

Tensor Relu(const Tensor& a) {
  return ElementwiseOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float y, float x) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Sigmoid(const Tensor& a) {
  return ElementwiseOp(
      a, [](float x) { return kernels::Sigmoid(x); },
      [](float y, float x) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return ElementwiseOp(
      a, [](float x) { return kernels::Tanh(x); },
      [](float y, float x) { return 1.0f - y * y; });
}

Tensor Log(const Tensor& a, float eps) {
  return ElementwiseOp(
      a, [eps](float x) { return std::log(std::max(x, eps)); },
      [eps](float y, float x) { return 1.0f / std::max(x, eps); });
}

Tensor Softmax(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  bool needs_grad = AnyRequiresGrad({&a});
  Tensor out = MakeOpOutput(m, n, {a.impl()}, needs_grad);
  SoftmaxForward(a.data(), nullptr, m, n, out.data());
  if (needs_grad) {
    auto ia = a.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, io, m, n]() {
      SoftmaxBackwardAll(ia.get(), io, m, n);
    };
  }
  return out;
}

Tensor MaskedSoftmax(const Tensor& a, const Tensor& mask) {
  KVEC_CHECK_EQ(a.rows(), mask.rows());
  KVEC_CHECK_EQ(a.cols(), mask.cols());
  const int m = a.rows(), n = a.cols();
  bool needs_grad = AnyRequiresGrad({&a});
  Tensor out = MakeOpOutput(m, n, {a.impl()}, needs_grad);
  SoftmaxForward(a.data(), mask.data().data(), m, n, out.data());
  if (needs_grad) {
    auto ia = a.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, io, m, n]() {
      SoftmaxBackwardAll(ia.get(), io, m, n);
    };
  }
  return out;
}

Tensor LogSoftmax(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  bool needs_grad = AnyRequiresGrad({&a});
  Tensor out = MakeOpOutput(m, n, {a.impl()}, needs_grad);
  // log softmax = x - max - log(sum exp(x - max))
  for (int r = 0; r < m; ++r) {
    const float* in_row = a.data().data() + static_cast<size_t>(r) * n;
    float* out_row = out.data().data() + static_cast<size_t>(r) * n;
    float max_value = *std::max_element(in_row, in_row + n);
    float total = 0.0f;
    for (int c = 0; c < n; ++c) total += std::exp(in_row[c] - max_value);
    float log_total = std::log(total);
    for (int c = 0; c < n; ++c) {
      out_row[c] = in_row[c] - max_value - log_total;
    }
  }
  if (needs_grad) {
    auto ia = a.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, io, m, n]() {
      ia->EnsureGrad();
      for (int r = 0; r < m; ++r) {
        const float* y = io->data.data() + static_cast<size_t>(r) * n;
        const float* dy = io->grad.data() + static_cast<size_t>(r) * n;
        float* dx = ia->grad.data() + static_cast<size_t>(r) * n;
        float total_dy = 0.0f;
        for (int c = 0; c < n; ++c) total_dy += dy[c];
        for (int c = 0; c < n; ++c) {
          dx[c] += dy[c] - std::exp(y[c]) * total_dy;
        }
      }
    };
  }
  return out;
}

Tensor Dropout(const Tensor& a, float p, Rng& rng, bool training) {
  KVEC_CHECK_GE(p, 0.0f);
  KVEC_CHECK_LT(p, 1.0f);
  if (!training || p == 0.0f) return a;
  bool needs_grad = AnyRequiresGrad({&a});
  Tensor out = MakeOpOutput(a.rows(), a.cols(), {a.impl()}, needs_grad);
  auto mask = std::make_shared<std::vector<float>>(a.size());
  const float keep_scale = 1.0f / (1.0f - p);
  for (int i = 0; i < a.size(); ++i) {
    (*mask)[i] = rng.NextBernoulli(p) ? 0.0f : keep_scale;
    out.data()[i] = a.data()[i] * (*mask)[i];
  }
  if (needs_grad) {
    auto ia = a.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, io, mask]() {
      ia->EnsureGrad();
      for (size_t i = 0; i < io->grad.size(); ++i) {
        ia->grad[i] += io->grad[i] * (*mask)[i];
      }
    };
  }
  return out;
}

Tensor LayerNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  KVEC_CHECK_EQ(gamma.rows(), 1);
  KVEC_CHECK_EQ(beta.rows(), 1);
  KVEC_CHECK_EQ(gamma.cols(), a.cols());
  KVEC_CHECK_EQ(beta.cols(), a.cols());
  const int m = a.rows(), n = a.cols();
  bool needs_grad = AnyRequiresGrad({&a, &gamma, &beta});
  Tensor out =
      MakeOpOutput(m, n, {a.impl(), gamma.impl(), beta.impl()}, needs_grad);
  // Cache the normalised activations and 1/std per row for the backward pass.
  auto normalized = std::make_shared<std::vector<float>>(a.size());
  auto inv_std = std::make_shared<std::vector<float>>(m);
  {
    const float* pa = a.data().data();
    const float* pg = gamma.data().data();
    const float* pbeta = beta.data().data();
    float* po = out.data().data();
    float* pnorm = normalized->data();
    float* pistd = inv_std->data();
    ForEachRowBlock(m, n, [=](int r0, int r1) {
      for (int r = r0; r < r1; ++r) {
        const float* x = pa + static_cast<size_t>(r) * n;
        float mean = 0.0f;
        for (int c = 0; c < n; ++c) mean += x[c];
        mean /= static_cast<float>(n);
        float var = 0.0f;
        for (int c = 0; c < n; ++c) var += (x[c] - mean) * (x[c] - mean);
        var /= static_cast<float>(n);
        float istd = 1.0f / std::sqrt(var + eps);
        pistd[r] = istd;
        float* norm_row = pnorm + static_cast<size_t>(r) * n;
        float* out_row = po + static_cast<size_t>(r) * n;
        for (int c = 0; c < n; ++c) {
          float xhat = (x[c] - mean) * istd;
          norm_row[c] = xhat;
          out_row[c] = pg[c] * xhat + pbeta[c];
        }
      }
    });
  }
  if (needs_grad) {
    auto ia = a.impl(), ig = gamma.impl(), ib = beta.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, ig, ib, io, normalized, inv_std, m, n]() {
      for (int r = 0; r < m; ++r) {
      const float* dy = io->grad.data() + static_cast<size_t>(r) * n;
      const float* xhat = normalized->data() + static_cast<size_t>(r) * n;
      if (ig->requires_grad) {
        ig->EnsureGrad();
        for (int c = 0; c < n; ++c) ig->grad[c] += dy[c] * xhat[c];
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (int c = 0; c < n; ++c) ib->grad[c] += dy[c];
      }
      if (ia->requires_grad) {
        ia->EnsureGrad();
        // dxhat = dy * gamma; dx = istd*(dxhat - mean(dxhat)
        //                               - xhat*mean(dxhat*xhat))
        float mean_dxhat = 0.0f, mean_dxhat_xhat = 0.0f;
        for (int c = 0; c < n; ++c) {
          float dxh = dy[c] * ig->data[c];
          mean_dxhat += dxh;
          mean_dxhat_xhat += dxh * xhat[c];
        }
        mean_dxhat /= static_cast<float>(n);
        mean_dxhat_xhat /= static_cast<float>(n);
        float* dx = ia->grad.data() + static_cast<size_t>(r) * n;
        for (int c = 0; c < n; ++c) {
          float dxh = dy[c] * ig->data[c];
          dx[c] += (*inv_std)[r] *
                   (dxh - mean_dxhat - xhat[c] * mean_dxhat_xhat);
        }
      }
      }
    };
  }
  return out;
}

Tensor EmbeddingGather(const Tensor& table, const std::vector<int>& indices) {
  KVEC_CHECK(!indices.empty());
  const int vocab = table.rows(), d = table.cols();
  const int m = static_cast<int>(indices.size());
  bool needs_grad = AnyRequiresGrad({&table});
  Tensor out = MakeOpOutput(m, d, {table.impl()}, needs_grad);
  for (int i = 0; i < m; ++i) {
    KVEC_CHECK_GE(indices[i], 0);
    KVEC_CHECK_LT(indices[i], vocab) << "embedding index out of range";
    std::copy(table.data().begin() + static_cast<size_t>(indices[i]) * d,
              table.data().begin() + static_cast<size_t>(indices[i] + 1) * d,
              out.data().begin() + static_cast<size_t>(i) * d);
  }
  if (needs_grad) {
    auto it = table.impl();
    TensorImpl* io = out.impl().get();
    auto idx = std::make_shared<std::vector<int>>(indices);
    out.impl()->backward_fn = [it, io, idx, d]() {
      it->EnsureGrad();
      for (size_t i = 0; i < idx->size(); ++i) {
        for (int c = 0; c < d; ++c) {
          it->grad[static_cast<size_t>((*idx)[i]) * d + c] +=
              io->grad[i * d + c];
        }
      }
    };
  }
  return out;
}

Tensor SumAll(const Tensor& a) {
  bool needs_grad = AnyRequiresGrad({&a});
  Tensor out = MakeOpOutput(1, 1, {a.impl()}, needs_grad);
  float total = 0.0f;
  for (float v : a.data()) total += v;
  out.data()[0] = total;
  if (needs_grad) {
    auto ia = a.impl();
    TensorImpl* io = out.impl().get();
    out.impl()->backward_fn = [ia, io]() {
      ia->EnsureGrad();
      for (float& g : ia->grad) g += io->grad[0];
    };
  }
  return out;
}

Tensor MeanAll(const Tensor& a) {
  return Affine(SumAll(a), 1.0f / static_cast<float>(a.size()), 0.0f);
}

Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& labels) {
  KVEC_CHECK_EQ(static_cast<size_t>(logits.rows()), labels.size());
  const int m = logits.rows(), n = logits.cols();
  bool needs_grad = AnyRequiresGrad({&logits});
  Tensor out = MakeOpOutput(1, 1, {logits.impl()}, needs_grad);
  auto probs = std::make_shared<std::vector<float>>(logits.size());
  SoftmaxForward(logits.data(), nullptr, m, n, *probs);
  float loss = 0.0f;
  for (int r = 0; r < m; ++r) {
    KVEC_CHECK_GE(labels[r], 0);
    KVEC_CHECK_LT(labels[r], n) << "label out of range";
    loss -= std::log(
        std::max((*probs)[static_cast<size_t>(r) * n + labels[r]], 1e-12f));
  }
  out.data()[0] = loss;
  if (needs_grad) {
    auto il = logits.impl();
    TensorImpl* io = out.impl().get();
    auto labels_copy = std::make_shared<std::vector<int>>(labels);
    out.impl()->backward_fn = [il, io, probs, labels_copy, m, n]() {
      il->EnsureGrad();
      const float g = io->grad[0];
      for (int r = 0; r < m; ++r) {
        for (int c = 0; c < n; ++c) {
          float delta = (c == (*labels_copy)[r]) ? 1.0f : 0.0f;
          il->grad[static_cast<size_t>(r) * n + c] +=
              g * ((*probs)[static_cast<size_t>(r) * n + c] - delta);
        }
      }
    };
  }
  return out;
}

Tensor MseLoss(const Tensor& pred, const std::vector<float>& targets) {
  KVEC_CHECK_EQ(pred.cols(), 1);
  KVEC_CHECK_EQ(static_cast<size_t>(pred.rows()), targets.size());
  const int m = pred.rows();
  bool needs_grad = AnyRequiresGrad({&pred});
  Tensor out = MakeOpOutput(1, 1, {pred.impl()}, needs_grad);
  float loss = 0.0f;
  for (int r = 0; r < m; ++r) {
    float diff = pred.data()[r] - targets[r];
    loss += diff * diff;
  }
  out.data()[0] = loss / static_cast<float>(m);
  if (needs_grad) {
    auto ip = pred.impl();
    TensorImpl* io = out.impl().get();
    auto targets_copy = std::make_shared<std::vector<float>>(targets);
    out.impl()->backward_fn = [ip, io, targets_copy, m]() {
      ip->EnsureGrad();
      const float g = io->grad[0] * 2.0f / static_cast<float>(m);
      for (int r = 0; r < m; ++r) {
        ip->grad[r] += g * (ip->data[r] - (*targets_copy)[r]);
      }
    };
  }
  return out;
}

int ArgMaxRow(const Tensor& a, int row) {
  KVEC_CHECK_GE(row, 0);
  KVEC_CHECK_LT(row, a.rows());
  return ArgMaxRow(a.data().data() + static_cast<size_t>(row) * a.cols(),
                   a.cols());
}

int ArgMaxRow(const float* row, int cols) {
  int best = 0;
  float best_value = row[0];
  for (int c = 1; c < cols; ++c) {
    if (row[c] > best_value) {
      best_value = row[c];
      best = c;
    }
  }
  return best;
}

}  // namespace ops
}  // namespace kvec
