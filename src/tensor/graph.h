#ifndef SSIN_TENSOR_GRAPH_H_
#define SSIN_TENSOR_GRAPH_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace ssin {

class Graph;

/// Lightweight handle to a node in an autograd Graph. Copyable; valid for
/// the lifetime of the Graph that produced it.
struct Var {
  Graph* graph = nullptr;
  int id = -1;

  bool valid() const { return graph != nullptr && id >= 0; }
  const Tensor& value() const;
};

/// Reverse-mode autograd tape.
///
/// A Graph records one forward pass: each op appends a node holding its
/// output value and a backward closure. Backward(loss) seeds d(loss)=1 and
/// sweeps the tape in reverse creation order (creation order is a valid
/// topological order because ops can only consume already-created nodes).
///
/// Graphs are single-threaded and cheap to construct; training builds a
/// fresh Graph per sequence. Parameter tensors live outside the graph — a
/// Leaf node can be bound to an external gradient accumulator so several
/// sequential forward/backward passes accumulate into the same buffer
/// (mini-batch gradient accumulation).
class Graph {
 public:
  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// A differentiable leaf. If `external_grad` is non-null it must outlive
  /// the graph and match `value`'s shape; Backward() accumulates into it.
  /// Honors any redirect installed with RedirectGradient() beforehand.
  Var Leaf(const Tensor& value, Tensor* external_grad = nullptr);

  /// Registers a gradient redirect: a Leaf subsequently created with
  /// external accumulator `from` accumulates into `to` (same shape)
  /// instead. This is how data-parallel training points the shared
  /// parameters of a model at per-thread gradient buffers: each worker's
  /// graph redirects every Parameter::grad to its slot's buffer, and the
  /// buffers are reduced into the real grads after the workers join.
  /// Must be called before the affected leaves are created.
  void RedirectGradient(Tensor* from, Tensor* to);

  /// A non-differentiable input (no gradient is tracked or propagated).
  Var Constant(const Tensor& value);

  /// Appends an op node. `backward` may be empty for non-differentiable
  /// outputs. Used by the op library; rarely called directly.
  Var AddNode(Tensor value, bool requires_grad,
              std::function<void(Graph*)> backward);

  /// Runs the reverse sweep from `loss`, which must be a scalar (numel 1).
  /// Gradients of leaves with external accumulators are added to them.
  void Backward(Var loss);

  const Tensor& value(int id) const { return nodes_[id].value; }
  Tensor& mutable_value(int id) { return nodes_[id].value; }
  bool requires_grad(int id) const { return nodes_[id].requires_grad; }

  /// Gradient tensor of a node; allocated (zero) on first access.
  Tensor& grad(int id);

  /// Accumulates `delta` into node `id`'s gradient if it requires grad.
  void AccumulateGrad(int id, const Tensor& delta);

  int size() const { return static_cast<int>(nodes_.size()); }

 private:
  struct Node {
    Tensor value;
    Tensor grad;  // Lazily sized.
    bool requires_grad = false;
    bool grad_initialized = false;
    std::function<void(Graph*)> backward;
    Tensor* external_grad = nullptr;
  };

  std::vector<Node> nodes_;
  std::unordered_map<Tensor*, Tensor*> grad_redirects_;
};

}  // namespace ssin

#endif  // SSIN_TENSOR_GRAPH_H_
