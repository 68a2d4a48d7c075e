#include "tensor/graph.h"

#include <utility>

#include "common/telemetry.h"

namespace ssin {

const Tensor& Var::value() const {
  SSIN_CHECK(valid());
  return graph->value(id);
}

void Graph::RedirectGradient(Tensor* from, Tensor* to) {
  SSIN_CHECK(from != nullptr && to != nullptr);
  SSIN_CHECK(from->SameShape(*to))
      << "redirect shape " << from->ShapeString() << " vs "
      << to->ShapeString();
  grad_redirects_[from] = to;
}

Var Graph::Leaf(const Tensor& value, Tensor* external_grad) {
  if (external_grad != nullptr && !grad_redirects_.empty()) {
    auto it = grad_redirects_.find(external_grad);
    if (it != grad_redirects_.end()) external_grad = it->second;
  }
  if (external_grad != nullptr) {
    SSIN_CHECK(external_grad->SameShape(value))
        << "external grad shape " << external_grad->ShapeString()
        << " vs value " << value.ShapeString();
  }
  Node node;
  node.value = value;
  node.requires_grad = true;
  node.external_grad = external_grad;
  nodes_.push_back(std::move(node));
  return Var{this, static_cast<int>(nodes_.size()) - 1};
}

Var Graph::Constant(const Tensor& value) {
  Node node;
  node.value = value;
  node.requires_grad = false;
  nodes_.push_back(std::move(node));
  return Var{this, static_cast<int>(nodes_.size()) - 1};
}

Var Graph::AddNode(Tensor value, bool requires_grad,
                   std::function<void(Graph*)> backward) {
  Node node;
  node.value = std::move(value);
  node.requires_grad = requires_grad;
  node.backward = std::move(backward);
  nodes_.push_back(std::move(node));
  return Var{this, static_cast<int>(nodes_.size()) - 1};
}

Tensor& Graph::grad(int id) {
  Node& node = nodes_[id];
  if (!node.grad_initialized) {
    node.grad = Tensor(node.value.shape());
    node.grad_initialized = true;
  }
  return node.grad;
}

void Graph::AccumulateGrad(int id, const Tensor& delta) {
  if (!nodes_[id].requires_grad) return;
  grad(id).Accumulate(delta);
}

void Graph::Backward(Var loss) {
  SSIN_TRACE_SPAN("autograd.backward");
  SSIN_CHECK(loss.valid() && loss.graph == this);
  SSIN_CHECK_EQ(value(loss.id).numel(), 1)
      << "Backward() expects a scalar loss";
  grad(loss.id)[0] = 1.0;
  for (int id = static_cast<int>(nodes_.size()) - 1; id >= 0; --id) {
    Node& node = nodes_[id];
    if (!node.requires_grad || !node.grad_initialized) continue;
    if (node.backward) node.backward(this);
    if (node.external_grad != nullptr) {
      node.external_grad->Accumulate(node.grad);
    }
  }
}

}  // namespace ssin
