#include "nn/module.h"

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/fused_conv.h"

namespace hsconas::nn {

void Module::collect_params(std::vector<Parameter*>& out) { (void)out; }

long Module::param_count() {
  std::vector<Parameter*> ps;
  collect_params(ps);
  long total = 0;
  for (const Parameter* p : ps) total += p->numel();
  return total;
}

tensor::Tensor Sequential::forward(const tensor::Tensor& x) {
  // The first child reads the caller's input in place; `in` then follows
  // each child's output.
  tensor::Tensor h;
  const tensor::Tensor* in = &x;
  const bool fuse = !training_ && fuse_;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    // Eval-mode peephole (opt-in via set_fusion): a
    // Conv2d → BatchNorm2d [→ ReLU | HSwish] run collapses into one
    // fused epilogue pass. Never taken in training mode — the fused path
    // caches no activations for backward.
    if (fuse && i + 1 < children_.size()) {
      auto* conv = dynamic_cast<Conv2d*>(children_[i].get());
      auto* bn = conv != nullptr
                     ? dynamic_cast<BatchNorm2d*>(children_[i + 1].get())
                     : nullptr;
      if (conv != nullptr && bn != nullptr) {
        tensor::EpilogueAct act = tensor::EpilogueAct::kNone;
        std::size_t consumed = 2;
        if (i + 2 < children_.size()) {
          if (dynamic_cast<ReLU*>(children_[i + 2].get()) != nullptr) {
            act = tensor::EpilogueAct::kReLU;
            consumed = 3;
          } else if (dynamic_cast<HSwish*>(children_[i + 2].get()) !=
                     nullptr) {
            act = tensor::EpilogueAct::kHSwish;
            consumed = 3;
          }
        }
        h = fused_conv_bn_act(*conv, *bn, act, *in);
        in = &h;
        i += consumed - 1;
        continue;
      }
    }
    h = children_[i]->forward(*in);
    in = &h;
  }
  if (in == &x) return x;
  return h;
}

tensor::Tensor Sequential::backward(const tensor::Tensor& dy) {
  tensor::Tensor g = dy;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::collect_params(std::vector<Parameter*>& out) {
  for (auto& child : children_) child->collect_params(out);
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& child : children_) child->set_training(training);
}

void Sequential::visit(const std::function<void(Module&)>& fn) {
  fn(*this);
  for (auto& child : children_) child->visit(fn);
}

}  // namespace hsconas::nn
