#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace hsconas::nn {

struct QuantState;

/// A trainable tensor plus its gradient accumulator.
///
/// Weight sharing in the supernet works by module *identity*: every subnet
/// evaluation routes activations through the same Module objects, so they
/// read and update the same Parameters. Nothing is ever copied out.
struct Parameter {
  std::string name;
  tensor::Tensor value;
  tensor::Tensor grad;
  /// BN affine terms and biases are conventionally excluded from L2 decay.
  bool apply_weight_decay = true;

  Parameter() = default;
  Parameter(std::string n, tensor::Tensor v, bool decay = true)
      : name(std::move(n)),
        value(std::move(v)),
        grad(value.shape()),
        apply_weight_decay(decay) {}

  void zero_grad() { grad.zero(); }
  long numel() const { return value.numel(); }
};

/// Base class for all layers and blocks.
///
/// The autograd model is deliberately simple: modules cache whatever they
/// need during forward() and consume it in the next backward() call.
/// A module instance therefore supports exactly one in-flight
/// forward/backward pair — which matches how one-shot NAS training uses it
/// (one sampled path per step).
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Compute the output; caches activations needed by backward().
  virtual tensor::Tensor forward(const tensor::Tensor& x) = 0;

  /// Propagate the loss gradient; accumulates into Parameter::grad and
  /// returns the gradient w.r.t. the forward input.
  virtual tensor::Tensor backward(const tensor::Tensor& dy) = 0;

  /// Append raw pointers to this module's trainable parameters (and those
  /// of any children). Pointers stay valid for the module's lifetime.
  virtual void collect_params(std::vector<Parameter*>& out);

  /// Toggle training/eval behaviour (BatchNorm statistics etc.).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Depth-first traversal over this module and all children; used for
  /// cross-cutting operations (BN-statistics recalibration, diagnostics).
  virtual void visit(const std::function<void(Module&)>& fn) { fn(*this); }

  /// Post-training-quantization state, for modules that have an int8
  /// datapath (Conv2d, Linear). Null for everything else; the calibration
  /// driver and serializers discover quantizable layers through visit() +
  /// this hook, so they need no knowledge of concrete layer types.
  virtual QuantState* quant_state() { return nullptr; }

  virtual std::string name() const = 0;

  /// Total parameter element count (convenience for reports).
  long param_count();

 protected:
  bool training_ = true;
};

/// Chains child modules in order. Owns them.
class Sequential : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::string display_name)
      : display_name_(std::move(display_name)) {}

  /// Append a child; returns a raw observer pointer for later access.
  template <typename M>
  M* add(std::unique_ptr<M> child) {
    M* raw = child.get();
    children_.push_back(std::move(child));
    return raw;
  }

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_params(std::vector<Parameter*>& out) override;
  void set_training(bool training) override;
  void visit(const std::function<void(Module&)>& fn) override;
  std::string name() const override { return display_name_; }

  /// Opt this chain (not nested chains: see nn::fusion_setter) into the
  /// eval-mode peephole that runs each Conv2d → BatchNorm2d
  /// [→ ReLU | HSwish] run as one fused_conv_bn_act call. Default off.
  void set_fusion(bool on) { fuse_ = on; }

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_.at(i); }

 private:
  // First: it packs into Module's tail padding, so the flag does not
  // grow Sequential.
  bool fuse_ = false;
  std::string display_name_ = "sequential";
  std::vector<std::unique_ptr<Module>> children_;
};

/// Pass-through layer; the "skip" operator of the search space.
class Identity : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x) override { return x; }
  tensor::Tensor backward(const tensor::Tensor& dy) override { return dy; }
  std::string name() const override { return "identity"; }
};

}  // namespace hsconas::nn
