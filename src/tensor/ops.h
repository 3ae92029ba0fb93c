/**
 * @file
 * Elementwise and row-wise tensor operators used by the transformer
 * inference path: activation functions, normalization, softmax, residual
 * addition, and small reductions.
 */

#ifndef PIMDL_TENSOR_OPS_H
#define PIMDL_TENSOR_OPS_H

#include <vector>

#include "tensor/tensor.h"

namespace pimdl {

/** Returns a + b elementwise (residual connection). */
Tensor add(const Tensor &a, const Tensor &b);

/** In-place a += b. */
void addInPlace(Tensor &a, const Tensor &b);

/** Applies ReLU elementwise. */
Tensor relu(const Tensor &x);

/** Applies the tanh-approximated GELU elementwise (as in BERT). */
Tensor gelu(const Tensor &x);

/**
 * The same GELU computed in place in @p x's buffer, so a forward that
 * replaces an activation with its GELU allocates no second tensor.
 * Bit-identical to gelu(const Tensor &).
 */
Tensor gelu(Tensor &&x);

/** Derivative of the tanh-approximated GELU, elementwise. */
Tensor geluGrad(const Tensor &x);

/** Row-wise numerically stable softmax. */
Tensor softmaxRows(const Tensor &x);

/**
 * Row-wise layer normalization with affine parameters gamma/beta of
 * length x.cols(); epsilon guards the variance.
 */
Tensor layerNormRows(const Tensor &x, const std::vector<float> &gamma,
                     const std::vector<float> &beta, float epsilon = 1e-5f);

/** Returns the argmax column index of each row. */
std::vector<std::size_t> argmaxRows(const Tensor &x);

/** Scales every element by @p s. */
Tensor scale(const Tensor &x, float s);

/** Mean of all elements. */
float mean(const Tensor &x);

} // namespace pimdl

#endif // PIMDL_TENSOR_OPS_H
