/**
 * @file
 * A trainable transformer sequence classifier built on the autograd tape.
 *
 * This is the model the accuracy studies (paper Tables 4 and 5) run on:
 * every linear layer inside the encoder blocks can execute in one of three
 * modes — Dense (original model), HardLut (eLUT-NN's deployment semantics:
 * hard nearest-centroid replacement, STE in backward), or SoftLut (the
 * baseline LUT-NN's differentiable soft assignment).
 */

#ifndef PIMDL_NN_CLASSIFIER_H
#define PIMDL_NN_CLASSIFIER_H

#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "tensor/tensor.h"

namespace pimdl {

/** Execution mode of a replaceable linear layer. */
enum class LinearMode
{
    Dense,   ///< y = x W + b (original model).
    HardLut, ///< y = H(x) W + b with STE backward (eLUT-NN).
    SoftLut, ///< y = soft(x) W + b (baseline LUT-NN calibration).
};

/** Hyper-parameters of the trainable classifier. */
struct ClassifierConfig
{
    std::size_t input_dim = 16;
    std::size_t hidden = 32;
    std::size_t ffn = 64;
    std::size_t layers = 2;
    std::size_t classes = 4;
    std::size_t seq_len = 8;
    /** Attention heads (hidden must be divisible by heads). */
    std::size_t heads = 1;
    /** LUT-NN sub-vector length V over the hidden dim. */
    std::size_t subvec_len = 2;
    /** LUT-NN centroids per codebook CT. */
    std::size_t centroids = 8;
    std::uint64_t seed = 7;
};

/** One replaceable linear layer with optional per-layer codebooks. */
struct ReplaceableLinear
{
    /** Input dim H and output dim F. */
    std::size_t in_dim = 0;
    std::size_t out_dim = 0;
    ag::Variable weight; ///< H x F.
    ag::Variable bias;   ///< 1 x F.
    /** Centroid leaf: (CB*CT) x V. Empty until initCodebooks. */
    ag::Variable centroids;
};

/** One encoder block's parameters (single-head attention). */
struct EncoderBlock
{
    ReplaceableLinear wq, wk, wv, wo, ffn1, ffn2;
    ag::Variable ln1_gamma, ln1_beta;
    ag::Variable ln2_gamma, ln2_beta;
};

/** Result of a batched forward pass used for training. */
struct ForwardResult
{
    /** Scalar loss (task loss, plus recon term when requested). */
    ag::Variable loss;
    /** Batch classification accuracy in [0, 1]. */
    float accuracy = 0.0f;
};

/**
 * A labelled dataset of fixed-length sequences. Sample i occupies rows
 * [i*seq_len, (i+1)*seq_len) of @p features.
 */
struct SequenceDataset
{
    std::size_t seq_len = 0;
    Tensor features; ///< (samples * seq_len) x input_dim.
    std::vector<std::size_t> labels;

    std::size_t size() const { return labels.size(); }

    /** Copy of the i-th sequence as a seq_len x input_dim tensor. */
    Tensor sequence(std::size_t i) const;
};

/**
 * Small post-LN transformer encoder classifier with a mean-pool head.
 */
class TransformerClassifier
{
  public:
    explicit TransformerClassifier(const ClassifierConfig &config);

    const ClassifierConfig &config() const { return config_; }

    /**
     * Runs the batch [begin, end) of @p data through the model, producing
     * the mean task loss. When @p recon_beta > 0 and mode is a LUT mode,
     * adds beta * sum of per-layer reconstruction losses (Eq. 1).
     */
    ForwardResult forwardBatch(const SequenceDataset &data,
                               std::size_t begin, std::size_t end,
                               LinearMode mode, float recon_beta = 0.0f);

    /** Classification accuracy over the whole dataset (no gradients). */
    float evaluate(const SequenceDataset &data, LinearMode mode);

    /** All trainable parameters excluding centroids. */
    std::vector<ag::Variable> modelParams();

    /** The per-layer centroid leaves (empty before initCodebooks). */
    std::vector<ag::Variable> centroidParams();

    /**
     * Runs the dataset in Dense mode collecting the activations feeding
     * every replaceable linear layer, in layer order. At most
     * @p max_samples sequences are used.
     */
    std::vector<Tensor> collectActivations(const SequenceDataset &data,
                                           std::size_t max_samples);

    /**
     * Installs per-layer centroid leaves (same order as
     * collectActivations / replaceableLayers). Each leaf must be
     * (CB*CT) x V for that layer. The eLUT-NN calibrator builds these
     * from k-means over collected activations.
     */
    void setCodebooks(std::vector<Tensor> leaves);

    /** All replaceable linear layers in deterministic order. */
    std::vector<ReplaceableLinear *> replaceableLayers();

    /**
     * Returns a fresh model with copies of this model's parameter
     * values (weights, biases, layernorm affines; codebooks are NOT
     * copied). Used to branch several calibration settings off one
     * pre-trained checkpoint.
     */
    TransformerClassifier cloneWeights() const;

  private:
    ClassifierConfig config_;
    ReplaceableLinear input_proj_; ///< Kept dense (embedding analog).
    std::vector<EncoderBlock> blocks_;
    ReplaceableLinear head_;       ///< Kept dense (classifier layer).

    ag::Variable forwardSequence(const Tensor &seq, LinearMode mode,
                                 std::vector<ag::Variable> *recon_terms);

    ag::Variable applyLinear(ReplaceableLinear &layer, ag::Variable x,
                             LinearMode mode,
                             std::vector<ag::Variable> *recon_terms);

    ReplaceableLinear makeLinear(std::size_t in_dim, std::size_t out_dim,
                                 Rng &rng);
};

} // namespace pimdl

#endif // PIMDL_NN_CLASSIFIER_H
