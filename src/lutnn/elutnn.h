/**
 * @file
 * Model calibration algorithms (paper Section 4.2).
 *
 *  - trainDense: pre-trains the original ("Original" rows of Tables 4/5)
 *    model on a task.
 *  - calibrateElutNn: the paper's contribution — full-layer replacement
 *    with hard centroid assignment, Straight-Through Estimator gradients,
 *    and the reconstruction loss of Eq. (1), run on a small calibration
 *    fraction of the training data.
 *  - calibrateBaselineLutNn: the prior-work baseline — Gumbel-softmax
 *    style soft assignment without the reconstruction loss, trained on
 *    the full training set, then deployed with hard assignment.
 */

#ifndef PIMDL_LUTNN_ELUTNN_H
#define PIMDL_LUTNN_ELUTNN_H

#include "nn/classifier.h"
#include "nn/synthetic.h"

namespace pimdl {

/** Options for dense pre-training. */
struct TrainOptions
{
    std::size_t epochs = 30;
    std::size_t batch_size = 16;
    float lr = 3e-3f;
    std::uint64_t seed = 5;
};

/** How the per-layer codebooks are seeded before calibration. */
enum class CodebookInit
{
    /**
     * Random Gaussian centroids scaled to the activation distribution —
     * the paper's protocol ("the centroids are initialized randomly",
     * Section 6.2). Deployment accuracy then hinges entirely on the
     * calibration algorithm.
     */
    Random,
    /** K-means over collected activations (a strong classical seed). */
    KMeans,
};

/** Options for LUT-NN calibration. */
struct CalibrationOptions
{
    std::size_t epochs = 15;
    std::size_t batch_size = 16;
    float lr = 1e-3f;
    /** Reconstruction-loss penalty beta (Eq. 1). Zero disables the term. */
    float recon_beta = 1e-3f;
    /**
     * Fraction of the training set used for calibration. The paper's
     * eLUT-NN uses < 1%; the baseline uses 1.0 (the full set).
     */
    float data_fraction = 0.05f;
    /** Codebook seeding strategy. */
    CodebookInit init = CodebookInit::Random;
    std::uint64_t seed = 13;
};

/** Outcome of a training or calibration run. */
struct CalibrationReport
{
    /** Hard-LUT accuracy before calibration (k-means codebooks only). */
    float accuracy_before = 0.0f;
    /** Hard-LUT accuracy after calibration. */
    float accuracy_after = 0.0f;
    /** Per-epoch mean training loss. */
    std::vector<float> loss_history;
    /** Number of training samples the run consumed per epoch. */
    std::size_t samples_used = 0;
};

/** Pre-trains the dense model; returns the dense test accuracy. */
float trainDense(TransformerClassifier &model, const SyntheticTask &task,
                 const TrainOptions &options);

/**
 * Seeds every replaceable layer's codebooks by k-means over activations
 * collected from a dense forward pass of @p samples training sequences.
 */
void initCodebooksFromActivations(TransformerClassifier &model,
                                  const SequenceDataset &calibration,
                                  std::size_t samples, std::uint64_t seed);

/**
 * Seeds every replaceable layer's codebooks with random Gaussian
 * centroids scaled to that layer's activation standard deviation
 * (estimated from @p samples sequences) — the paper's initialization.
 */
void initCodebooksRandom(TransformerClassifier &model,
                         const SequenceDataset &calibration,
                         std::size_t samples, std::uint64_t seed);

/** Runs eLUT-NN calibration (hard assign + STE + reconstruction loss). */
CalibrationReport calibrateElutNn(TransformerClassifier &model,
                                  const SyntheticTask &task,
                                  const CalibrationOptions &options);

/** Runs the baseline LUT-NN calibration (soft assign, no recon loss). */
CalibrationReport calibrateBaselineLutNn(TransformerClassifier &model,
                                         const SyntheticTask &task,
                                         const CalibrationOptions &options);

} // namespace pimdl

#endif // PIMDL_LUTNN_ELUTNN_H
