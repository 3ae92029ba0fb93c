#include "elutnn.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "autograd/optimizer.h"
#include "lutnn/codebook.h"

namespace pimdl {

namespace {

/** Samples used to seed codebooks (k-means or std estimation). */
constexpr std::size_t kCodebookInitSamples = 64;

/** One optimization epoch over [0, limit) samples in fixed batches. */
float
runEpoch(TransformerClassifier &model, const SequenceDataset &train,
         std::size_t limit, std::size_t batch_size, LinearMode mode,
         float recon_beta, ag::Optimizer &optimizer)
{
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < limit; begin += batch_size) {
        const std::size_t end = std::min(limit, begin + batch_size);
        optimizer.zeroGrad();
        ForwardResult result =
            model.forwardBatch(train, begin, end, mode, recon_beta);
        result.loss.backward();
        optimizer.step();
        loss_sum += result.loss.value()(0, 0);
        ++batches;
    }
    return batches ? static_cast<float>(loss_sum / batches) : 0.0f;
}

CalibrationReport
calibrate(TransformerClassifier &model, const SyntheticTask &task,
          const CalibrationOptions &options, LinearMode train_mode,
          float recon_beta)
{
    CalibrationReport report;

    if (options.init == CodebookInit::KMeans) {
        initCodebooksFromActivations(model, task.train,
                                     kCodebookInitSamples, options.seed);
    } else {
        initCodebooksRandom(model, task.train, kCodebookInitSamples,
                            options.seed);
    }
    report.accuracy_before = model.evaluate(task.test, LinearMode::HardLut);

    const std::size_t limit = std::max<std::size_t>(
        options.batch_size,
        static_cast<std::size_t>(
            options.data_fraction *
            static_cast<float>(task.train.size())));
    report.samples_used = std::min(limit, task.train.size());

    // Centroids train together with the weights and biases (the
    // paper's "minor parameter updates").
    std::vector<ag::Variable> params = model.centroidParams();
    for (auto &p : model.modelParams())
        params.push_back(p);
    ag::Adam optimizer(std::move(params), options.lr);

    for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
        const float loss =
            runEpoch(model, task.train, report.samples_used,
                     options.batch_size, train_mode, recon_beta, optimizer);
        report.loss_history.push_back(loss);
    }

    // Deployment always uses hard assignment — this is where the baseline's
    // train/deploy mismatch shows up.
    report.accuracy_after = model.evaluate(task.test, LinearMode::HardLut);
    return report;
}

} // namespace

float
trainDense(TransformerClassifier &model, const SyntheticTask &task,
           const TrainOptions &options)
{
    ag::Adam optimizer(model.modelParams(), options.lr);
    for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
        runEpoch(model, task.train, task.train.size(), options.batch_size,
                 LinearMode::Dense, 0.0f, optimizer);
    }
    return model.evaluate(task.test, LinearMode::Dense);
}

void
initCodebooksFromActivations(TransformerClassifier &model,
                             const SequenceDataset &calibration,
                             std::size_t samples, std::uint64_t seed)
{
    const auto activations = model.collectActivations(calibration, samples);
    const auto &cfg = model.config();

    std::vector<Tensor> leaves;
    leaves.reserve(activations.size());
    for (std::size_t i = 0; i < activations.size(); ++i) {
        const std::size_t v = cfg.subvec_len;
        const std::size_t ct = cfg.centroids;
        const std::size_t cb = activations[i].cols() / v;

        KMeansOptions opts;
        opts.clusters = ct;
        opts.seed = seed + i;
        CodebookSet set = CodebookSet::learn(activations[i], v, ct, opts);

        Tensor leaf(cb * ct, v);
        for (std::size_t c = 0; c < cb; ++c) {
            for (std::size_t k = 0; k < ct; ++k) {
                const float *src = set.centroid(c, k);
                float *dst = leaf.rowPtr(c * ct + k);
                for (std::size_t d = 0; d < v; ++d)
                    dst[d] = src[d];
            }
        }
        leaves.push_back(std::move(leaf));
    }
    model.setCodebooks(std::move(leaves));
}

void
initCodebooksRandom(TransformerClassifier &model,
                    const SequenceDataset &calibration, std::size_t samples,
                    std::uint64_t seed)
{
    const auto activations = model.collectActivations(calibration, samples);
    const auto &cfg = model.config();

    Rng rng(seed);
    std::vector<Tensor> leaves;
    leaves.reserve(activations.size());
    for (const Tensor &acts : activations) {
        // Match the layer's activation scale so random centroids land in
        // the populated region of the input space.
        double sum = 0.0, sq = 0.0;
        for (std::size_t i = 0; i < acts.size(); ++i) {
            sum += acts.data()[i];
            sq += static_cast<double>(acts.data()[i]) * acts.data()[i];
        }
        const double mean_v = sum / acts.size();
        const double std_v =
            std::sqrt(std::max(1e-12, sq / acts.size() - mean_v * mean_v));

        const std::size_t cb = acts.cols() / cfg.subvec_len;
        Tensor leaf(cb * cfg.centroids, cfg.subvec_len);
        leaf.fillGaussian(rng, static_cast<float>(mean_v),
                          static_cast<float>(std_v));
        leaves.push_back(std::move(leaf));
    }
    model.setCodebooks(std::move(leaves));
}

CalibrationReport
calibrateElutNn(TransformerClassifier &model, const SyntheticTask &task,
                const CalibrationOptions &options)
{
    return calibrate(model, task, options, LinearMode::HardLut,
                     options.recon_beta);
}

CalibrationReport
calibrateBaselineLutNn(TransformerClassifier &model,
                       const SyntheticTask &task,
                       const CalibrationOptions &options)
{
    // Baseline: soft (Gumbel-style) assignment during training, no
    // reconstruction loss, regardless of what the options carry.
    return calibrate(model, task, options, LinearMode::SoftLut, 0.0f);
}

} // namespace pimdl
