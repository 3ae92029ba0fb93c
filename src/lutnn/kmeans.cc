#include "kmeans.h"

#include <cmath>
#include <limits>

namespace pimdl {

namespace {

/** Convergence threshold on total centroid movement. */
constexpr float kTolerance = 1e-6f;

double
squaredDistance(const float *a, const float *b, std::size_t dim)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        sum += d * d;
    }
    return sum;
}

/** k-means++ seeding: D^2-weighted sampling of initial centroids. */
Tensor
seedCentroids(const Tensor &samples, std::size_t k, Rng &rng)
{
    const std::size_t n = samples.rows();
    const std::size_t dim = samples.cols();
    Tensor centroids(k, dim);

    std::size_t first = rng.index(n);
    for (std::size_t d = 0; d < dim; ++d)
        centroids(0, d) = samples(first, d);

    std::vector<double> dist2(n, std::numeric_limits<double>::max());
    for (std::size_t c = 1; c < k; ++c) {
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double d = squaredDistance(samples.rowPtr(i),
                                             centroids.rowPtr(c - 1), dim);
            dist2[i] = std::min(dist2[i], d);
            total += dist2[i];
        }
        std::size_t chosen = 0;
        if (total > 0.0) {
            double target = rng.uniform(0.0f, 1.0f) * total;
            double acc = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                acc += dist2[i];
                if (acc >= target) {
                    chosen = i;
                    break;
                }
            }
        } else {
            chosen = rng.index(n);
        }
        for (std::size_t d = 0; d < dim; ++d)
            centroids(c, d) = samples(chosen, d);
    }
    return centroids;
}

} // namespace

std::size_t
nearestCentroid(const float *v, const Tensor &centroids)
{
    std::size_t best = 0;
    double best_dist = squaredDistance(v, centroids.rowPtr(0),
                                       centroids.cols());
    for (std::size_t c = 1; c < centroids.rows(); ++c) {
        const double d = squaredDistance(v, centroids.rowPtr(c),
                                         centroids.cols());
        if (d < best_dist) {
            best_dist = d;
            best = c;
        }
    }
    return best;
}

KMeansResult
kmeans(const Tensor &samples, const KMeansOptions &options)
{
    PIMDL_REQUIRE(samples.rows() > 0, "kmeans needs samples");
    PIMDL_REQUIRE(options.clusters > 0, "kmeans needs clusters");
    PIMDL_REQUIRE(samples.rows() >= options.clusters,
                  "more clusters than samples");

    const std::size_t n = samples.rows();
    const std::size_t dim = samples.cols();
    const std::size_t k = options.clusters;

    Rng rng(options.seed);
    KMeansResult result;
    result.centroids = seedCentroids(samples, k, rng);
    result.assignments.assign(n, 0);

    std::vector<double> sums(k * dim);
    std::vector<std::size_t> counts(k);

    for (std::size_t iter = 0; iter < options.max_iters; ++iter) {
        result.iterations = iter + 1;

        // Assignment step.
        result.inertia = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t c = nearestCentroid(samples.rowPtr(i),
                                                  result.centroids);
            result.assignments[i] = c;
            result.inertia += squaredDistance(samples.rowPtr(i),
                                              result.centroids.rowPtr(c),
                                              dim);
        }

        // Update step.
        std::fill(sums.begin(), sums.end(), 0.0);
        std::fill(counts.begin(), counts.end(), 0);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t c = result.assignments[i];
            counts[c]++;
            const float *row = samples.rowPtr(i);
            for (std::size_t d = 0; d < dim; ++d)
                sums[c * dim + d] += row[d];
        }

        double movement = 0.0;
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] == 0) {
                // Re-seed the empty cluster with the worst-fitting sample.
                std::size_t worst = 0;
                double worst_dist = -1.0;
                for (std::size_t i = 0; i < n; ++i) {
                    const double d = squaredDistance(
                        samples.rowPtr(i),
                        result.centroids.rowPtr(result.assignments[i]), dim);
                    if (d > worst_dist) {
                        worst_dist = d;
                        worst = i;
                    }
                }
                for (std::size_t d = 0; d < dim; ++d)
                    result.centroids(c, d) = samples(worst, d);
                movement += worst_dist;
                continue;
            }
            for (std::size_t d = 0; d < dim; ++d) {
                const float updated = static_cast<float>(
                    sums[c * dim + d] / counts[c]);
                const float delta = updated - result.centroids(c, d);
                movement += static_cast<double>(delta) * delta;
                result.centroids(c, d) = updated;
            }
        }
        if (movement < kTolerance)
            break;
    }
    return result;
}

} // namespace pimdl
