/**
 * @file
 * K-means clustering with k-means++ seeding.
 *
 * LUT-NN conversion derives each codebook by clustering activation
 * sub-vectors (paper Section 3.1, step 1). This is the from-scratch
 * clustering substrate used by the converter.
 */

#ifndef PIMDL_LUTNN_KMEANS_H
#define PIMDL_LUTNN_KMEANS_H

#include <cstddef>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace pimdl {

/** Options controlling a k-means run. */
struct KMeansOptions
{
    /** Number of clusters (the paper's CT). */
    std::size_t clusters = 16;
    /** Maximum Lloyd iterations. */
    std::size_t max_iters = 25;
    /** Seed for k-means++ initialization. */
    std::uint64_t seed = 1;
};

/** Result of a k-means run. */
struct KMeansResult
{
    /** clusters x dim centroid matrix. */
    Tensor centroids;
    /** Per-sample assignment indices. */
    std::vector<std::size_t> assignments;
    /** Final within-cluster sum of squared distances. */
    double inertia = 0.0;
    /** Number of Lloyd iterations executed. */
    std::size_t iterations = 0;
};

/**
 * Clusters the rows of @p samples (num_samples x dim).
 *
 * Empty clusters are re-seeded with the sample farthest from its centroid
 * so the result always contains exactly options.clusters centroids.
 */
KMeansResult kmeans(const Tensor &samples, const KMeansOptions &options);

/** Returns the index of the centroid (row of @p centroids) nearest @p v. */
std::size_t nearestCentroid(const float *v, const Tensor &centroids);

} // namespace pimdl

#endif // PIMDL_LUTNN_KMEANS_H
