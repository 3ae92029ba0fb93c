/**
 * @file
 * A functional (bit-level, Tensor-based) transformer encoder whose
 * linear layers run through pluggable backends: dense GEMM, LUT-NN on
 * the host, or LUT-NN distributed across the simulated DRAM-PIM PEs.
 *
 * This is the executable counterpart of the analytical engine: the same
 * operator split the engine costs (QKV/O/FFN1/FFN2 on PIM, attention and
 * elementwise on the host) actually computes here, so end-to-end LUT-NN
 * inference on the simulated PIM can be validated numerically against
 * the dense reference — the integration path a real deployment runs.
 */

#ifndef PIMDL_RUNTIME_FUNCTIONAL_TRANSFORMER_H
#define PIMDL_RUNTIME_FUNCTIONAL_TRANSFORMER_H

#include <array>
#include <memory>
#include <vector>

#include "lutnn/converter.h"
#include "nn/model_config.h"
#include "runtime/lut_executor.h"

namespace pimdl {

/** How the four linear roles of each encoder block execute. */
enum class LinearBackendKind
{
    Dense,     ///< Exact GEMM on the host.
    HostLut,   ///< LUT-NN on the host (FP32 LUTs).
    PimLut,    ///< LUT-NN distributed across simulated PIM PEs (INT8).
};

/** Geometry of the functional encoder. */
struct FunctionalTransformerConfig
{
    std::size_t hidden = 32;
    std::size_t ffn = 64;
    std::size_t layers = 2;
    std::size_t heads = 2;
    /** LUT-NN conversion parameters for the LUT backends. */
    std::size_t subvec_len = 4;
    std::size_t centroids = 16;
    std::uint64_t seed = 21;
};

/** Weights of one encoder block (fused-QKV convention). */
struct FunctionalBlockWeights
{
    Tensor wqkv; ///< hidden x 3*hidden.
    Tensor wo;   ///< hidden x hidden.
    Tensor w1;   ///< hidden x ffn.
    Tensor w2;   ///< ffn x hidden.
    std::vector<float> bqkv, bo, b1, b2;
    std::vector<float> ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;
};

/** Converted LUT layers of one encoder block. */
struct FunctionalBlockLuts
{
    LutLayer qkv, o, ffn1, ffn2;
};

/**
 * Inference-only transformer encoder with swappable linear backends.
 */
class FunctionalTransformer
{
  public:
    /** Builds a randomly initialized encoder. */
    explicit FunctionalTransformer(const FunctionalTransformerConfig &cfg);

    const FunctionalTransformerConfig &config() const { return config_; }

    /**
     * Runs the encoder over @p tokens ((batch*seq) x hidden) with the
     * given backend; @p seq_len partitions rows into attention groups.
     *
     * Execution walks the same lowered plan the analytical engine
     * costs (plan/lowering.h): each plan node dispatches to the
     * matching functional kernel, so the operator split exists in
     * exactly one place.
     */
    Tensor forward(const Tensor &tokens, std::size_t seq_len,
                   LinearBackendKind backend) const;

    /**
     * Converts every linear layer to LUT-NN using @p calibration tokens
     * ((rows) x hidden) propagated through the dense network — each
     * layer's codebooks are learned on that layer's true inputs. Must be
     * called before the HostLut / PimLut backends are used.
     */
    void convertToLut(const Tensor &calibration, std::size_t seq_len,
                      const KMeansOptions &kmeans = {});

    /**
     * Selects the simulated platform and auto-tunes a mapping per LUT
     * workload shape for the PimLut backend. Requires convertToLut.
     */
    void planPimExecution(const PimPlatformConfig &platform,
                          std::size_t rows);

    /**
     * Routes PimLut host->PIM movement through the transfer engine:
     * kStageWaves double-buffered index waves via @p scheduler and
     * resident-LUT placement via @p resident (either may be nullptr to
     * disable that half). Each (layer, role) LUT table gets a stable
     * resident key. Call after planPimExecution; pass nullptrs to
     * detach.
     */
    void enableTransferEngine(transfer::TransferScheduler *scheduler,
                              transfer::ResidentLutManager *resident);

    /** Aggregated transfer-engine outcome of the last forward(). */
    TransferReport lastTransferReport() const;

    /** Summed modeled seconds of the last forward()'s LUT ops:
     * analytical baseline and transfer-engine pricing. */
    double lastPimModelSeconds() const;
    double lastPimEngineSeconds() const;

    /** True once convertToLut has run. */
    bool converted() const { return !luts_.empty(); }

    /** Dense weights of block @p layer. */
    const FunctionalBlockWeights &blockWeights(std::size_t layer) const;

    /** Converted LUT layer of one linear role; requires convertToLut. */
    const LutLayer &lutFor(std::size_t layer, LinearRole role) const;

  private:
    FunctionalTransformerConfig config_;
    std::vector<FunctionalBlockWeights> blocks_;
    std::vector<FunctionalBlockLuts> luts_;

    /** PIM execution plan (set by planPimExecution). */
    PimPlatformConfig platform_;
    bool pim_planned_ = false;
    std::vector<std::array<LutMapping, 4>> mappings_;

    /** Transfer engine hookup (set by enableTransferEngine). */
    transfer::TransferScheduler *transfer_scheduler_ = nullptr;
    transfer::ResidentLutManager *resident_luts_ = nullptr;
    /** Guards the per-forward accumulators: serving workers may run
     * forward() concurrently on one shared transformer. */
    mutable Mutex transfer_mu_{"runtime.transformer.transfer"};
    mutable TransferReport last_transfer_ PIMDL_GUARDED_BY(transfer_mu_);
    mutable double last_pim_model_s_ PIMDL_GUARDED_BY(transfer_mu_) = 0.0;
    mutable double last_pim_engine_s_ PIMDL_GUARDED_BY(transfer_mu_) =
        0.0;

    /** Exact dense GEMM of one linear role. */
    Tensor denseLinear(std::size_t layer, LinearRole role,
                       const Tensor &x) const;

    Tensor attention(const Tensor &q, const Tensor &k, const Tensor &v,
                     std::size_t seq_len) const;
};

} // namespace pimdl

#endif // PIMDL_RUNTIME_FUNCTIONAL_TRANSFORMER_H
