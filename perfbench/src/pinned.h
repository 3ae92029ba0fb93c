/**
 * @file
 * Pinned sim-clock values. The timing backends are deterministic, so
 * every run on every seed must reproduce these to 1e-12 relative; a
 * change that moves modeled time shows up as a failed check here.
 * Values are seconds unless the name says otherwise.
 */

#ifndef PERFBENCH_PINNED_H
#define PERFBENCH_PINNED_H

namespace perfbench {
namespace pinned {

/** `offline`: one BERT-base-width layer, 8 x 128 tokens, UPMEM. */
inline constexpr double kOfflineEngineS = 0.25064826112259375;
inline constexpr double kOfflineAnalyticalS = 0.30830653869943236;
inline constexpr double kOfflineTransactionS = 0.30935335869943281;

/** `serve`: the same layer on one 16-token request, UPMEM. */
inline constexpr double kServeAnalyticalS = 0.23580924122182861;
inline constexpr double kServeTransactionS = 0.2358381412218292;

/** `price`: estimatePimDl totals per configuration. */
struct PricePoint
{
    const char *model;
    const char *platform;
    double analytical_s;
    double transaction_s;
};

inline constexpr PricePoint kPrice[] = {
    {"BERT-base", "UPMEM-DDR4-PIM", 26.76045173313377, 27.12151493313371},
    {"BERT-base", "HBM-PIM", 12.997263313963414, 13.038565273963426},
    {"BERT-base", "AiM", 12.363063315499415, 12.375906075499426},
    {"BERT-large", "UPMEM-DDR4-PIM", 77.661784446410536, 78.937771566410603},
    {"BERT-large", "HBM-PIM", 35.44727399435579, 35.591945514355722},
    {"BERT-large", "AiM", 33.206623320179773, 33.251231400179734},
    {"ViT-base", "UPMEM-DDR4-PIM", 23.584040538895859, 23.956386618895856},
    {"ViT-base", "HBM-PIM", 9.5174828272947689, 9.5600373472947524},
    {"ViT-base", "AiM", 8.8637054643507565, 8.8769313843507582},
    {"ViT-huge", "UPMEM-DDR4-PIM", 127.60908866171843, 130.33529730171836},
    {"ViT-huge", "HBM-PIM", 44.998264771606934, 45.306108291606897},
    {"ViT-huge", "AiM", 40.213440189462808, 40.308259709462831},
};

/** Sum of the analytical totals over the sweep, ms, and the mean
 * analytical-vs-transaction error, percent. */
inline constexpr double kPriceSweepModeledMs = 453222.48257687228;
inline constexpr double kPriceSweepXvalErrPct = 0.75530672487227779;

} // namespace pinned
} // namespace perfbench

#endif // PERFBENCH_PINNED_H
