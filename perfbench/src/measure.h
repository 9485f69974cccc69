#ifndef IUAD_PERFBENCH_MEASURE_H_
#define IUAD_PERFBENCH_MEASURE_H_

/// \file measure.h
/// The benchmark's arithmetic, kept free of workload code so its own tests
/// can pin it: nearest-rank percentiles (failures enter as +inf), the
/// "highest percentile with at least ten samples beyond it" rule, the
/// open-loop schedule, and the per-paper assignment digest the correctness
/// oracle compares.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/incremental.h"

namespace iuad::perfbench {

/// Latency sample of a request that failed or was refused: it misses every
/// latency limit, so it sorts above every measured value.
inline constexpr double kFailedSample = std::numeric_limits<double>::infinity();

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of the p-th percentile (p in (0, 100]) among `n`
/// sorted samples: ceil(p / 100 * n), at least 1. 0 when n == 0.
size_t NearestRank(size_t n, double p);

/// Samples strictly above the nearest-rank p-th percentile. A percentile
/// is reported only where this is at least kMinSamplesBeyond.
size_t SamplesBeyond(size_t n, double p);

/// Nearest-rank p-th percentile of `samples` (+inf samples sort last).
/// 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Median of repeated measurements (mean of the middle two for an even
/// count); 0 when empty.
double Median(std::vector<double> values);

/// Open-loop schedule: request `i` of a stream sent at `rate_per_s` is due
/// i / rate seconds after the stream's start, whatever happened to the
/// requests before it.
int64_t DueNs(int64_t start_ns, int64_t i, double rate_per_s);

/// How late the generator sent a request (0 when on time).
int64_t LatenessNs(int64_t due_ns, int64_t sent_ns);

/// Latency of a request timed from when it was due, in milliseconds, so a
/// stalled generator or server charges its wait to every request behind it.
double LatencyFromDueMs(int64_t due_ns, int64_t completed_ns);

/// Order-sensitive FNV-1a digest of one paper's assignments: name, vertex,
/// created_new, num_candidates and the bit pattern of best_score, so even a
/// one-ulp score drift shows as a mismatch.
uint64_t AssignmentDigest(const std::vector<core::IncrementalAssignment>& as);

/// Number of positions at which two digest sequences differ, counting any
/// length difference as mismatches.
int64_t CountMismatches(const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b);

/// Peak resident set of this process in MiB (VmHWM), 0 if unavailable.
double PeakRssMb();

}  // namespace iuad::perfbench

#endif  // IUAD_PERFBENCH_MEASURE_H_
