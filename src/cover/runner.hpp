// Coverage workload runner: runs one registry scenario (lint/ref_designs.hpp)
// with the cover registry armed and harvests it into a Database. This is
// what `craft cover run` and the CI coverage job call; tests reuse it to
// check fingerprint determinism across parallelism levels and chaos seeds.
#pragma once

#include <cstdint>
#include <string>

#include "cover/cover.hpp"

namespace craft::cover {

/// One workload execution request.
struct RunOptions {
  std::uint64_t seed = 1;
  unsigned parallelism = 1;
  /// Chaos mode: "" (fault-free), "latency" (seeded latency-only plan) or
  /// "corrupt" (scheduled flit corruptions; li_pipeline only).
  std::string chaos;
  unsigned messages = 64;  ///< li_pipeline traffic per run
};

/// Runs scenario `design` ("name" or "soc_name:workload"; a bare SoC name
/// runs "vecmul") once under `opt` and collects its coverage into `db`.
/// Returns "" on success, else an error description (unknown design or
/// workload, unsupported chaos mode, duplicate run id, failed run).
std::string RunDesign(const std::string& design, const RunOptions& opt,
                      Database* db);

}  // namespace craft::cover
