// The benchmark's four workloads.  Each takes its seed from the command
// line, generates its own inputs from it, checks every output against
// those inputs and reports through a Result.
#pragma once

#include <cstdint>
#include <string>

#include "metrics.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// The bytecache_gateway binary (udp_loopback only).
  std::string gateway;
};

Result run_replay_hot(const RunArgs& args);
Result run_fresh_churn(const RunArgs& args);
Result run_udp_loopback(const RunArgs& args);
Result run_lossy_download(const RunArgs& args);

/// Digest of the inputs a workload generates from `seed`.
std::uint64_t replay_hot_digest(std::uint64_t seed);
std::uint64_t fresh_churn_digest(std::uint64_t seed);
std::uint64_t udp_loopback_digest(std::uint64_t seed);
std::uint64_t lossy_download_digest(std::uint64_t seed);

/// Seeds of independent input streams derived from the workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
