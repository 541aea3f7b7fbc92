#include "core/key_partitioning.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "core/error.hpp"

namespace ss {

KeyPartition partition_keys(const KeyDistribution& keys, int requested_replicas) {
  require(!keys.empty(), "partition_keys: empty key distribution");
  require(requested_replicas >= 1, "partition_keys: need at least one replica");

  const std::size_t num_keys = keys.num_keys();
  const int bins = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(requested_replicas), num_keys));

  // Greedy LPT: heaviest key first onto the least-loaded bin, ties broken
  // by the lower index.  When the probabilities are non-increasing (every
  // Zipf and uniform law) that order is 0..n-1 itself, so the keys are
  // walked directly; any other table (an explicit law) is sorted through
  // an index vector.
  const std::vector<double>& p = keys.probabilities();
  std::vector<double> load(static_cast<std::size_t>(bins), 0.0);
  KeyPartition result;
  result.replica_of_key.assign(num_keys, 0);
  const auto place = [&](std::size_t k) {
    auto lightest = std::min_element(load.begin(), load.end());
    *lightest += p[k];
    result.replica_of_key[k] = static_cast<int>(lightest - load.begin());
  };
  if (std::is_sorted(p.begin(), p.end(), std::greater<>())) {
    for (std::size_t k = 0; k < num_keys; ++k) place(k);
  } else {
    const auto heavier = [&](std::size_t a, std::size_t b) {
      if (p[a] != p[b]) return p[a] > p[b];
      return a < b;  // deterministic tie-break
    };
    std::vector<std::size_t> by_weight(num_keys);
    std::iota(by_weight.begin(), by_weight.end(), 0);
    std::sort(by_weight.begin(), by_weight.end(), heavier);
    for (std::size_t k : by_weight) place(k);
  }

  // Drop replicas that received no key (can happen with very skewed
  // distributions where one key dominates).
  std::vector<int> remap(static_cast<std::size_t>(bins), -1);
  int used = 0;
  for (int b = 0; b < bins; ++b) {
    if (load[static_cast<std::size_t>(b)] > 0.0) remap[static_cast<std::size_t>(b)] = used++;
  }
  for (int& r : result.replica_of_key) r = remap[static_cast<std::size_t>(r)];

  result.replicas = std::max(1, used);
  result.max_share = *std::max_element(load.begin(), load.end());
  return result;
}

}  // namespace ss
