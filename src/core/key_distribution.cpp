#include "core/key_distribution.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

#include "core/error.hpp"

namespace ss {

namespace {

/// Divides `frequencies` by their sum, in index order.
void normalize(std::vector<double>& frequencies) {
  require(!frequencies.empty(), "KeyDistribution: empty frequency vector");
  double total = 0.0;
  for (double f : frequencies) {
    require(f >= 0.0, "KeyDistribution: negative frequency");
    total += f;
  }
  require(total > 0.0, "KeyDistribution: frequencies sum to zero");
  for (double& f : frequencies) f /= total;
}

}  // namespace

/// The shared, immutable law.  Its tables are filled at most once each,
/// under their once_flag; nothing touches them afterwards.
struct KeyDistribution::Law {
  Law(Shape s, std::size_t n, double a) : shape(s), num_keys(n), alpha(a) {}

  const Shape shape;
  const std::size_t num_keys;
  const double alpha;

  mutable std::once_flag table_once;
  mutable std::vector<double> table;  ///< filled on construction when kExplicit
  mutable std::atomic<bool> built{false};
  mutable std::once_flag cdf_once;
  mutable std::vector<double> cdf;

  const std::vector<double>& probabilities() const {
    std::call_once(table_once, [this] {
      if (shape == Shape::kUniform) {
        table.assign(num_keys, 1.0);
        normalize(table);
      } else if (shape == Shape::kZipf) {
        table.resize(num_keys);
        for (std::size_t k = 0; k < num_keys; ++k) {
          table[k] = 1.0 / std::pow(static_cast<double>(k + 1), alpha);
        }
        normalize(table);
      }
      built.store(true, std::memory_order_release);
    });
    return table;
  }

  const std::vector<double>& cumulative() const {
    std::call_once(cdf_once, [this] {
      const std::vector<double>& p = probabilities();
      cdf.resize(p.size());
      double running = 0.0;
      for (std::size_t k = 0; k < p.size(); ++k) {
        running += p[k];
        cdf[k] = running;
      }
      cdf.back() = 1.0;  // guard against floating-point undershoot
    });
    return cdf;
  }
};

KeyDistribution::KeyDistribution(std::shared_ptr<const Law> law) : law_(std::move(law)) {}

KeyDistribution::KeyDistribution(std::vector<double> frequencies) {
  normalize(frequencies);
  auto law = std::make_shared<Law>(Shape::kExplicit, frequencies.size(), 0.0);
  law->table = std::move(frequencies);
  law->built.store(true, std::memory_order_relaxed);
  law_ = std::move(law);
}

KeyDistribution KeyDistribution::uniform(std::size_t num_keys) {
  require(num_keys > 0, "KeyDistribution::uniform: num_keys must be > 0");
  return KeyDistribution(std::make_shared<const Law>(Shape::kUniform, num_keys, 0.0));
}

KeyDistribution KeyDistribution::zipf(std::size_t num_keys, double alpha) {
  require(num_keys > 0, "KeyDistribution::zipf: num_keys must be > 0");
  require(alpha > 0.0, "KeyDistribution::zipf: alpha must be > 0");
  return KeyDistribution(std::make_shared<const Law>(Shape::kZipf, num_keys, alpha));
}

KeyDistribution::Shape KeyDistribution::shape() const {
  return law_ ? law_->shape : Shape::kExplicit;
}

double KeyDistribution::alpha() const { return law_ ? law_->alpha : 0.0; }

std::size_t KeyDistribution::num_keys() const { return law_ ? law_->num_keys : 0; }

const std::vector<double>& KeyDistribution::probabilities() const {
  static const std::vector<double> kNone;
  return law_ ? law_->probabilities() : kNone;
}

const std::vector<double>& KeyDistribution::cumulative() const {
  static const std::vector<double> kNone;
  return law_ ? law_->cumulative() : kNone;
}

double KeyDistribution::max_probability() const {
  const std::vector<double>& p = probabilities();
  if (p.empty()) return 0.0;
  return *std::max_element(p.begin(), p.end());
}

bool KeyDistribution::materialized() const {
  return law_ && law_->built.load(std::memory_order_acquire);
}

}  // namespace ss
