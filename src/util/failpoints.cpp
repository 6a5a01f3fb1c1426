#include "util/failpoints.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "util/annotated.hpp"
#include "util/rng.hpp"

namespace ftio::util::failpoints {

namespace {

struct Failpoint {
  std::string name;
  double probability = 0.0;
  Rng rng{0};
  std::size_t fires = 0;
  std::size_t evaluations = 0;
};

/// Registry state. A handful of failpoints evaluated on failure-injection
/// paths only, so a single mutex plus linear scan is deliberately simple;
/// the hot-path cost while nothing is armed is the macro's relaxed load
/// of armed_count, which every mutation below keeps equal to the number
/// of registered points.
class Registry {
 public:
  static Registry& instance() {
    static Registry registry;
    return registry;
  }

  void arm(std::string_view name, double probability, std::uint64_t seed) {
    const LockGuard lock(mutex_);
    Failpoint* point = find_locked(name);
    if (point == nullptr) {
      points_.emplace_back();
      point = &points_.back();
      point->name = std::string(name);
      publish_count_locked();
    }
    point->probability = std::clamp(probability, 0.0, 1.0);
    point->rng = Rng(seed);
    point->fires = 0;
    point->evaluations = 0;
  }

  void disarm(std::string_view name) {
    const LockGuard lock(mutex_);
    std::erase_if(points_, [&](const Failpoint& p) { return p.name == name; });
    publish_count_locked();
  }

  void disarm_all() {
    const LockGuard lock(mutex_);
    points_.clear();
    publish_count_locked();
  }

  bool should_fire(std::string_view name) {
    const LockGuard lock(mutex_);
    Failpoint* point = find_locked(name);
    if (point == nullptr) return false;
    ++point->evaluations;
    if (!point->rng.bernoulli(point->probability)) return false;
    ++point->fires;
    return true;
  }

  std::size_t fire_count(std::string_view name) {
    const LockGuard lock(mutex_);
    const Failpoint* point = find_locked(name);
    return point != nullptr ? point->fires : 0;
  }

  std::size_t evaluation_count(std::string_view name) {
    const LockGuard lock(mutex_);
    const Failpoint* point = find_locked(name);
    return point != nullptr ? point->evaluations : 0;
  }

 private:
  void publish_count_locked() FTIO_REQUIRES(mutex_) {
    armed_count.store(points_.size(), std::memory_order_relaxed);
  }

  Failpoint* find_locked(std::string_view name) FTIO_REQUIRES(mutex_) {
    for (auto& point : points_) {
      if (point.name == name) return &point;
    }
    return nullptr;
  }

  Mutex mutex_;
  std::vector<Failpoint> points_ FTIO_GUARDED_BY(mutex_);
};

}  // namespace

void arm(std::string_view name, double probability, std::uint64_t seed) {
  Registry::instance().arm(name, probability, seed);
}

void disarm(std::string_view name) { Registry::instance().disarm(name); }

void disarm_all() { Registry::instance().disarm_all(); }

std::size_t fire_count(std::string_view name) {
  return Registry::instance().fire_count(name);
}

std::size_t evaluation_count(std::string_view name) {
  return Registry::instance().evaluation_count(name);
}

bool should_fire(std::string_view name) {
  return Registry::instance().should_fire(name);
}

}  // namespace ftio::util::failpoints
