#include "src/chaos/sampler.hpp"

#include <cmath>

#include "src/utils/error.hpp"
#include "src/utils/rng.hpp"

namespace fedcav::chaos {

ParamSpace ParamSpace::protocol_space() {
  ParamSpace space;
  space.axes = {
      {"drop_prob", {0.0, 0.05, 0.2, 0.5}},
      {"duplicate_prob", {0.0, 0.05, 0.2, 0.5}},
      {"reorder_prob", {0.0, 0.2, 0.5}},
      {"corrupt_prob", {0.0, 0.05, 0.2}},
      {"truncate_prob", {0.0, 0.05, 0.2}},
      {"jitter_s", {0.0, 0.01, 0.1}},
      // Number of clients with a scheduled outage (client i crashes for
      // round i+1 — staggered so quorum interactions vary by count).
      {"crash_clients", {0.0, 1.0, 2.0}},
      {"straggler_drop_prob", {0.0, 0.3, 0.7}},
      {"min_aggregate_clients", {1.0, 2.0, 3.0}},
      {"max_retries", {0.0, 1.0, 3.0}},
      {"uplink_deadline_s", {0.0, 1.0, 20.0}},
  };
  return space;
}

ChaosPlan ParamSpace::materialize(const std::vector<std::size_t>& choice,
                                  std::uint64_t fault_seed) const {
  FEDCAV_REQUIRE(choice.size() == axes.size(),
                 "ParamSpace::materialize: choice/axis count mismatch");
  ChaosPlan plan;
  plan.faults.seed = fault_seed;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    const Axis& axis = axes[i];
    FEDCAV_REQUIRE(choice[i] < axis.levels.size(),
                   "ParamSpace::materialize: level index out of range for '" +
                       axis.name + "'");
    const double v = axis.levels[choice[i]];
    if (axis.name == "drop_prob") {
      plan.faults.drop_prob = v;
    } else if (axis.name == "duplicate_prob") {
      plan.faults.duplicate_prob = v;
    } else if (axis.name == "reorder_prob") {
      plan.faults.reorder_prob = v;
    } else if (axis.name == "corrupt_prob") {
      plan.faults.corrupt_prob = v;
    } else if (axis.name == "truncate_prob") {
      plan.faults.truncate_prob = v;
    } else if (axis.name == "jitter_s") {
      plan.faults.jitter_s = v;
    } else if (axis.name == "crash_clients") {
      const auto count = static_cast<std::size_t>(v);
      for (std::size_t c = 0; c < count && c < plan.num_clients; ++c) {
        // Client c (fabric rank c + 1) is offline for round c + 1.
        comm::CrashWindow w;
        w.rank = c + 1;
        w.first_round = c + 1;
        w.last_round = c + 1;
        plan.faults.crashes.push_back(w);
      }
    } else if (axis.name == "straggler_drop_prob") {
      plan.straggler_drop_prob = v;
    } else if (axis.name == "min_aggregate_clients") {
      plan.min_aggregate_clients = static_cast<std::size_t>(v);
    } else if (axis.name == "max_retries") {
      plan.max_retries = static_cast<std::size_t>(v);
    } else if (axis.name == "uplink_deadline_s") {
      plan.uplink_deadline_s = v;
    } else {
      throw Error("ParamSpace::materialize: unknown axis '" + axis.name + "'");
    }
  }
  plan.validate();
  return plan;
}

namespace {

std::vector<AxisTally> make_tallies(const ParamSpace& space) {
  std::vector<AxisTally> tallies(space.axes.size());
  for (std::size_t i = 0; i < space.axes.size(); ++i) {
    tallies[i].trials.assign(space.axes[i].levels.size(), 0);
    tallies[i].triggers.assign(space.axes[i].levels.size(), 0);
  }
  return tallies;
}

class SamplerBase : public Sampler {
 public:
  SamplerBase(const ParamSpace& space, std::uint64_t seed)
      : space_(space), rng_(seed), tallies_(make_tallies(space)) {}

  void report(const std::vector<std::size_t>& choice, bool triggered) override {
    FEDCAV_REQUIRE(choice.size() == tallies_.size(),
                   "Sampler::report: choice/axis count mismatch");
    for (std::size_t i = 0; i < choice.size(); ++i) {
      FEDCAV_REQUIRE(choice[i] < tallies_[i].trials.size(),
                     "Sampler::report: level index out of range");
      ++tallies_[i].trials[choice[i]];
      if (triggered) ++tallies_[i].triggers[choice[i]];
    }
  }

  const std::vector<AxisTally>& tallies() const override { return tallies_; }

 protected:
  ParamSpace space_;
  Rng rng_;
  std::vector<AxisTally> tallies_;
};

class RandomSampler final : public SamplerBase {
 public:
  using SamplerBase::SamplerBase;

  std::vector<std::size_t> next() override {
    std::vector<std::size_t> choice(space_.axes.size());
    for (std::size_t i = 0; i < choice.size(); ++i) {
      choice[i] = static_cast<std::size_t>(
          rng_.uniform_int(space_.axes[i].levels.size()));
    }
    return choice;
  }

  std::string name() const override { return "random"; }
};

/// Per-axis epsilon-greedy: each axis is an independent bandit whose
/// reward is the empirical fault-trigger rate of its levels.
class LearningSampler final : public SamplerBase {
 public:
  LearningSampler(const ParamSpace& space, std::uint64_t seed, double epsilon)
      : SamplerBase(space, seed), epsilon_(epsilon) {
    FEDCAV_REQUIRE(epsilon >= 0.0 && epsilon <= 1.0,
                   "LearningSampler: epsilon must be in [0, 1]");
  }

  std::vector<std::size_t> next() override {
    std::vector<std::size_t> choice(space_.axes.size());
    for (std::size_t i = 0; i < choice.size(); ++i) {
      const std::size_t levels = space_.axes[i].levels.size();
      if (rng_.bernoulli(epsilon_)) {
        choice[i] = static_cast<std::size_t>(rng_.uniform_int(levels));
        continue;
      }
      // Exploit: first untried level (optimism), else best trigger rate.
      // Strictly-greater comparisons make ties resolve to the lowest
      // index — fully deterministic, no hidden RNG draws.
      std::size_t best = 0;
      double best_rate = -1.0;
      bool found_untried = false;
      for (std::size_t level = 0; level < levels; ++level) {
        const AxisTally& t = tallies_[i];
        if (t.trials[level] == 0) {
          best = level;
          found_untried = true;
          break;
        }
        const double rate = static_cast<double>(t.triggers[level]) /
                            static_cast<double>(t.trials[level]);
        if (rate > best_rate) {
          best_rate = rate;
          best = level;
        }
      }
      (void)found_untried;
      choice[i] = best;
    }
    return choice;
  }

  std::string name() const override { return "greedy"; }

 private:
  double epsilon_;
};

}  // namespace

std::unique_ptr<Sampler> make_random_sampler(const ParamSpace& space,
                                             std::uint64_t seed) {
  return std::make_unique<RandomSampler>(space, seed);
}

std::unique_ptr<Sampler> make_learning_sampler(const ParamSpace& space,
                                               std::uint64_t seed,
                                               double epsilon) {
  return std::make_unique<LearningSampler>(space, seed, epsilon);
}

}  // namespace fedcav::chaos
