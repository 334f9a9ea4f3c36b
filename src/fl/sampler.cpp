#include "src/fl/sampler.hpp"

#include <algorithm>
#include <cmath>

#include "src/utils/error.hpp"

namespace fedcav::fl {

SamplerPolicy parse_sampler_policy(const std::string& name) {
  if (name == "uniform") return SamplerPolicy::kUniform;
  if (name == "roundrobin") return SamplerPolicy::kRoundRobin;
  if (name == "lossbiased") return SamplerPolicy::kLossBiased;
  throw Error("parse_sampler_policy: unknown policy '" + name + "'");
}

std::string to_string(SamplerPolicy policy) {
  switch (policy) {
    case SamplerPolicy::kUniform: return "uniform";
    case SamplerPolicy::kRoundRobin: return "roundrobin";
    case SamplerPolicy::kLossBiased: return "lossbiased";
  }
  return "?";
}

ParticipantSampler::ParticipantSampler(SamplerPolicy policy, std::size_t num_clients,
                                       double sample_ratio, std::uint64_t seed)
    : policy_(policy), num_clients_(num_clients), rng_(seed) {
  FEDCAV_REQUIRE(num_clients >= 1, "ParticipantSampler: no clients");
  FEDCAV_REQUIRE(sample_ratio > 0.0 && sample_ratio <= 1.0,
                 "ParticipantSampler: sample_ratio must be in (0, 1]");
  cohort_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(sample_ratio * static_cast<double>(num_clients))));
  last_loss_.assign(num_clients, 0.0);
  has_loss_.assign(num_clients, false);
}

std::vector<std::size_t> ParticipantSampler::sample() {
  std::vector<std::size_t> picked;
  switch (policy_) {
    case SamplerPolicy::kUniform:
      picked = rng_.sample_without_replacement(num_clients_, cohort_);
      break;
    case SamplerPolicy::kRoundRobin: {
      picked.reserve(cohort_);
      for (std::size_t i = 0; i < cohort_; ++i) {
        picked.push_back((cursor_ + i) % num_clients_);
      }
      cursor_ = (cursor_ + cohort_) % num_clients_;
      break;
    }
    case SamplerPolicy::kLossBiased: {
      // Weight ∝ exp(loss) for reported clients; unreported clients get
      // the mean weight so newcomers are not starved.
      std::vector<double> weights(num_clients_);
      double mean_loss = 0.0;
      std::size_t reported = 0;
      for (std::size_t i = 0; i < num_clients_; ++i) {
        if (has_loss_[i]) {
          mean_loss += last_loss_[i];
          ++reported;
        }
      }
      mean_loss = reported > 0 ? mean_loss / static_cast<double>(reported) : 0.0;
      for (std::size_t i = 0; i < num_clients_; ++i) {
        const double loss = has_loss_[i] ? last_loss_[i] : mean_loss;
        weights[i] = std::exp(std::min(loss, 30.0));  // bounded against overflow
      }
      // Sequential weighted sampling without replacement.
      picked.reserve(cohort_);
      for (std::size_t k = 0; k < cohort_; ++k) {
        const std::size_t idx = rng_.categorical(weights);
        picked.push_back(idx);
        weights[idx] = 0.0;
      }
      break;
    }
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

void ParticipantSampler::save_state(ByteBuffer& buf) const {
  write_u64(buf, cursor_);
  write_u64(buf, num_clients_);
  for (std::size_t i = 0; i < num_clients_; ++i) {
    write_f64(buf, last_loss_[i]);
    write_u8(buf, has_loss_[i] ? 1 : 0);
  }
}

void ParticipantSampler::load_state(ByteReader& reader) {
  cursor_ = reader.read_u64();
  const std::uint64_t n = reader.read_u64();
  FEDCAV_REQUIRE(n == num_clients_,
                 "ParticipantSampler::load_state: client count mismatch");
  for (std::size_t i = 0; i < num_clients_; ++i) {
    last_loss_[i] = reader.read_f64();
    has_loss_[i] = reader.read_u8() != 0;
  }
}

void ParticipantSampler::observe_losses(const std::vector<std::size_t>& participants,
                                        const std::vector<double>& losses) {
  FEDCAV_REQUIRE(participants.size() == losses.size(),
                 "ParticipantSampler::observe_losses: size mismatch");
  for (std::size_t i = 0; i < participants.size(); ++i) {
    FEDCAV_REQUIRE(participants[i] < num_clients_,
                   "ParticipantSampler::observe_losses: client out of range");
    last_loss_[participants[i]] = losses[i];
    has_loss_[participants[i]] = true;
  }
}

}  // namespace fedcav::fl
