// Participant samplers: which clients join a round.
//
// The paper samples uniformly at random with ratio q (§5.1.4) — that is
// kUniform, the default. The alternatives implement the related-work
// selection families §2 discusses so they can be compared against
// contribution-aware *aggregation*:
//  * kRoundRobin — deterministic rotation (every client participates
//    equally often; a fairness baseline).
//  * kLossBiased — prefer clients whose last reported inference loss was
//    high (Fed-Focal/FAIR-style quality selection). Falls back to
//    uniform for clients that have never reported.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/serialize.hpp"
#include "src/utils/rng.hpp"

namespace fedcav::fl {

enum class SamplerPolicy {
  kUniform,
  kRoundRobin,
  kLossBiased,
};

SamplerPolicy parse_sampler_policy(const std::string& name);  // uniform|roundrobin|lossbiased
std::string to_string(SamplerPolicy policy);

class ParticipantSampler {
 public:
  ParticipantSampler(SamplerPolicy policy, std::size_t num_clients, double sample_ratio,
                     std::uint64_t seed);

  /// Indices of this round's participants, sorted ascending (the server
  /// relies on the deterministic order for reproducible reductions).
  std::vector<std::size_t> sample();

  /// Replace the sampler's RNG stream. The server calls this before
  /// every sample() with derive_seed(seed, round, 0, kSampler), making
  /// the cohort a pure function of (seed, round) — resume- and
  /// schedule-independent. The rotation cursor and loss memory stay
  /// stateful (they are checkpointed, not derived).
  void reseed(std::uint64_t seed) { rng_ = Rng(seed); }

  /// Feed back the inference losses observed for `participants` this
  /// round (used by kLossBiased; ignored otherwise).
  void observe_losses(const std::vector<std::size_t>& participants,
                      const std::vector<double>& losses);

  SamplerPolicy policy() const { return policy_; }
  std::size_t cohort_size() const { return cohort_; }

  /// Serialize / restore the state a reseeded sampler carries across
  /// rounds (rotation cursor, per-client loss memory) — not the RNG
  /// stream, which reseed() replaces. Policy and cohort geometry come
  /// from the constructor, not the snapshot; load_state throws
  /// fedcav::Error when the snapshot's client count differs.
  void save_state(ByteBuffer& buf) const;
  void load_state(ByteReader& reader);

 private:
  SamplerPolicy policy_;
  std::size_t num_clients_;
  std::size_t cohort_;
  Rng rng_;
  std::size_t cursor_ = 0;               // round-robin position
  std::vector<double> last_loss_;        // per-client, kLossBiased
  std::vector<bool> has_loss_;
};

}  // namespace fedcav::fl
