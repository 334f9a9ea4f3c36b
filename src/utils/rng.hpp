// Deterministic random number generation.
//
// All stochastic behaviour in the library (weight init, data synthesis,
// client sampling, batching) flows through fedcav::Rng so that every
// experiment is reproducible from a single seed. The generator is
// xoshiro256** seeded via splitmix64, following the reference
// implementations by Blackman & Vigna. We avoid std::mt19937 because its
// state is large and its distributions are not stable across standard
// library implementations; ours are bit-stable everywhere.
#pragma once

#include <cstdint>
#include <vector>

namespace fedcav {

/// splitmix64 step: used to expand a single 64-bit seed into generator
/// state and to derive independent child seeds.
std::uint64_t splitmix64(std::uint64_t& state);

/// How per-consumer random streams are produced across federation
/// rounds. There is one mode: stateless per-round derivation. Every
/// consumer (client batch shuffles, straggler coins, the sampler) reseeds
/// from derive_seed(global_seed, round, stream_id, tag) at the moment it
/// runs, so the stream it sees is a pure function of (seed, round, id)
/// regardless of which process hosts it or which rounds it skipped.
/// Remote, in-process, sharded, and resumed runs are bit-identical
/// everywhere, including sampled/straggler configs (DESIGN.md §16).
enum class RngMode : std::uint8_t {
  kDerived = 1,
};

/// Stream-tag domain separators for derive_seed. Distinct tags make the
/// derived streams of one (round, client) pair independent: the batch
/// shuffle stream can never collide with the straggler coin.
enum class RngStream : std::uint64_t {
  kClientTrain = 1,
  kStraggler = 2,
  kSampler = 3,
};

/// Derive the seed of one consumer's stream for one round: a splitmix64
/// mix chain over (root, round, stream_id, tag). Pure function — any
/// process that knows the global seed can reproduce any stream without
/// replaying history. Changing any single argument decorrelates the
/// output completely (each absorption runs the full avalanche).
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t round,
                          std::uint64_t stream_id, RngStream tag);

/// One pure Bernoulli draw from the derived stream (root, round,
/// stream_id, tag). The straggler filter uses this so the server and a
/// remote worker reach the same drop decision independently.
bool derived_bernoulli(std::uint64_t root, std::uint64_t round,
                       std::uint64_t stream_id, RngStream tag, double p);

/// Complete serializable snapshot of an Rng. Restoring a state resumes
/// the exact output stream — the checkpoint/resume path depends on this
/// for bit-identical continuation of the comm fabric's fault streams.
struct RngState {
  std::uint64_t s[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

/// Deterministic, portable PRNG (xoshiro256**) with the distribution
/// helpers the library needs. Copyable; copies advance independently.
class Rng {
 public:
  /// Seeds the generator state from `seed` via splitmix64 expansion.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform float in [lo, hi).
  float uniform_f(float lo, float hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Sample an index from an unnormalized non-negative weight vector.
  /// Requires at least one strictly positive weight.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of an index-addressable container.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(i + 1));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// Sample `k` distinct indices from [0, n) (reservoir-free partial
  /// Fisher-Yates). Result order is random. Requires k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  /// Derive an independent child generator; the child stream does not
  /// overlap this one for any practical horizon.
  Rng fork();

  /// Snapshot / restore the full generator state (see RngState).
  RngState state() const;
  void set_state(const RngState& state);

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace fedcav
