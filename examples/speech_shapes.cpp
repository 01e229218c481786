// Speech essential shapes (the paper's Example II and Fig. 1).
//
// Two speakers pronounce the same word at different speeds: the frequency
// feature series differ in length but share an essential shape. This
// example shows, without any privacy machinery, why Compressive SAX is the
// right front end — both recordings collapse to the same symbolic shape —
// and then runs PrivShape over a mixed-speed population to recover the
// shared shapes privately.
//
// Run: ./build/examples/speech_shapes

#include <cmath>
#include <iostream>

#include "core/pipeline.h"
#include "core/privshape.h"
#include "series/generators.h"
#include "series/sequence.h"

namespace {

/// A synthetic "formant contour" for one utterance: rise, plateau, fall —
/// stretched by `speed` (slower speakers produce longer recordings).
std::vector<double> Utterance(double speed, double noise, privshape::Rng* rng) {
  size_t length = static_cast<size_t>(240.0 / speed);
  std::vector<double> v(length);
  for (size_t i = 0; i < length; ++i) {
    double x = static_cast<double>(i) / static_cast<double>(length - 1);
    double y;
    if (x < 0.3) {
      y = x / 0.3;                     // rising onset
    } else if (x < 0.6) {
      y = 1.0;                         // vowel plateau
    } else {
      y = (1.0 - x) / 0.4;             // falling offset
    }
    // A scaled standard normal: the clean utterances (noise 0) must not
    // build a normal_distribution with stddev 0, which the standard
    // leaves undefined.
    v[i] = y + noise * rng->Gaussian();
  }
  return v;
}

}  // namespace

/// Transform with a fixed segment *count* (20): the segment length scales
/// with the recording so fast and slow speakers compare at the same
/// granularity, exactly like resampling utterances to a common frame rate.
privshape::Result<privshape::Sequence> TransformUtterance(
    const std::vector<double>& values) {
  privshape::core::TransformOptions transform;
  transform.t = 4;
  transform.w = std::max<int>(1, static_cast<int>(values.size() / 20));
  return privshape::core::TransformSeries(values, transform);
}

int main() {
  using namespace privshape;
  Rng rng(99);

  // --- Part 1: speed invariance of the essential shape. -----------------
  auto fast = Utterance(/*speed=*/1.6, /*noise=*/0.0, &rng);
  auto slow = Utterance(/*speed=*/0.8, /*noise=*/0.0, &rng);
  auto fast_word = TransformUtterance(fast);
  auto slow_word = TransformUtterance(slow);
  std::cout << "fast speaker (" << fast.size() << " samples): \""
            << SequenceToString(*fast_word) << "\"\n";
  std::cout << "slow speaker (" << slow.size() << " samples): \""
            << SequenceToString(*slow_word) << "\"\n";
  std::cout << (*fast_word == *slow_word
                    ? "-> identical essential shapes after Compressive SAX\n"
                    : "-> shapes differ (granularity artifact)\n");

  // --- Part 2: private extraction over a mixed-speed population. --------
  const size_t kUsers = 1500;
  std::vector<Sequence> sequences;
  sequences.reserve(kUsers);
  for (size_t i = 0; i < kUsers; ++i) {
    double speed = rng.Uniform(0.7, 1.8);  // every user talks differently
    auto series = Utterance(speed, /*noise=*/0.08, &rng);
    auto word = TransformUtterance(series);
    if (word.ok()) sequences.push_back(std::move(*word));
  }

  core::MechanismConfig config;
  config.epsilon = 4.0;
  config.t = 4;
  config.k = 2;
  config.c = 3;
  config.metric = dist::Metric::kSed;
  config.seed = 99;
  core::PrivShape mechanism(config);
  auto result = mechanism.Run(sequences);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  std::cout << "\nprivately extracted shapes from " << kUsers
            << " mixed-speed utterances (eps=4):\n";
  for (const auto& shape : result->shapes) {
    std::cout << "  \"" << SequenceToString(shape.shape)
              << "\"  estimated count: " << shape.frequency << "\n";
  }
  std::cout << "the dominant shape should match the clean essential shape "
               "above.\n";
  return 0;
}
