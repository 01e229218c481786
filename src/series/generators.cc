#include "series/generators.h"

#include <algorithm>
#include <cmath>

#include "common/math_utils.h"

namespace privshape::series {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Gaussian bump centred at c with width w, evaluated at x in [0,1].
double Bump(double x, double c, double w) {
  double d = (x - c) / w;
  return std::exp(-0.5 * d * d);
}

std::vector<double> AddNoiseAndScale(std::vector<double> base,
                                     const GeneratorOptions& options,
                                     Rng* rng) {
  double scale = 1.0 + rng->Uniform(-options.amplitude_jitter,
                                    options.amplitude_jitter);
  for (double& v : base) {
    v = v * scale + rng->Gaussian(0.0, options.noise_stddev);
  }
  if (options.z_normalize) ZNormalize(&base);
  return base;
}

TimeSeries MakeTemplateInstance(int label, size_t length,
                                const GeneratorOptions& options,
                                std::vector<double> (*make_template)(int,
                                                                     size_t),
                                Rng* rng) {
  std::vector<double> base = make_template(label, length);
  base = SmoothTimeWarp(base, options.warp_strength, rng);
  TimeSeries inst;
  inst.values = AddNoiseAndScale(std::move(base), options, rng);
  inst.label = label;
  return inst;
}

Dataset MakeTemplateDataset(const GeneratorOptions& options, int num_classes,
                            size_t length,
                            std::vector<double> (*make_template)(int,
                                                                 size_t)) {
  Dataset out;
  out.instances.reserve(options.num_instances);
  Rng rng(options.seed);
  for (size_t i = 0; i < options.num_instances; ++i) {
    int label = static_cast<int>(i % static_cast<size_t>(num_classes));
    out.instances.push_back(
        MakeTemplateInstance(label, length, options, make_template, &rng));
  }
  return out;
}

}  // namespace

TimeSeries MakeSymbolsInstance(int label, const GeneratorOptions& options,
                               Rng* rng) {
  return MakeTemplateInstance(label, kSymbolsLength, options,
                              &SymbolsTemplate, rng);
}

TimeSeries MakeTraceInstance(int label, const GeneratorOptions& options,
                             Rng* rng) {
  return MakeTemplateInstance(label, kTraceLength, options, &TraceTemplate,
                              rng);
}

std::vector<double> SymbolsTemplate(int label, size_t length) {
  std::vector<double> v(length);
  for (size_t i = 0; i < length; ++i) {
    double x = static_cast<double>(i) / static_cast<double>(length - 1);
    double y = 0.0;
    switch (label) {
      case 0:  // single positive stroke
        y = 2.0 * Bump(x, 0.35, 0.12);
        break;
      case 1:  // single negative stroke, later in the gesture
        y = -2.0 * Bump(x, 0.6, 0.12);
        break;
      case 2:  // up stroke then down stroke
        y = 1.8 * Bump(x, 0.25, 0.09) - 1.8 * Bump(x, 0.7, 0.09);
        break;
      case 3:  // down stroke then up stroke
        y = -1.8 * Bump(x, 0.3, 0.09) + 1.8 * Bump(x, 0.75, 0.09);
        break;
      case 4:  // double positive strokes
        y = 1.5 * Bump(x, 0.25, 0.07) + 1.5 * Bump(x, 0.65, 0.07);
        break;
      case 5:  // slow triangle sweep
        y = 1.5 * (x < 0.5 ? 2.0 * x : 2.0 * (1.0 - x));
        break;
      default:
        y = 0.0;
        break;
    }
    v[i] = y;
  }
  return v;
}

std::vector<double> TraceTemplate(int label, size_t length) {
  std::vector<double> v(length);
  for (size_t i = 0; i < length; ++i) {
    double x = static_cast<double>(i) / static_cast<double>(length - 1);
    double y = 0.0;
    switch (label) {
      case 0: {  // dip then rise to a new level (UCR Trace style)
        if (x < 0.2) {
          y = 0.0;
        } else if (x < 0.35) {
          // pronounced undershoot before the transition
          y = -1.0 * std::sin((x - 0.2) / 0.15 * kPi);
        } else if (x < 0.6) {
          // smooth rise to the upper plateau
          y = 0.5 * (1.0 - std::cos((x - 0.35) / 0.25 * kPi));
        } else {
          y = 1.0;
        }
        break;
      }
      case 1: {  // ramp with second-order overshoot, settling high
        if (x < 0.3) {
          y = 0.0;
        } else {
          double s = (x - 0.3) / 0.7;
          y = 1.0 - std::exp(-5.0 * s) * std::cos(9.0 * s);
        }
        break;
      }
      case 2: {  // damped oscillation returning to a lower level
        if (x < 0.2) {
          y = 1.0;
        } else {
          double s = (x - 0.2) / 0.8;
          y = std::exp(-3.0 * s) * std::cos(14.0 * s);
        }
        break;
      }
      default:
        y = 0.0;
        break;
    }
    v[i] = y;
  }
  return v;
}

std::vector<double> SmoothTimeWarp(const std::vector<double>& values,
                                   double strength, Rng* rng) {
  if (values.size() < 3 || strength <= 0.0) return values;
  // Monotone warp through K interior control points: position p_k of the
  // identity map is displaced by up to `strength` of the inter-knot gap,
  // then the map is piecewise-linearly interpolated and used to resample.
  constexpr int kKnots = 4;
  std::vector<double> knots_in(kKnots + 2), knots_out(kKnots + 2);
  knots_in.front() = knots_out.front() = 0.0;
  knots_in.back() = knots_out.back() = 1.0;
  for (int k = 1; k <= kKnots; ++k) {
    double base = static_cast<double>(k) / (kKnots + 1);
    knots_in[k] = base;
    double gap = 1.0 / (kKnots + 1);
    knots_out[k] = base + rng->Uniform(-strength, strength) * gap;
  }
  // Enforce strict monotonicity of the output knots.
  for (int k = 1; k <= kKnots + 1; ++k) {
    knots_out[k] = std::max(knots_out[k], knots_out[k - 1] + 1e-4);
  }
  double norm = knots_out.back();
  for (double& k : knots_out) k /= norm;

  size_t n = values.size();
  std::vector<double> out(n);
  size_t seg = 0;
  for (size_t i = 0; i < n; ++i) {
    double x = static_cast<double>(i) / static_cast<double>(n - 1);
    while (seg + 2 < knots_in.size() && x > knots_in[seg + 1]) ++seg;
    double t = (x - knots_in[seg]) / (knots_in[seg + 1] - knots_in[seg]);
    double warped = knots_out[seg] + t * (knots_out[seg + 1] - knots_out[seg]);
    double pos = warped * static_cast<double>(n - 1);
    size_t lo = std::min(static_cast<size_t>(pos), n - 1);
    size_t hi = std::min(lo + 1, n - 1);
    double frac = pos - static_cast<double>(lo);
    out[i] = values[lo] * (1.0 - frac) + values[hi] * frac;
  }
  return out;
}

Dataset MakeSymbolsDataset(const GeneratorOptions& options) {
  return MakeTemplateDataset(options, /*num_classes=*/6, /*length=*/398,
                             &SymbolsTemplate);
}

Dataset MakeTraceDataset(const GeneratorOptions& options) {
  return MakeTemplateDataset(options, /*num_classes=*/3, /*length=*/275,
                             &TraceTemplate);
}

Dataset MakeTrigWaveDataset(const TrigWaveOptions& options) {
  Dataset out;
  out.instances.reserve(options.num_instances);
  Rng rng(options.seed);
  size_t emit = options.subset_prefix > 0
                    ? std::min(options.subset_prefix, options.length)
                    : options.length;
  for (size_t i = 0; i < options.num_instances; ++i) {
    int label = static_cast<int>(i % 2);
    TimeSeries inst;
    inst.label = label;
    inst.values.resize(emit);
    for (size_t j = 0; j < emit; ++j) {
      double phase =
          2.0 * kPi * static_cast<double>(j) /
          static_cast<double>(options.length);
      double y = label == 0 ? std::sin(phase) : std::cos(phase);
      // std::normal_distribution requires stddev > 0.
      if (options.noise_stddev > 0.0) {
        y += rng.Gaussian(0.0, options.noise_stddev);
      }
      inst.values[j] = y;
    }
    if (options.z_normalize) ZNormalize(&inst.values);
    out.instances.push_back(std::move(inst));
  }
  return out;
}

}  // namespace privshape::series
