#include "distance/distance.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace privshape::dist {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Rolling two-row DTW DP over the (n+1) x (m+1) table, shared by the
/// Sequence and the view overloads so both run the identical kernel.
/// `scratch` may be nullptr (a local scratch is used).
double DtwView(SymbolView a, SymbolView b, DtwScratch* scratch) {
  if (a.empty() && b.empty()) return 0.0;
  if (a.empty() || b.empty()) {
    // Align the empty word against everything: charge each symbol's level.
    SymbolView s = a.empty() ? b : a;
    double total = 0.0;
    for (Symbol x : s) total += static_cast<double>(x) + 1.0;
    return total;
  }
  size_t n = a.size(), m = b.size();
  DtwScratch local;
  DtwScratch* s = scratch != nullptr ? scratch : &local;
  s->prev.assign(m + 1, kInf);
  s->curr.assign(m + 1, kInf);
  s->prev[0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    std::fill(s->curr.begin(), s->curr.end(), kInf);
    for (size_t j = 1; j <= m; ++j) {
      double c = std::abs(static_cast<double>(a[i - 1]) -
                          static_cast<double>(b[j - 1]));
      double best = std::min({s->prev[j], s->curr[j - 1], s->prev[j - 1]});
      s->curr[j] = c + best;
    }
    std::swap(s->prev, s->curr);
  }
  return s->prev[m];
}

/// Rolling two-row Levenshtein DP; `scratch` as for DtwView.
double EditView(SymbolView a, SymbolView b, DtwScratch* scratch) {
  size_t n = a.size(), m = b.size();
  DtwScratch local;
  DtwScratch* s = scratch != nullptr ? scratch : &local;
  s->prev.resize(m + 1);
  s->curr.resize(m + 1);
  for (size_t j = 0; j <= m; ++j) s->prev[j] = static_cast<double>(j);
  for (size_t i = 1; i <= n; ++i) {
    s->curr[0] = static_cast<double>(i);
    for (size_t j = 1; j <= m; ++j) {
      double sub = s->prev[j - 1] + (a[i - 1] == b[j - 1] ? 0.0 : 1.0);
      s->curr[j] = std::min({s->prev[j] + 1.0, s->curr[j - 1] + 1.0, sub});
    }
    std::swap(s->prev, s->curr);
  }
  return s->prev[m];
}

double EuclideanView(SymbolView a, SymbolView b) {
  size_t n = std::max(a.size(), b.size());
  if (n == 0) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    // Pad the shorter word with its last symbol (empty words pad with 0).
    double x = i < a.size()
                   ? static_cast<double>(a[i])
                   : (a.empty() ? 0.0
                                : static_cast<double>(a[a.size() - 1]));
    double y = i < b.size()
                   ? static_cast<double>(b[i])
                   : (b.empty() ? 0.0
                                : static_cast<double>(b[b.size() - 1]));
    acc += (x - y) * (x - y);
  }
  return std::sqrt(acc);
}

double HausdorffView(SymbolView a, SymbolView b) {
  if (a.empty() || b.empty()) return a.size() == b.size() ? 0.0 : kInf;
  auto point = [](SymbolView s, size_t i) {
    double x = s.size() > 1 ? static_cast<double>(i) /
                                  static_cast<double>(s.size() - 1)
                            : 0.0;
    return std::pair<double, double>(x, static_cast<double>(s[i]));
  };
  auto directed = [&](SymbolView p, SymbolView q) {
    double worst = 0.0;
    for (size_t i = 0; i < p.size(); ++i) {
      auto [xi, yi] = point(p, i);
      double best = kInf;
      for (size_t j = 0; j < q.size(); ++j) {
        auto [xj, yj] = point(q, j);
        double d = std::hypot(xi - xj, yi - yj);
        best = std::min(best, d);
      }
      worst = std::max(worst, best);
    }
    return worst;
  };
  return std::max(directed(a, b), directed(b, a));
}

class DtwDistance : public SequenceDistance {
 public:
  double Distance(const Sequence& a, const Sequence& b) const override {
    return DtwView(a, b, nullptr);
  }
  double Distance(SymbolView a, SymbolView b,
                  DtwScratch* scratch) const override {
    return DtwView(a, b, scratch);
  }
  Metric metric() const override { return Metric::kDtw; }
};

class SedDistance : public SequenceDistance {
 public:
  double Distance(const Sequence& a, const Sequence& b) const override {
    return EditView(a, b, nullptr);
  }
  double Distance(SymbolView a, SymbolView b,
                  DtwScratch* scratch) const override {
    return EditView(a, b, scratch);
  }
  Metric metric() const override { return Metric::kSed; }
};

class EuclideanDistance : public SequenceDistance {
 public:
  double Distance(const Sequence& a, const Sequence& b) const override {
    return EuclideanView(a, b);
  }
  double Distance(SymbolView a, SymbolView b,
                  DtwScratch* /*scratch*/) const override {
    return EuclideanView(a, b);
  }
  Metric metric() const override { return Metric::kEuclidean; }
};

class HausdorffDistance : public SequenceDistance {
 public:
  double Distance(const Sequence& a, const Sequence& b) const override {
    return HausdorffView(a, b);
  }
  double Distance(SymbolView a, SymbolView b,
                  DtwScratch* /*scratch*/) const override {
    return HausdorffView(a, b);
  }
  Metric metric() const override { return Metric::kHausdorff; }
};

}  // namespace

const char* MetricName(Metric metric) {
  switch (metric) {
    case Metric::kDtw:
      return "dtw";
    case Metric::kSed:
      return "sed";
    case Metric::kEuclidean:
      return "euclidean";
    case Metric::kHausdorff:
      return "hausdorff";
  }
  return "?";
}

std::unique_ptr<SequenceDistance> MakeDistance(Metric metric) {
  switch (metric) {
    case Metric::kDtw:
      return std::make_unique<DtwDistance>();
    case Metric::kSed:
      return std::make_unique<SedDistance>();
    case Metric::kEuclidean:
      return std::make_unique<EuclideanDistance>();
    case Metric::kHausdorff:
      return std::make_unique<HausdorffDistance>();
  }
  return nullptr;
}

double DtwSymbolic(const Sequence& a, const Sequence& b) {
  return DtwView(a, b, nullptr);
}

double EditDistance(const Sequence& a, const Sequence& b) {
  return EditView(a, b, nullptr);
}

double EuclideanSymbolic(const Sequence& a, const Sequence& b) {
  return EuclideanView(a, b);
}

}  // namespace privshape::dist
