// FNV-1a over the bytes of fitted model data, for pinning estimators to
// bit-identical output: equal hashes mean bit-identical models.
#pragma once

#include <cstdint>
#include <vector>

#include "ident/arx.hpp"
#include "ident/rbf.hpp"

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void add(const double* p, std::size_t n) {
    const auto* b = reinterpret_cast<const unsigned char*>(p);
    for (std::size_t k = 0; k < n * sizeof(double); ++k) h = (h ^ b[k]) * 1099511628211ull;
  }
  void add(const std::vector<double>& v) { add(v.data(), v.size()); }
  /// sigma, bias, scaler, centres and weights.
  void add(const emc::ident::RbfModel& m) {
    const double sb[] = {m.sigma(), m.bias()};
    add(sb, 2);
    add(m.scaler().mean());
    add(m.scaler().scale());
    add(m.centers().data(), m.centers().rows() * m.centers().cols());
    add(m.weights());
  }
  /// Input taps, then feedback taps.
  void add(const emc::ident::ArxModel& m) {
    add(m.b);
    add(m.a);
  }
};
