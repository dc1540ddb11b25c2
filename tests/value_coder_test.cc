// Copyright 2026 The QLOVE Reproduction Authors
// The tagged-double coder (engine/wire.h wire_internal): integers below
// 2^52 in magnitude skip the decimal-exponent scan, and that fast path
// must write exactly the bytes the scan writes, for every double. This
// suite holds the two side by side over the edges of the fast path and
// over random and realistic value streams.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/quantizer.h"
#include "engine/wire.h"
#include "workload/generators.h"

namespace qlove {
namespace engine {
namespace {

#ifdef QLOVE_LONG_PROPERTY_TESTS
constexpr int kRandomValues = 2000000;
#else
constexpr int kRandomValues = 200000;
#endif

double FromBits(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Counts the values whose fast-path bytes differ from the scan's,
/// reporting the first few.
int64_t Mismatches(const std::vector<double>& values) {
  int64_t mismatches = 0;
  std::vector<uint8_t> fast;
  std::vector<uint8_t> scan;
  for (double v : values) {
    fast.clear();
    scan.clear();
    wire_internal::EncodeValue(v, &fast);
    wire_internal::EncodeValueByScan(v, &scan);
    if (fast != scan && ++mismatches <= 5) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      ADD_FAILURE() << "value " << v << " (bits 0x" << std::hex << bits
                    << std::dec << "): fast " << fast.size()
                    << " bytes, scan " << scan.size() << " bytes";
    }
  }
  return mismatches;
}

TEST(ValueCoderTest, FastPathEdgesMatchTheScan) {
  const double two52 = std::ldexp(1.0, 52);
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 9.0, 10.0, -10.0, 99.0, 100.0, 123000.0,
      -123000.0, 1e13, 1e14, -1e14, 3e15, 4e15, -4e15, 1.23e15, 2e15 + 10,
      1e15 + 1, two52 - 1, -(two52 - 1), two52, -two52, two52 + 1,
      -(two52 + 1), two52 + 2, 2 * two52, std::ldexp(1.0, 53) + 2,
      std::nextafter(two52, 0.0), std::nextafter(-two52, 0.0),
      std::nextafter(two52 - 1, 0.0), 9.2e18, -9.2e18, 1e19, 1e300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 2, std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(), 0.5, -0.25, 1e-12, 125.5, 0.001};
  // Every integer power of ten and its neighbours, both signs: trailing
  // zero counts from 0 to 15, including the >= 14 the exponent byte caps.
  for (int e = 0; e <= 15; ++e) {
    const double p = std::pow(10.0, e);
    for (double m : {1.0, 3.0, 7.0, 12.0, 450.0, 999.0}) {
      for (double v : {m * p, m * p + 1, m * p - 1}) {
        if (std::fabs(v) < 2 * two52) {
          values.push_back(v);
          values.push_back(-v);
        }
      }
    }
  }
  EXPECT_EQ(Mismatches(values), 0);
}

TEST(ValueCoderTest, RandomBitPatternsAndIntegersMatchTheScan) {
  Rng rng(20260);
  std::vector<double> values;
  values.reserve(3 * kRandomValues);
  const double two52 = std::ldexp(1.0, 52);
  for (int i = 0; i < kRandomValues; ++i) {
    // Any double at all (NaNs, infinities, subnormals included).
    values.push_back(FromBits(rng.Next64()));
    // Integers of every magnitude below (and just above) 2^52.
    const int bits = static_cast<int>(rng.Next64() % 54);
    const double magnitude =
        std::floor(std::ldexp(rng.NextDouble(), bits));
    values.push_back((rng.Next64() & 1) ? -magnitude : magnitude);
    // Integers with many trailing decimal zeros.
    const double scaled =
        std::floor(rng.NextDouble() * 1000.0) *
        std::pow(10.0, static_cast<double>(rng.Next64() % 16));
    if (scaled < 2 * two52) {
      values.push_back((rng.Next64() & 1) ? -scaled : scaled);
    }
  }
  EXPECT_EQ(Mismatches(values), 0);
}

TEST(ValueCoderTest, QuantizedRttsMatchTheScan) {
  // What frames mostly carry: 3-significant-digit quantized latencies.
  Quantizer quantizer(3);
  workload::NetMonGenerator gen(42);
  std::vector<double> values = workload::Materialize(&gen, kRandomValues);
  for (double& v : values) v = quantizer.Quantize(v);
  // And the same grid scaled across decades, sub-unit ones included.
  for (int e = -6; e <= 12; ++e) {
    for (int m = 100; m <= 999; m += 7) {
      values.push_back(quantizer.Quantize(m * std::pow(10.0, e)));
    }
  }
  EXPECT_EQ(Mismatches(values), 0);
}

}  // namespace
}  // namespace engine
}  // namespace qlove
