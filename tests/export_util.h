// Copyright 2026 The QLOVE Reproduction Authors
// Shared test helper: an engine's full export frame, raw or as held. Tests
// that need a WireSnapshot to inspect or tamper with take it from the
// bytes the engine actually ships (TelemetryEngine::Export through a fresh
// cursor), never from a side channel.

#ifndef QLOVE_TESTS_EXPORT_UTIL_H_
#define QLOVE_TESTS_EXPORT_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/aggregator.h"
#include "engine/engine.h"
#include "engine/wire.h"

namespace qlove {
namespace test_util {

/// \p engine's full frame: Export through a fresh cursor.
inline std::vector<uint8_t> FullFrame(
    const engine::TelemetryEngine& engine, std::string source,
    const engine::ExportOptions& options = {}) {
  engine::ExportCursor cursor;
  std::vector<uint8_t> frame;
  const Status status = engine.Export(std::move(source), &cursor, &frame,
                                      options);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return frame;
}

/// \p engine's full frame as an aggregator holds it: ingested into a
/// scratch AggregatorEngine and read back.
inline engine::WireSnapshot FullSnapshot(
    const engine::TelemetryEngine& engine, std::string source,
    const engine::ExportOptions& options = {}) {
  engine::AggregatorOptions scratch_options;
  scratch_options.introspection = false;
  engine::AggregatorEngine scratch(scratch_options);
  auto ack = scratch.IngestFrame(FullFrame(engine, source, options));
  EXPECT_TRUE(ack.ok() && ack.ValueOrDie().applied)
      << (ack.ok() ? "NAKed" : ack.status().ToString());
  auto held = scratch.SourceSnapshot(source);
  EXPECT_TRUE(held.ok()) << held.status().ToString();
  return held.ok() ? held.TakeValue() : engine::WireSnapshot();
}

}  // namespace test_util
}  // namespace qlove

#endif  // QLOVE_TESTS_EXPORT_UTIL_H_
