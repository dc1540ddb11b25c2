// Copyright 2026 The QLOVE Reproduction Authors
// Shared test helper: the registered-grid read. One Quantile request per
// grid phi on one key — the dashboard read every Tick, served from the
// merged grid estimates themselves.

#ifndef QLOVE_TESTS_GRID_QUERY_H_
#define QLOVE_TESTS_GRID_QUERY_H_

#include "common/status.h"
#include "engine/engine.h"
#include "engine/query.h"

namespace qlove {
namespace test_util {

/// \p engine's answer for \p key with one Quantile request per grid phi
/// (EngineOptions::phis), in grid order.
inline Result<engine::QueryResult> GridQuery(
    const engine::TelemetryEngine& engine, const engine::MetricKey& key) {
  engine::QuerySpec spec = engine::QuerySpec::ForKey(key);
  for (double phi : engine.options().phis) {
    spec.With(engine::QueryRequest::Quantile(phi));
  }
  return engine.Query(spec);
}

}  // namespace test_util
}  // namespace qlove

#endif  // QLOVE_TESTS_GRID_QUERY_H_
