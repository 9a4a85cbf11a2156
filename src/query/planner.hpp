// Physical planning: which protocol answers a parsed query, and over which
// mix of cube cells and collections.
//
//   MIN/MAX/COUNT/SUM/AVG          -> one Fact 2.1 wave (two for AVG)
//   COUNT ... ERROR e              -> LogLog alpha-counting, m from e
//   SUM / AVG ... ERROR e          -> ODI sum sketch ([2]), m from e
//   MEDIAN / QUANTILE              -> Fig. 1 deterministic search (exact)
//   MEDIAN / QUANTILE ... ERROR e  -> Fig. 4 zoom (beta = e,
//                                     epsilon = 1 - confidence)
//   COUNT_DISTINCT                 -> exact distinct-set union wave
//   COUNT_DISTINCT ... ERROR e     -> hashed LogLog, m from e
//
// ERROR semantics: relative-count error for counting aggregates
// (sigma ~ 1.04/sqrt(m) <= e), value precision beta for selection
// aggregates.
//
// On top of the strategy choice the planner builds the plan's data-access
// program (see plan.hpp): for cube-eligible aggregates it runs a shortest-
// path cover over the boundary lattice of the catalog's cells, choosing the
// bit-cheapest ordered mix of cube cells and residue collections, and keeps
// the cover only when its estimate beats a plain tree collection.
#pragma once

#include "src/common/result.hpp"
#include "src/query/ast.hpp"
#include "src/query/plan.hpp"

namespace sensornet::query {

/// Registers m so the estimator's sigma ~ 1.04/sqrt(m) meets the requested
/// relative error, clamped to a practical power-of-two range.
unsigned registers_for_error(double error);

/// Canonicalizes the query's WHERE clause against the model's known value
/// bound. Throws QueryError with pinned diagnostics on degenerate regions:
///   "WHERE range is empty (lower bound exceeds upper bound)"  — inverted
///   "WHERE range selects no representable value"              — empty
/// The service surfaces these as admission errors.
RegionSignature region_signature(const Query& q, Value max_value_bound);

/// Plans queries against one deployment: a fixed value bound and an
/// optional cube catalog. Pure — plan() changes no observable state (the
/// catalog may memoise its cost answers, thread-safely), so one Planner can
/// serve any number of concurrent callers; re-planning the same query after
/// cube staleness changed is how plans track the cube's warmth.
class Planner {
 public:
  /// `catalog` may be null (every plan is then a single tree collection)
  /// and must outlive the planner.
  Planner(Value max_value_bound, const CubeCatalog* catalog = nullptr);

  /// Chooses strategy, canonicalizes the region, and builds the costed
  /// cover. Fails (never throws) on degenerate WHERE regions, with the same
  /// pinned diagnostics region_signature() documents.
  [[nodiscard]] Result<CostedPlan> plan(const Query& q) const;

  Value max_value_bound() const { return max_value_bound_; }
  const CubeCatalog* catalog() const { return catalog_; }

  /// Whether the cube's maintained partials can answer this plan at all
  /// (stats aggregates always; approximate distinct only when the catalog
  /// maintains HLL partials of exactly the plan's register count). The
  /// service uses this to route between the cube and the shared scheduler.
  bool cube_eligible(const CostedPlan& plan) const;

 private:
  /// Fills plan.steps / est_cube_bits / est_tree_bits for an already
  /// strategy-assigned, region-assigned plan.
  void build_cover(CostedPlan& plan) const;

  Value max_value_bound_;
  const CubeCatalog* catalog_;
};

}  // namespace sensornet::query
