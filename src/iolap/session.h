#ifndef IOLAP_IOLAP_SESSION_H_
#define IOLAP_IOLAP_SESSION_H_

#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "core/function_registry.h"
#include "iolap/query_controller.h"

namespace iolap {

/// A compiled incremental query, ready to run. Obtained from Session::Sql
/// or Session::FromPlan. Running delivers one PartialResult per mini-batch
/// through the observer; the observer may stop the execution at any point
/// (the paper's interactive accuracy/latency control, §2).
///
/// Thread contract: a Session and the IncrementalQuerys it compiles are
/// *thread-compatible*, not thread-safe — one query runs on one driving
/// thread at a time (the internal ThreadPool fans out under it; see
/// docs/INTERNALS.md §5/§8). Distinct Sessions over the same Catalog are
/// independent: the engine treats the catalog as immutable input, and the
/// only cross-session shared mutable state in the repo is the workload
/// catalog cache, which carries its own annotated lock
/// (workloads/experiment_driver.cc).
class IncrementalQuery {
 public:
  /// Executes all mini-batches (or until the observer stops the run).
  Status Run(const ResultObserver& observer = nullptr);

  /// Per-batch performance counters of the last Run.
  const QueryMetrics& metrics() const { return controller_->metrics(); }

  /// The most recent partial (or final) result.
  const PartialResult& last_result() const {
    return controller_->last_result();
  }

  const QueryPlan& plan() const { return controller_->plan(); }
  size_t num_batches() const { return controller_->num_batches(); }

  /// Direct access for tests / benchmarks.
  QueryController& controller() { return *controller_; }

 private:
  friend class Session;
  explicit IncrementalQuery(std::unique_ptr<QueryController> controller)
      : controller_(std::move(controller)) {}

  std::unique_ptr<QueryController> controller_;
};

/// The top-level entry point of the library:
///
///   Catalog catalog;
///   catalog.RegisterTable("sessions", sessions, /*streamed=*/true);
///   Session session(&catalog);
///   auto query = session.Sql(
///       "SELECT AVG(play_time) FROM sessions "
///       "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)");
///   (*query)->Run([](const PartialResult& r) {
///     // inspect r.rows / r.estimates, stop when accurate enough
///     return BatchAction::kContinue;
///   });
///
/// A Session owns engine options and a function registry (extend it with
/// UDFs/UDAFs before compiling queries); the catalog is shared and outlives
/// the session.
class Session {
 public:
  explicit Session(const Catalog* catalog, EngineOptions options = {});
  Session(const Catalog* catalog, EngineOptions options,
          std::shared_ptr<FunctionRegistry> functions);

  /// Compiles a SQL query of the supported subset (see sql/binder.h).
  Result<std::unique_ptr<IncrementalQuery>> Sql(const std::string& query);

  /// Compiles `query` and renders its lineage-block plan together with the
  /// §4.1 uncertainty annotations — which filters are uncertain, which
  /// attributes carry lineage, which blocks HDA would have to re-evaluate
  /// from scratch. The online-rewriter output, in human-readable form.
  Result<std::string> Explain(const std::string& query);

  /// Wraps a hand-built plan (PlanBuilder).
  Result<std::unique_ptr<IncrementalQuery>> FromPlan(QueryPlan plan);

  /// The registry new queries compile against; register UDFs/UDAFs here.
  /// A numeric UDF needs only its signature and a body over NumericValue;
  /// the boxed call is derived from it:
  ///
  ///   Status status = session.functions()->RegisterScalar(
  ///       {.name = "double_it",
  ///        .signature = {.params = {ParamKind::kNumeric},
  ///                      .result = ValueType::kDouble},
  ///        .numeric = [](const NumericValue* args, size_t) {
  ///          if (args[0].is_null()) return NumericValue::Null();
  ///          return NumericValue::Dbl(2.0 * args[0].AsDouble());
  ///        }});
  ///
  /// A UDAF is a definition with its argument's signature and a flat state
  /// of a few doubles, given by a fold and a result function (see
  /// AggregateState); it is smooth and scale-invariant unless it says
  /// otherwise, and has no closed-form error unless it supplies one:
  ///
  ///   void MeanSquareFold(double* s, double x, ValueType, double w) {
  ///     s[0] += w * x * x;
  ///     s[1] += w;
  ///   }
  ///   std::optional<double> MeanSquare(const double* s, double) {
  ///     if (s[1] <= 0.0) return std::nullopt;
  ///     return s[0] / s[1];
  ///   }
  ///
  ///   Status status = session.functions()->RegisterAggregate(
  ///       {.name = "mean_square",
  ///        .signature = {.params = {ParamKind::kNumeric},
  ///                      .result = ValueType::kDouble},
  ///        .state = AggregateState::Of<MeanSquareFold, 2>(MeanSquare)});
  const std::shared_ptr<FunctionRegistry>& functions() { return functions_; }

  EngineOptions* mutable_options() { return &options_; }
  const EngineOptions& options() const { return options_; }

 private:
  const Catalog* catalog_;
  EngineOptions options_;
  std::shared_ptr<FunctionRegistry> functions_;
};

}  // namespace iolap

#endif  // IOLAP_IOLAP_SESSION_H_
