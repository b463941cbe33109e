#include "workloads/conviva.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/random.h"

namespace iolap {

namespace {

const char* kRegions[] = {"us-east", "us-west", "eu",
                          "apac",    "latam",   "mea"};
const char* kDevices[] = {"desktop", "mobile", "tv", "tablet"};

}  // namespace

ConvivaConfig ConvivaConfig::Scaled(double factor) const {
  ConvivaConfig scaled = *this;
  scaled.sessions = std::max<size_t>(
      1, static_cast<size_t>(std::llround(sessions * factor)));
  return scaled;
}

Result<std::shared_ptr<Catalog>> MakeConvivaCatalog(
    const ConvivaConfig& config) {
  Rng rng(config.seed ^ 0xc0471a);
  auto catalog = std::make_shared<Catalog>();

  Table sessions(Schema({{"session_id", ValueType::kInt64},
                         {"site", ValueType::kInt64},
                         {"cdn", ValueType::kInt64},
                         {"region", ValueType::kString},
                         {"device", ValueType::kString},
                         {"buffer_time", ValueType::kDouble},
                         {"play_time", ValueType::kDouble},
                         {"join_time", ValueType::kDouble},
                         {"bitrate_kbps", ValueType::kDouble},
                         {"bytes", ValueType::kDouble},
                         {"rebuffer_count", ValueType::kInt64},
                         {"failed", ValueType::kInt64}}));
  sessions.Reserve(config.sessions);
  for (size_t i = 0; i < config.sessions; ++i) {
    // Sites are Zipf-popular; each site has a base quality profile so the
    // per-site aggregates that C-queries compare against genuinely differ.
    const int64_t site =
        static_cast<int64_t>(rng.NextZipf(config.sites, 0.9));
    const int64_t cdn = static_cast<int64_t>(rng.NextBounded(config.cdns));
    const double site_quality = 0.6 + 0.8 * ((site * 2654435761u) % 97) / 97.0;
    const double cdn_quality = 0.8 + 0.1 * static_cast<double>(cdn);
    const bool failed = rng.NextDouble() < config.failure_rate;

    // Buffering: exponential-ish with site/CDN dependence (heavier tails on
    // worse sites). Play time anti-correlates with buffering — that is the
    // "slow buffering impact" the paper's running example measures.
    const double buffer_time =
        failed ? 0.0
               : rng.NextExponential(0.05 * site_quality * cdn_quality);
    const double play_time =
        failed ? 0.0
               : std::max(1.0, 600.0 * site_quality /
                                       (1.0 + buffer_time / 40.0) *
                                       (0.3 + rng.NextDouble()));
    const double join_time =
        0.3 + rng.NextExponential(0.8 * cdn_quality);
    const double bitrate =
        failed ? 0.0
               : 500.0 + 4500.0 * site_quality * rng.NextDouble();
    const double bytes = play_time * bitrate / 8.0 * 1000.0;
    const int64_t rebuffers =
        failed ? 0 : rng.NextPoisson(buffer_time / 15.0 + 0.2);

    sessions.AddRow(
        {Value::Int64(static_cast<int64_t>(i)), Value::Int64(site),
         Value::Int64(cdn),
         Value::String(kRegions[site % config.regions]),
         Value::String(kDevices[rng.NextBounded(4)]),
         Value::Double(buffer_time), Value::Double(play_time),
         Value::Double(join_time), Value::Double(bitrate),
         Value::Double(bytes), Value::Int64(rebuffers),
         Value::Int64(failed ? 1 : 0)});
  }
  IOLAP_RETURN_IF_ERROR(catalog->RegisterTable("sessions", std::move(sessions),
                                               /*streamed=*/true));
  return catalog;
}

void RegisterConvivaUdfs(FunctionRegistry* registry) {
  const ParamKind kNum = ParamKind::kNumeric;
  // Both definitions have a body, which registration never refuses.
  const auto scalar = [&](ScalarFunction fn) {
    const Status status = registry->RegisterScalar(std::move(fn));
    assert(status.ok());
    (void)status;
  };
  scalar(
      {.name = "engagement_score",
       .signature = {.params = {kNum, kNum}, .result = ValueType::kDouble},
       .numeric = [](const NumericValue* args, size_t) {
         if (args[0].is_null() || args[1].is_null()) {
           return NumericValue::Null();
         }
         // Minutes watched discounted by buffering pain.
         return NumericValue::Dbl(args[0].AsDouble() /
                                  (60.0 * (1.0 + args[1].AsDouble() / 30.0)));
       }});
  scalar(
      {.name = "is_hd",
       .signature = {.params = {kNum}, .result = ValueType::kInt64},
       .numeric = [](const NumericValue* args, size_t) {
         if (args[0].is_null()) return NumericValue::Null();
         return NumericValue::Bool(args[0].AsDouble() >= 2500.0);
       }});
}

}  // namespace iolap
