#ifndef IOLAP_PERFBENCH_TRACE_H_
#define IOLAP_PERFBENCH_TRACE_H_

// In-memory span recorder that writes Chrome trace-event JSON, the format
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly. Spans are
// complete ("ph": "X") events on one track; Perfetto nests them by time, so
// a batch-delivery span shows inside its query's `iolap.run` span. Every
// span of one query execution carries the same `run_id` argument.

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Trace {
 public:
  explicit Trace(bool enabled)
      : enabled_(enabled), recording_(enabled), origin_(Clock::now()) {}

  /// Pauses (false) or resumes (true) recording; no-op when disabled.
  void set_recording(bool on) { recording_ = enabled_ && on; }

  /// Records `name` over [start, end]. `args` is the body of a JSON object
  /// (`"batch": 3, "fraction": 0.12`), may be empty; `run_id` < 0 omits it.
  void Span(const char* name, Clock::time_point start, Clock::time_point end,
            int run_id, const std::string& args = "") {
    if (!recording_) return;
    std::string body;
    if (run_id >= 0) body = "\"run_id\": " + std::to_string(run_id);
    if (!args.empty()) body += (body.empty() ? "" : ", ") + args;
    events_.push_back(Event{name, Micros(start), Micros(end) - Micros(start),
                            std::move(body)});
  }

  /// Writes {"traceEvents": [...], "otherData": {metadata}}. `metadata` is
  /// the body of a JSON object. Returns false on I/O failure.
  bool Write(const std::string& path, const std::string& metadata) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n\"otherData\": {%s},\n",
                 metadata.c_str());
    std::fprintf(f, "\"traceEvents\": [\n");
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                   "\"args\": {%s}}%s\n",
                   e.name, Category(e.name).c_str(), e.ts_us, e.dur_us,
                   e.args.c_str(), i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Event {
    const char* name;
    double ts_us;
    double dur_us;
    std::string args;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  // The layer prefix of a dotted span name ("iolap.run" -> "iolap").
  static std::string Category(const char* name) {
    const std::string s(name);
    return s.substr(0, s.find('.'));
  }

  bool enabled_;
  bool recording_;
  Clock::time_point origin_;
  std::vector<Event> events_;
};

}  // namespace perfbench

#endif  // IOLAP_PERFBENCH_TRACE_H_
