// Spans for the traced run. The benchmark records them around its own
// calls into each layer's public functions (nothing in src/ is
// instrumented): a span has a name `layer.operation`, a start and end on
// the steady clock, the span that was open when it began (its parent),
// and the request it belongs to (pass / clearing point / component).
//
// Spans stay in memory and are written out once, at exit. A null Tracer
// pointer turns every Span into a no-op, so the same replay code runs
// untraced for the overhead comparison.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RequestId {
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t pass = kNone;
  std::uint32_t clear = kNone;
  std::uint32_t component = kNone;
};

struct SpanRecord {
  const char* name = "";  // string literal: `layer.operation`, or `pass`
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;  // index into the span list, -1 for a root
  RequestId request;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  std::size_t open(const char* name);
  void close(std::size_t index);

  void set_request(RequestId request) { request_ = request; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Write `header` as the first line, then every span as one JSON
  /// object per line.
  void write(const std::string& path, const std::string& header) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  // stack of open span indexes
  RequestId request_;
};

/// RAII span; does nothing when `tracer` is null.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : 0) {}
  ~Span() {
    if (tracer_) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

/// Where the traced time went. Spans named `pass` are the roots of the
/// traced workload; every other root is a probe outside the workload.
/// The sums cover spans only: reconciling them against the replay's own
/// wall clock is the caller's check.
struct Attribution {
  double unattributed_us = 0.0;  // Σ self time of `pass` spans
  std::map<std::string, double> layer_self_us;  // layer -> Σ self time
  /// Every span's duration by name, probes included.
  std::map<std::string, std::vector<double>> durations_us;

  double layers_us() const;  // Σ layer_self_us
};

/// Layers are the part of a span name before the first '.'.
Attribution attribute(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
