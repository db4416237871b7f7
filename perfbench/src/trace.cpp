#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

double micros_since(std::chrono::steady_clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

bool is_pass(const SpanRecord& s) { return std::strcmp(s.name, "pass") == 0; }

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot ? std::string(name, dot) : std::string(name);
}

}  // namespace

std::size_t Tracer::open(const char* name) {
  SpanRecord s;
  s.name = name;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.request = request_;
  s.start_us = micros_since(origin_);
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("Tracer: spans must close in LIFO order");
  }
  open_.pop_back();
  spans_[index].end_us = micros_since(origin_);
}

void Tracer::write(const std::string& path, const std::string& header) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << header << '\n';
  char line[256];
  for (const SpanRecord& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"parent\":%lld,\"pass\":%lld,\"clear\":%lld,"
                  "\"component\":%lld}\n",
                  s.name, s.start_us, s.end_us,
                  static_cast<long long>(s.parent),
                  s.request.pass == RequestId::kNone ? -1LL : s.request.pass,
                  s.request.clear == RequestId::kNone ? -1LL : s.request.clear,
                  s.request.component == RequestId::kNone
                      ? -1LL
                      : s.request.component);
    out << line;
  }
}

double Attribution::layers_us() const {
  double sum = 0.0;
  for (const auto& [layer, us] : layer_self_us) sum += us;
  return sum;
}

Attribution attribute(const std::vector<SpanRecord>& spans) {
  Attribution a;
  // Spans open in order and nest (the replay is single-threaded), so a
  // span's children never overlap: its self time is its duration minus
  // the sum of its children's durations.
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<bool> in_pass(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    a.durations_us[s.name].push_back(s.end_us - s.start_us);
    if (s.parent < 0) {
      in_pass[i] = is_pass(s);
      continue;
    }
    child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    in_pass[i] = in_pass[static_cast<std::size_t>(s.parent)];
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!in_pass[i]) continue;
    const SpanRecord& s = spans[i];
    const double self = s.end_us - s.start_us - child_us[i];
    if (s.parent < 0) {
      a.unattributed_us += self;
    } else {
      a.layer_self_us[layer_of(s.name)] += self;
    }
  }
  return a;
}

}  // namespace perfbench
