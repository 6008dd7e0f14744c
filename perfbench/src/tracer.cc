#include "tracer.h"

#include <cstdio>

namespace perfbench {

int Tracer::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  open_.push_back(id);
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

uint64_t Tracer::SelfNs(const std::string& name) const {
  // Children nest strictly inside their parent and do not overlap each other
  // (one thread), so the covered part is the sum of the child durations.
  std::vector<uint64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  uint64_t total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == name) {
      const uint64_t dur = s.end_ns - s.start_ns;
      total += dur > covered[i] ? dur - covered[i] : 0;
    }
  }
  return total;
}

uint64_t Tracer::TotalNs(const std::string& name) const {
  uint64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += s.end_ns - s.start_ns;
    }
  }
  return total;
}

std::vector<double> Tracer::DurationsNs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"run\":%llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(run_id_));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
