// In-memory span recorder. Spans are written out as TSV when the run ends;
// per-layer self time is derived from the span tree.
#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace perfbench {

std::int64_t Tracer::Add(const char* name, std::uint64_t start_ns,
                         std::uint64_t end_ns, std::int64_t parent,
                         std::uint64_t id) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::Reparent(const std::vector<std::int64_t>& spans,
                      std::int64_t parent) {
  for (std::int64_t s : spans) {
    if (s >= 0) spans_[static_cast<std::size_t>(s)].parent = parent;
  }
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    covered.clear();
    for (std::size_t c : children[i]) {
      const std::uint64_t b = std::max(s.start_ns, spans_[c].start_ns);
      const std::uint64_t e = std::min(s.end_ns, spans_[c].end_ns);
      if (b < e) covered.emplace_back(b, e);
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t busy = 0;
    std::uint64_t reach = s.start_ns;
    for (const auto& iv : covered) {
      const std::uint64_t b = std::max(iv.first, reach);
      if (iv.second > b) {
        busy += iv.second - b;
        reach = iv.second;
      }
    }
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] += static_cast<double>(dur - std::min(dur, busy)) * 1e-9;
  }
  return self;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\tid\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%llu\t%llu\t%lld\t%llu\n", i, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
