#include "self_time.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perfbench {

namespace {

struct Span {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t start = 0;
  std::uint64_t dur = 0;
};

/// The text after `"key": ` up to the next ',' / '}' / closing quote.
std::string_view field(std::string_view line, std::string_view key) {
  std::string pat(1, '"');
  pat.append(key).append("\": ");
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos)
    throw std::runtime_error("trace event without " + std::string(key));
  std::size_t b = at + pat.size();
  if (line[b] == '"') {
    ++b;
    return line.substr(b, line.find('"', b) - b);
  }
  const std::size_t e = line.find_first_of(",}", b);
  return line.substr(b, e - b);
}

/// Microsecond figure (shortest round-trip of ns / 1000) back to ns.
std::uint64_t us_to_ns(std::string_view s) {
  double us = 0.0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), us);
  if (res.ec != std::errc{}) throw std::runtime_error("bad trace number");
  return static_cast<std::uint64_t>(std::llround(us * 1000.0));
}

std::vector<Span> parse(const std::string& json) {
  std::vector<Span> spans;
  std::size_t pos = 0;
  while ((pos = json.find("{\"name\": ", pos)) != std::string::npos) {
    const std::size_t end = json.find('}', pos);
    const std::string_view line(json.data() + pos, end + 1 - pos);
    Span s;
    s.name = std::string(field(line, "name"));
    const std::string_view tid = field(line, "tid");
    std::from_chars(tid.data(), tid.data() + tid.size(), s.tid);
    s.start = us_to_ns(field(line, "ts"));
    s.dur = us_to_ns(field(line, "dur"));
    spans.push_back(std::move(s));
    pos = end;
  }
  return spans;
}

}  // namespace

SelfTimes self_times(const std::string& chrome_json, const std::string& root) {
  std::vector<Span> spans = parse(chrome_json);
  SelfTimes out;
  out.events = spans.size();

  std::uint32_t root_tid = 0;
  bool have_root = false;
  for (const Span& s : spans) {
    out.total_ns[s.name] += s.dur;
    if (s.name == root) {
      root_tid = s.tid;
      have_root = true;
    }
  }
  if (!have_root) return out;

  // Coordinator spans in start order, parents (longer) before children
  // that share their start.
  std::erase_if(spans, [&](const Span& s) { return s.tid != root_tid; });
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.dur > b.dur;
                   });

  struct Open {
    const Span* span;
    std::uint64_t child_ns;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    // Only spans inside a root count toward the rows.
    if (stack.empty() || stack.front().span->name != root) return;
    out.self_ns[o.span->name] +=
        o.span->dur - std::min(o.child_ns, o.span->dur);
  };
  for (const Span& s : spans) {
    while (!stack.empty() &&
           stack.back().span->start + stack.back().span->dur <= s.start) {
      const Open o = stack.back();
      close(o);
      stack.pop_back();
    }
    if (!stack.empty()) {
      Open& parent = stack.back();
      if (s.start + s.dur > parent.span->start + parent.span->dur)
        ++out.misnested;
      parent.child_ns += s.dur;
    }
    if (s.name == root && stack.empty()) out.root_ns += s.dur;
    stack.push_back(Open{&s, 0});
  }
  while (!stack.empty()) {
    const Open o = stack.back();
    close(o);
    stack.pop_back();
  }
  return out;
}

}  // namespace perfbench
