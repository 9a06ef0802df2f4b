#pragma once

// In-memory span recorder for the traced run. A span is one call into a
// layer: name, start, end, the span that was open when it began (its
// parent), and the id of the request it serves. Spans stay in memory and
// are written out once, when the run ends, so recording costs two clock
// reads and a vector append per call.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;
  std::int64_t parent;    ///< index into the recorder, -1 for a root
  std::uint64_t request;  ///< id of the request this span serves
  double start_ms, end_ms;
  double child_ms = 0;    ///< time covered by direct children

  double ms() const { return end_ms - start_ms; }
  double self_ms() const { return ms() - child_ms; }
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : origin_(Clock::now()) {}

  /// An empty recorder for another thread, on this one's time axis.
  SpanRecorder for_thread() const {
    SpanRecorder r;
    r.origin_ = origin_;
    return r;
  }

  /// Runs `fn` inside a span named `name` (a string literal) and returns
  /// the span's index together with `fn`'s result.
  template <class F>
  auto record(const char* name, std::uint64_t request, F&& fn) {
    const std::int64_t id = begin_(name, request);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      end_(id);
      return id;
    } else {
      auto result = fn();
      end_(id);
      return std::make_pair(id, std::move(result));
    }
  }

  /// Appends another thread's spans, its roots becoming children of
  /// `parent`. The parent's child time is left alone: those children ran
  /// in parallel with each other.
  void adopt(const SpanRecorder& other, std::int64_t parent) {
    const auto offset = static_cast<std::int64_t>(spans_.size());
    for (Span s : other.spans_) {
      s.parent = s.parent < 0 ? parent : s.parent + offset;
      spans_.push_back(s);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  const Span& at(std::int64_t id) const { return spans_[static_cast<std::size_t>(id)]; }

  /// Self times of every span called `name` whose root span is `root`
  /// (any root when `root` is null).
  std::vector<double> self_ms(const std::string& name, const char* root = nullptr) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name && (root == nullptr || root_of_(s) == std::string(root))) {
        out.push_back(s.self_ms());
      }
    }
    return out;
  }

  /// One JSON object per line.
  void write(std::ostream& out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"start_ms\":" << s.start_ms
          << ",\"end_ms\":" << s.end_ms << "}\n";
    }
  }

 private:
  double now_ms_() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
  }
  std::int64_t begin_(const char* name, std::uint64_t request) {
    const std::int64_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, request, now_ms_(), 0});
    open_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return open_.back();
  }
  void end_(std::int64_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ms = now_ms_();
    open_.pop_back();
    if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_ms += s.ms();
  }
  const char* root_of_(const Span& s) const {
    const Span* cur = &s;
    while (cur->parent >= 0) cur = &spans_[static_cast<std::size_t>(cur->parent)];
    return cur->name;
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

}  // namespace perfbench
