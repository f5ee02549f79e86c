// The shared bench harness: a gated bench main writes its BENCH_*.json
// artifact, its bounds and its verdict through one Report.
//
// The artifact is a manifest-headed nested JSON object ending in a boolean
// "ok", the binary's exit status. floor() / ceiling() write `key` next to
// `key_min` / `key_max`, the leaves `bench_check.py --internal` enforces
// (a 0.0 bound is not gated), and check() adds a named condition without a
// bound leaf; "ok" is computed from those same bounds and checks. Numbers
// are written in shortest round-trip form, so the checker reads back
// exactly the values the verdict was computed from. finish() also prints
// the artifact, so what a run shows is what it gates.
//
// Usable lanes are min(hardware threads, global pool lanes). A scaling
// floor that compares more lanes than that is written as 0.0, and the bound
// line printed for it says why.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/manifest.hpp"

namespace gp::bench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Hardware threads the machine reports (at least 1).
inline unsigned cpus() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Lanes that can run at once. Sizes the global pool on first call, so call
/// it after any setenv of GEOPLACE_THREADS.
inline std::size_t usable_lanes() {
  return std::min<std::size_t>(cpus(), ThreadPool::global().max_lanes());
}

class Report {
 public:
  /// A leaf value as JSON text: a boolean, an integer, a number (null when
  /// not finite) or a string (written unescaped).
  struct Value {
    Value(bool v) : text(v ? "true" : "false") {}
    Value(std::integral auto v) : text(std::to_string(v)) {}
    Value(double v) {
      char buffer[32];
      char* last = std::to_chars(buffer, buffer + sizeof(buffer), v).ptr;
      text = std::isfinite(v) ? std::string(buffer, last) : "null";
    }
    Value(const char* v) : text('"' + std::string(v) + '"') {}
    std::string text;
  };
  struct Field {
    std::string_view key;
    Value value;
  };

  Report(std::string path, const obs::RunManifest& manifest)
      : path_(std::move(path)), out_("{\n  \"manifest\": " + manifest.to_json_object()) {}

  void record(std::string_view key, const Value& value) { entry(key) += value.text; }

  /// Opens a nested object or array (`key` is ignored inside an array).
  void object(std::string_view key = {}) { open(key, false); }
  void array(std::string_view key) { open(key, true); }
  /// Writes an object of leaves.
  void object(std::string_view key, std::initializer_list<Field> fields) {
    object(key);
    for (const Field& f : fields) record(f.key, f.value);
    end();
  }
  /// Closes the innermost open object or array.
  void end() {
    const bool is_array = scopes_.back().is_array;
    scopes_.pop_back();
    out_ += '\n' + std::string(2 * scopes_.size(), ' ') + (is_array ? ']' : '}');
  }

  /// Writes `key` and `key_min` and gates value >= bound. A floor measured
  /// across `min_lanes` lanes (a thread-scaling ratio) is written as 0.0
  /// when fewer lanes are usable.
  void floor(std::string_view key, double value, double bound, std::size_t min_lanes = 1) {
    const std::size_t lanes = min_lanes > 1 ? usable_lanes() : 1;
    if (bound == 0.0 || lanes >= min_lanes) {
      bounded(key, true, value, bound, "");
      return;
    }
    bounded(key, true, value, 0.0,
            "not gated: " + std::to_string(lanes) + " usable lane" + (lanes == 1 ? "" : "s") +
                ", needs " + std::to_string(min_lanes));
  }
  /// Writes `key` and `key_max` and gates value <= bound.
  void ceiling(std::string_view key, double value, double bound) {
    bounded(key, false, value, bound, "");
  }
  /// Adds a named condition to the verdict.
  void check(std::string_view name, bool ok) {
    ++checks_;
    if (!ok) failed_ += " " + std::string(name);
  }

  /// Writes the artifact with its "ok" verdict, prints it, its bound lines
  /// and the verdict line, and returns the exit code.
  [[nodiscard]] int finish() {
    record("ok", failed_.empty());
    out_ += "\n}\n";
    std::ofstream file(path_);
    file << out_;
    file.close();
    if (file.fail()) failed_ += " (" + path_ + " not written)";
    std::printf("%s%s\n# %s: %zu bound(s), %zu check(s) -- %s%s\n", out_.c_str(),
                bound_lines_.c_str(), path_.c_str(), bounds_, checks_,
                failed_.empty() ? "OK" : "FAILED:", failed_.c_str());
    return failed_.empty() ? 0 : 1;
  }

 private:
  struct Scope {
    bool is_array = false;
    std::size_t entries = 0;
    std::string path;  ///< dotted, as bench_check's walk() names leaves
  };

  /// Dotted path of `key` in the innermost scope.
  std::string path_of(std::string_view key) const {
    const Scope& s = scopes_.back();
    const std::string name = s.is_array ? std::to_string(s.entries) : std::string(key);
    return s.path.empty() ? name : s.path + "." + name;
  }

  /// Starts the next entry of the innermost scope, up to its value.
  std::string& entry(std::string_view key) {
    Scope& s = scopes_.back();
    out_ += (s.entries++ > 0 ? ",\n" : "\n") + std::string(2 * scopes_.size(), ' ');
    if (!s.is_array) out_ += '"' + std::string(key) + "\": ";
    return out_;
  }

  void open(std::string_view key, bool is_array) {
    std::string path = path_of(key);
    entry(key) += is_array ? '[' : '{';
    scopes_.push_back({is_array, 0, std::move(path)});
  }

  /// Records `key` and its bound leaf, and the bound's printed line.
  void bounded(std::string_view key, bool is_floor, double value, double bound,
               const std::string& why) {
    const bool held = bound == 0.0 || (is_floor ? value >= bound : value <= bound);
    const std::string path = path_of(key);
    ++bounds_;
    if (!held) failed_ += " " + path;
    char line[256];
    std::snprintf(line, sizeof(line), "  %s  %.3f %s %.3f  %s\n", path.c_str(), value,
                  is_floor ? ">=" : "<=", bound,
                  !why.empty()   ? why.c_str()
                  : bound == 0.0 ? "not gated: bound 0.0"
                  : held         ? "ok"
                                 : "VIOLATION");
    bound_lines_ += line;
    record(key, value);
    record(std::string(key) + (is_floor ? "_min" : "_max"), bound);
  }

  std::string path_;
  std::string out_;
  std::vector<Scope> scopes_{Scope{false, 1, ""}};  ///< root object; manifest is entry 0
  std::string bound_lines_;
  std::string failed_;  ///< names of the failed bounds and checks, each space-led
  std::size_t bounds_ = 0;
  std::size_t checks_ = 0;
};

}  // namespace gp::bench
