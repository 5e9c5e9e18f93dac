// Named-metric registry (DESIGN.md §8): counters, gauges and latency
// histograms behind a stable string-keyed API, Prometheus-flavoured —
// a key is `base_name{label="value",...}`, and exporters group series by
// base name. The registry is the cold side of the obs/ layer: it absorbs
// OpStatsArray snapshots and LatencyHistograms after a run and adds the
// derived online metrics (SC success ratio, helps/op, time-in-help,
// per-variable contention estimate) the benches and the ROADMAP's
// contention-aware-helping work need to observe.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace mwllsc::obs {

class MetricsRegistry {
 public:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Metric {
    Type type = Type::kGauge;
    double value = 0;              // counter / gauge
    util::LatencyHistogram hist;   // histogram only
  };

  /// `labeled("mwllsc_sc_ops_total", "impl=\"jp\",w=\"4\"")` ->
  /// `mwllsc_sc_ops_total{impl="jp",w="4"}`. Empty labels -> bare name.
  static std::string labeled(const std::string& base,
                             const std::string& labels) {
    return labels.empty() ? base : base + "{" + labels + "}";
  }

  void set_counter(const std::string& key, std::uint64_t v) {
    Metric& m = metrics_[key];
    m.type = Type::kCounter;
    m.value = static_cast<double>(v);
  }

  void set_gauge(const std::string& key, double v) {
    Metric& m = metrics_[key];
    m.type = Type::kGauge;
    m.value = v;
  }

  void record_histogram(const std::string& key,
                        const util::LatencyHistogram& h) {
    Metric& m = metrics_[key];
    m.type = Type::kHistogram;
    m.hist.merge(h);
  }

  /// Absorbs one implementation's counter snapshot under a label set and
  /// derives the online health metrics from it.
  void absorb(const std::string& labels, const core::OpStatsSnapshot& s) {
    set_counter(labeled("mwllsc_ll_ops_total", labels), s.ll_ops);
    set_counter(labeled("mwllsc_sc_ops_total", labels), s.sc_ops);
    set_counter(labeled("mwllsc_sc_success_total", labels), s.sc_success);
    set_counter(labeled("mwllsc_vl_ops_total", labels), s.vl_ops);
    set_counter(labeled("mwllsc_ll_helped_total", labels), s.ll_helped);
    set_counter(labeled("mwllsc_ll_rescue_total", labels),
                s.ll_used_helped_value);
    set_counter(labeled("mwllsc_helps_given_total", labels), s.helps_given);
    set_counter(labeled("mwllsc_bank_writes_total", labels), s.bank_writes);
    set_counter(labeled("mwllsc_ll_retries_total", labels), s.ll_retries);
    set_counter(labeled("mwllsc_ll_slow_total", labels), s.ll_slow);

    const double sc = static_cast<double>(s.sc_ops);
    const double ll = static_cast<double>(s.ll_ops);
    const double success_ratio =
        sc > 0 ? static_cast<double>(s.sc_success) / sc : 0.0;
    set_gauge(labeled("mwllsc_sc_success_ratio", labels), success_ratio);
    // Contention estimate: fraction of SC attempts killed by a concurrent
    // winner — 0 uncontended, -> (N-1)/N saturated. This is the signal the
    // contention-aware-helping direction will throttle on.
    set_gauge(labeled("mwllsc_contention_estimate", labels),
              sc > 0 ? 1.0 - success_ratio : 0.0);
    set_gauge(labeled("mwllsc_helps_per_op", labels),
              ll > 0 ? static_cast<double>(s.helps_given) / ll : 0.0);
    set_gauge(labeled("mwllsc_help_rate", labels),
              ll > 0 ? static_cast<double>(s.ll_helped) / ll : 0.0);
    set_gauge(labeled("mwllsc_rescue_rate", labels),
              ll > 0 ? static_cast<double>(s.ll_used_helped_value) / ll
                     : 0.0);
    // Fast-path health: the share of LLs whose unannounced first attempt
    // passed (1 with no LLs, and on substrates without that split).
    set_gauge(labeled("mwllsc_ll_fast_hit_ratio", labels),
              ll > 0 ? 1.0 - static_cast<double>(s.ll_slow) / ll : 1.0);
  }

  /// Absorbs an operation-latency histogram under a label set.
  void absorb_latency(const std::string& labels,
                      const util::LatencyHistogram& h) {
    record_histogram(labeled("mwllsc_op_latency_ns", labels), h);
  }

  /// Derives trace-only metrics a counter snapshot cannot provide:
  /// per-kind event totals, LL wall time, and time-in-help (the summed
  /// duration of LLs that completed through a donated buffer).
  void absorb_trace(const TraceData& d) {
    std::uint64_t kind_counts[static_cast<std::size_t>(EventKind::kCount)] =
        {};
    struct PerVar {
      std::uint64_t lls = 0;
      double ll_ns = 0;
      std::uint64_t helped_lls = 0;
      double help_ns = 0;
    };
    std::map<std::uint32_t, PerVar> per_var;

    for (const auto& stream : d.per_pid) {
      // Open LL window per var for this pid (windows never nest per pid:
      // an LL is a single call and emits nothing else while open).
      std::map<std::uint32_t, std::uint64_t> open_ll;
      for (const TraceEvent& e : stream) {
        if (e.kind < static_cast<std::uint16_t>(EventKind::kCount)) {
          ++kind_counts[e.kind];
        }
        const auto k = static_cast<EventKind>(e.kind);
        if (k == EventKind::kLlStart) {
          open_ll[e.var] = e.tsc;
        } else if (k == EventKind::kLlFast || k == EventKind::kLlRescue) {
          auto it = open_ll.find(e.var);
          if (it == open_ll.end()) continue;  // truncated prefix
          const double ns =
              static_cast<double>(e.tsc - it->second) * d.ns_per_tick;
          PerVar& v = per_var[e.var];
          ++v.lls;
          v.ll_ns += ns;
          if (k == EventKind::kLlRescue) {
            ++v.helped_lls;
            v.help_ns += ns;
          }
          open_ll.erase(it);
        }
      }
    }

    for (std::size_t k = 0; k < static_cast<std::size_t>(EventKind::kCount);
         ++k) {
      if (kind_counts[k] == 0) continue;
      set_counter(labeled("mwllsc_trace_events_total",
                          std::string("kind=\"") +
                              event_name(static_cast<EventKind>(k)) + "\""),
                  kind_counts[k]);
    }
    for (const auto& [id, v] : per_var) {
      const TraceData::VarInfo* info = d.var_info(id);
      const std::string labels =
          "var=\"" + std::to_string(id) + "\",label=\"" +
          (info ? info->label : std::string("?")) + "\"";
      set_counter(labeled("mwllsc_traced_lls_total", labels), v.lls);
      set_gauge(labeled("mwllsc_ll_mean_ns", labels),
                v.lls ? v.ll_ns / static_cast<double>(v.lls) : 0.0);
      set_counter(labeled("mwllsc_time_in_help_ns_total", labels),
                  static_cast<std::uint64_t>(v.help_ns));
      set_gauge(labeled("mwllsc_traced_help_rate", labels),
                v.lls ? static_cast<double>(v.helped_lls) /
                            static_cast<double>(v.lls)
                      : 0.0);
    }
  }

  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  bool empty() const { return metrics_.empty(); }

  /// Splits a series key into (base name, label block without braces).
  static std::pair<std::string, std::string> split_key(
      const std::string& key) {
    const auto brace = key.find('{');
    if (brace == std::string::npos) return {key, ""};
    std::string labels = key.substr(brace + 1);
    if (!labels.empty() && labels.back() == '}') labels.pop_back();
    return {key.substr(0, brace), labels};
  }

 private:
  std::map<std::string, Metric> metrics_;
};

}  // namespace mwllsc::obs
