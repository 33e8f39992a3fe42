#include "sim/stats.hpp"

#include <cmath>
#include <cstdio>

namespace rtr::sim {

namespace {

/// JSON/CSV-safe rendering of a double (shortest round-trippable-ish form;
/// never "inf"/"nan", which JSON forbids).
std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      // Control characters are invalid raw inside JSON strings; stat names
      // should never contain them, but a malformed name must not poison
      // the whole export.
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

double Accumulator::stddev() const { return std::sqrt(variance()); }

void Accumulator::merge(const Accumulator& o) {
  if (o.count_ == 0) return;
  if (count_ == 0) {
    *this = o;
    return;
  }
  const double delta = o.mean_ - mean_;
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(o.count_);
  const double n = na + nb;
  mean_ += delta * (nb / n);
  m2_ += o.m2_ + delta * delta * (na * nb / n);
  count_ += o.count_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

void Histogram::merge(const Histogram& o) {
  if (o.count_ == 0) return;
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[static_cast<std::size_t>(b)] +=
        o.buckets_[static_cast<std::size_t>(b)];
  }
  count_ += o.count_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

void Histogram::add_repeated(const Histogram& from, const Histogram& to,
                             std::int64_t n) {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += (to.buckets_[b] - from.buckets_[b]) * n;
  }
  count_ += (to.count_ - from.count_) * n;
  sum_ += (to.sum_ - from.sum_) * n;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target =
      std::min(std::max(p, 0.0), 100.0) / 100.0 * static_cast<double>(count_);
  std::int64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::int64_t n = buckets_[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (static_cast<double>(cum + n) >= target) {
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
      const double hi = std::ldexp(1.0, b);
      const double frac =
          std::max(0.0, (target - static_cast<double>(cum))) /
          static_cast<double>(n);
      const double v = lo + frac * (hi - lo);
      // The bucket bounds can overshoot the values actually seen.
      return std::min(std::max(v, static_cast<double>(min_)),
                      static_cast<double>(max_));
    }
    cum += n;
  }
  return static_cast<double>(max_);
}

void StatRegistry::reset_all() {
  for (auto& [k, v] : counters_) v.reset();
  for (auto& [k, v] : accs_) v.reset();
  for (auto& [k, v] : busy_) v.reset();
  for (auto& [k, v] : hists_) v.reset();
}

void StatRegistry::merge(const StatRegistry& other) {
  for (const auto& [k, v] : other.counters_) counters_[k].add(v.value());
  for (const auto& [k, v] : other.accs_) accs_[k].merge(v);
  for (const auto& [k, v] : other.busy_) busy_[k].merge(v);
  for (const auto& [k, v] : other.hists_) hists_[k].merge(v);
}

void StatStep::begin(StatRegistry& reg) {
  reg_ = &reg;
  counters_.clear();
  busy_.clear();
  acc_counts_.clear();
  hists_.clear();
  for (const auto& [k, v] : reg.counters_) counters_.push_back(v.value());
  for (const auto& [k, v] : reg.busy_) busy_.push_back(v.total());
  for (const auto& [k, v] : reg.accs_) acc_counts_.push_back(v.count());
  for (const auto& [k, v] : reg.hists_) hists_.push_back(v);
}

bool StatStep::end() {
  StatRegistry& reg = *reg_;
  if (reg.counters_.size() != counters_.size() ||
      reg.busy_.size() != busy_.size() ||
      reg.accs_.size() != acc_counts_.size() ||
      reg.hists_.size() != hists_.size()) {
    return false;  // the step created a stat
  }
  std::size_t i = 0;
  for (const auto& [k, v] : reg.accs_) {
    if (v.count() != acc_counts_[i++]) return false;
  }
  counter_steps_.clear();
  busy_steps_.clear();
  hist_steps_.clear();
  i = 0;
  for (auto& [k, v] : reg.hists_) {
    const Histogram& before = hists_[i++];
    if (v.count() == before.count()) continue;
    if (!v.same_extremes(before)) return false;
    hist_steps_.push_back(HistStep{&v, before, v});
  }
  i = 0;
  for (auto& [k, v] : reg.counters_) {
    const std::int64_t d = v.value() - counters_[i++];
    if (d != 0) counter_steps_.emplace_back(&v, d);
  }
  i = 0;
  for (auto& [k, v] : reg.busy_) {
    const SimTime d = v.total() - busy_[i++];
    if (d.ps() != 0) busy_steps_.emplace_back(&v, d);
  }
  return true;
}

void StatStep::repeat(std::int64_t n) const {
  for (const auto& [c, d] : counter_steps_) c->add(d * n);
  for (const auto& [b, d] : busy_steps_) b->add(SimTime::zero(), d * n);
  for (const HistStep& h : hist_steps_) h.target->add_repeated(h.from, h.to, n);
}

void StatRegistry::print(std::ostream& os) const {
  for (const auto& [k, v] : counters_) {
    os << k << " = " << v.value() << '\n';
  }
  for (const auto& [k, v] : accs_) {
    os << k << " : n=" << v.count() << " mean=" << v.mean()
       << " stddev=" << v.stddev() << " min=" << v.min() << " max=" << v.max()
       << '\n';
  }
  for (const auto& [k, v] : busy_) {
    os << k << " busy=" << v.total().to_string() << '\n';
  }
  for (const auto& [k, v] : hists_) {
    os << k << " : n=" << v.count() << " p50=" << v.p50() << " p90=" << v.p90()
       << " p99=" << v.p99() << " p999=" << v.p999() << " max=" << v.max()
       << '\n';
  }
}

void StatRegistry::export_json(std::ostream& os) const {
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n    ";
  };
  os << "{\n  \"counters\": {";
  for (const auto& [k, v] : counters_) {
    sep();
    write_json_string(os, k);
    os << ": " << v.value();
  }
  os << "\n  },\n  \"accumulators\": {";
  first = true;
  for (const auto& [k, v] : accs_) {
    sep();
    write_json_string(os, k);
    os << ": {\"count\": " << v.count() << ", \"sum\": " << fmt_double(v.sum())
       << ", \"min\": " << fmt_double(v.min())
       << ", \"max\": " << fmt_double(v.max())
       << ", \"mean\": " << fmt_double(v.mean())
       << ", \"stddev\": " << fmt_double(v.stddev()) << "}";
  }
  os << "\n  },\n  \"busy\": {";
  first = true;
  for (const auto& [k, v] : busy_) {
    sep();
    write_json_string(os, k);
    os << ": {\"busy_ps\": " << v.total().ps() << "}";
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [k, v] : hists_) {
    sep();
    write_json_string(os, k);
    os << ": {\"count\": " << v.count() << ", \"min\": " << v.min()
       << ", \"max\": " << v.max() << ", \"mean\": " << fmt_double(v.mean())
       << ", \"p50\": " << fmt_double(v.p50())
       << ", \"p90\": " << fmt_double(v.p90())
       << ", \"p99\": " << fmt_double(v.p99())
       << ", \"p999\": " << fmt_double(v.p999()) << "}";
  }
  os << "\n  }\n}\n";
}

void StatRegistry::export_csv(std::ostream& os) const {
  os << "kind,name,value,count,min,max,mean,stddev,p50,p90,p99,p999\n";
  for (const auto& [k, v] : counters_) {
    os << "counter," << k << "," << v.value() << ",,,,,,,,,\n";
  }
  for (const auto& [k, v] : accs_) {
    os << "accumulator," << k << "," << fmt_double(v.sum()) << ","
       << v.count() << "," << fmt_double(v.min()) << "," << fmt_double(v.max())
       << "," << fmt_double(v.mean()) << "," << fmt_double(v.stddev())
       << ",,,,\n";
  }
  for (const auto& [k, v] : busy_) {
    os << "busy," << k << "," << v.total().ps() << ",,,,,,,,,\n";
  }
  for (const auto& [k, v] : hists_) {
    os << "histogram," << k << "," << v.sum() << "," << v.count() << ","
       << v.min() << "," << v.max() << "," << fmt_double(v.mean()) << ","
       << "," << fmt_double(v.p50()) << "," << fmt_double(v.p90()) << ","
       << fmt_double(v.p99()) << "," << fmt_double(v.p999()) << "\n";
  }
}

}  // namespace rtr::sim
