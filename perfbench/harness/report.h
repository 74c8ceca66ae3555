// Named metrics of one run, in the order they were set.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
