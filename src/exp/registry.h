#pragma once

// Named catalog of experiment specs.
//
// The built-in catalog (every bench scenario of the paper) is installed
// by register_builtin_experiments(); tests may build private Registry
// instances.  Registry::global() is the process-wide catalog the
// mmptcp_exp CLI uses.

#include <map>
#include <string>
#include <vector>

#include "exp/spec.h"

namespace mmptcp::exp {

/// Name -> spec catalog with substring filtering.
class Registry {
 public:
  /// Registers a spec; throws ConfigError on duplicate or empty name.
  void add(ExperimentSpec spec);

  /// Exact lookup; nullptr when absent.
  const ExperimentSpec* find(const std::string& name) const;

  /// Specs whose name contains `filter` (empty matches all), sorted by
  /// name.  An exact match returns just that spec.
  std::vector<const ExperimentSpec*> match(const std::string& filter) const;

  /// All specs sorted by name.
  std::vector<const ExperimentSpec*> all() const { return match(""); }

  std::size_t size() const { return specs_.size(); }

  /// The process-wide catalog.
  static Registry& global();

 private:
  std::map<std::string, ExperimentSpec> specs_;
};

/// Installs the built-in paper experiments into Registry::global().
/// Idempotent; returns the number of registered specs.
std::size_t register_builtin_experiments();

}  // namespace mmptcp::exp
