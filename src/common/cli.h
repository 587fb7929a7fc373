// Tiny --key=value command-line parser for bench/example binaries, plus the
// shared engine-flag entry point every binary routes through.
#ifndef UCLUST_COMMON_CLI_H_
#define UCLUST_COMMON_CLI_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace uclust::engine {
struct EngineConfig;
}  // namespace uclust::engine

namespace uclust::common {

/// Parses flags of the form `--key=value` or bare `--flag` (value "true").
/// Non-flag arguments are ignored. Unknown flags are permitted; callers query
/// only what they understand.
class ArgParser {
 public:
  /// Parses argv; safe on empty argv.
  ArgParser(int argc, char** argv);

  /// True iff `--key[=...]` was passed.
  bool Has(const std::string& key) const;
  /// String value of `--key=`, or `def` when absent.
  std::string GetString(const std::string& key, const std::string& def) const;
  /// Integer value of `--key=`, or `def` when absent/unparsable.
  int64_t GetInt(const std::string& key, int64_t def) const;
  /// Double value of `--key=`, or `def` when absent/unparsable.
  double GetDouble(const std::string& key, double def) const;
  /// Boolean value: bare `--key` or `--key=true/1` is true.
  bool GetBool(const std::string& key, bool def) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Parses every canonical engine knob present in `args` into `config`
/// (see engine::ApplyEngineKnob in engine/engine.h for the key table).
/// Flags the engine does not own are ignored — callers keep parsing their
/// own flags from the same ArgParser. A malformed value is a returned
/// error, not a silent default: every binary fails loudly on the same
/// message.
/// `config` keeps its pre-call values for knobs that are absent, so
/// callers may pre-seed defaults.
Status ParseEngineFlags(const ArgParser& args, engine::EngineConfig* config);

/// Convenience overload parsing straight from argv.
Status ParseEngineFlags(int argc, char** argv, engine::EngineConfig* config);

}  // namespace uclust::common

#endif  // UCLUST_COMMON_CLI_H_
