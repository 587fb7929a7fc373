#include "uncertain/moment_store.h"

namespace uclust::uncertain {

MomentStore::~MomentStore() = default;

std::string MomentBackendName(MomentBackend backend) {
  switch (backend) {
    case MomentBackend::kResident:
      return "resident";
    case MomentBackend::kMapped:
      return "mapped";
  }
  return "unknown";
}

const std::string& MomentStore::sidecar_path() const {
  static const std::string* empty = new std::string();
  return *empty;
}

}  // namespace uclust::uncertain
